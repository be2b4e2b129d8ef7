package serve

// The service-mode endpoints of the operations plane: /sliz serves the
// SLI layer's snapshot (config generation, uptime, active burn-rate
// alerts, rwc_sli_* totals, recent lifecycle events) and /demandz
// answers a client's demand-batch feasibility probes against the
// daemon's latest-round snapshot. Both are read-only with respect
// to simulation state. /sliz answers on every server; /demandz needs
// the Admit hook the daemon wires, and a server without one answers 404.

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
)

// handleSliz serves the service ledger's snapshot.
func (s *Server) handleSliz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.sli.Snapshot())
}

// demandzRequest is the /demandz request body: one batch of demand
// volumes.
type demandzRequest struct {
	Demands []demandzDemand `json:"demands"`
}

// demandzDemand is one probe demand. Src/Dst are informational — the
// admission answer is aggregate headroom, not a routing decision.
type demandzDemand struct {
	Src  int     `json:"src"`
	Dst  int     `json:"dst"`
	Gbps float64 `json:"gbps"`
}

// AdmitResponse is the /demandz response: an advisory feasibility
// answer from the latest completed round's capacity/throughput
// snapshot.
type AdmitResponse struct {
	// Round and Policy identify the snapshot the answer was computed
	// against (-1 before the first round completes).
	Round  int    `json:"round"`
	Policy string `json:"policy"`
	// CapacityGbps and ShippedGbps echo the round snapshot; headroom
	// is their difference (floored at zero).
	CapacityGbps float64 `json:"capacity_gbps"`
	ShippedGbps  float64 `json:"shipped_gbps"`
	HeadroomGbps float64 `json:"headroom_gbps"`
	// OfferedGbps sums the probe's volumes; AdmittedGbps and Admitted
	// are what fits into headroom, filling demands in request order.
	OfferedGbps  float64 `json:"offered_gbps"`
	AdmittedGbps float64 `json:"admitted_gbps"`
	Admitted     int     `json:"admitted"`
	Rejected     int     `json:"rejected"`
}

// handleDemandz answers one demand-batch probe; 404 without an Admit
// hook, 405 on non-POST, 400 on a bad body. A negative volume would
// make headroom, and a batch whose total overflows has no answer, so
// both are bad bodies.
func (s *Server) handleDemandz(w http.ResponseWriter, r *http.Request) {
	if s.opts.Admit == nil {
		http.Error(w, "demand admission disabled (not running in daemon mode)", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST a JSON demand batch", http.StatusMethodNotAllowed)
		return
	}
	var req demandzRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<22))
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad demand batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	volumes := make([]float64, len(req.Demands))
	total := 0.0
	for i, d := range req.Demands {
		if d.Gbps < 0 {
			http.Error(w, fmt.Sprintf("bad demand batch: demand %d has negative volume %g", i, d.Gbps), http.StatusBadRequest)
			return
		}
		volumes[i] = d.Gbps
		total += d.Gbps
	}
	if math.IsInf(total, 1) {
		http.Error(w, "bad demand batch: total volume overflows", http.StatusBadRequest)
		return
	}
	resp := s.opts.Admit(volumes)
	s.sli.DemandBatch(len(volumes), resp.OfferedGbps, resp.AdmittedGbps)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

// AdmitAgainst computes the standard admission answer: fill the
// probe's volumes (non-negative) in order against the snapshot's
// headroom. Exported helper so the daemon's Admit closure and tests
// share one policy.
func AdmitAgainst(round int, policy string, capacity, shipped float64, volumes []float64) AdmitResponse {
	resp := AdmitResponse{
		Round:        round,
		Policy:       policy,
		CapacityGbps: capacity,
		ShippedGbps:  shipped,
	}
	if h := capacity - shipped; h > 0 {
		resp.HeadroomGbps = h
	}
	room := resp.HeadroomGbps
	for _, v := range volumes {
		resp.OfferedGbps += v
		if v <= room {
			room -= v
			resp.AdmittedGbps += v
			resp.Admitted++
		} else {
			resp.Rejected++
		}
	}
	// room never goes negative, but the admitted sum rounds on its own:
	// tiny volumes that leave room unchanged still add up.
	resp.AdmittedGbps = math.Min(resp.AdmittedGbps, resp.HeadroomGbps)
	return resp
}
