package serve

// The history endpoints of the operations plane: /seriesz lists every
// stored series, /queryz answers range queries with the hist package's
// ops (raw/min/last), over the run's store (when -hist-out enabled one)
// and the service ledger's. Like every other endpoint, reads are
// snapshot-based: Store.Query copies only the rings of the series its
// selector names, under the store lock, and merges them after
// releasing it, so a query costs what it returns, a round's appends
// wait only for that copy, and serving history never perturbs run
// artifacts.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/obs/hist"
)

// Queryz is the /queryz response shape.
type Queryz struct {
	Query   queryzEcho    `json:"query"`
	Results []hist.Result `json:"results"`
}

// queryzEcho replays the parsed query so clients can confirm how
// their parameters were interpreted.
type queryzEcho struct {
	Selector string `json:"q"`
	FromNs   int64  `json:"from_ns"`
	ToNs     int64  `json:"to_ns"`
	Op       string `json:"op,omitempty"`
}

// Seriesz is the /seriesz response shape.
type Seriesz struct {
	Series []hist.SeriesInfo `json:"series"`
}

// histStores returns the queryable history stores in render order:
// the run's store (when -hist-out enabled one) followed by the service
// ledger's. Series namespaces are disjoint (run metrics vs rwc_sli_*),
// so concatenation is safe.
func (s *Server) histStores() []*hist.Store {
	if s.opts.Hist == nil {
		return []*hist.Store{s.sli.Hist()}
	}
	return []*hist.Store{s.opts.Hist, s.sli.Hist()}
}

// handleSeriesz lists every history store's series in canonical order.
func (s *Server) handleSeriesz(w http.ResponseWriter, r *http.Request) {
	stores := s.histStores()
	info := Seriesz{}
	for _, st := range stores {
		info.Series = append(info.Series, st.Series()...)
	}
	if info.Series == nil {
		info.Series = []hist.SeriesInfo{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(info)
}

// handleQueryz answers one range query. Parameters:
//
//	q        selector, `name` or `name{k="v",...}` (required)
//	from_ns  inclusive lower sim-time bound (default 0)
//	to_ns    inclusive upper sim-time bound (default -1 = unbounded)
//	op       raw|min|last
func (s *Server) handleQueryz(w http.ResponseWriter, r *http.Request) {
	stores := s.histStores()
	params := r.URL.Query()
	q := hist.Query{Selector: params.Get("q"), ToNs: -1}
	if q.Selector == "" {
		http.Error(w, "missing required parameter q (series selector)", http.StatusBadRequest)
		return
	}
	var err error
	if v := params.Get("from_ns"); v != "" {
		if q.FromNs, err = strconv.ParseInt(v, 10, 64); err != nil {
			http.Error(w, fmt.Sprintf("bad from_ns: %v", err), http.StatusBadRequest)
			return
		}
	}
	if v := params.Get("to_ns"); v != "" {
		if q.ToNs, err = strconv.ParseInt(v, 10, 64); err != nil {
			http.Error(w, fmt.Sprintf("bad to_ns: %v", err), http.StatusBadRequest)
			return
		}
	}
	q.Op = params.Get("op")

	var results []hist.Result
	for _, st := range stores {
		res, err := st.Query(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		results = append(results, res...)
	}
	if results == nil {
		results = []hist.Result{}
	}
	resp := Queryz{
		Query: queryzEcho{
			Selector: q.Selector,
			FromNs:   q.FromNs,
			ToNs:     q.ToNs,
			Op:       q.Op,
		},
		Results: results,
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}
