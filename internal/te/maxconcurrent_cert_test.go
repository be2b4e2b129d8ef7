package te

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// certificate is what checkCertificate found for one GK run: the
// allocation, and λ, its common fraction; D and α, the dual
// objective and the demands' weighted distance under the returned
// lengths; and whether the run ended on D ≥ 1 rather than on its
// certificate.
type certificate struct {
	alloc               *Allocation
	lambda, dual, alpha float64
	byDual              bool
}

// bound is GK's dual bound D/α on the optimum, clamped to 1 as λ is.
func (c certificate) bound() float64 { return min(c.dual/c.alpha, 1) }

// checkCertificate runs the GK loop at eps on one instance and checks
// the certificate it stops on, recomputing both of its sides from what
// the loop returns, not from its own state: λ from the allocation, once
// CheckFeasible has passed it, and α from one fresh Dijkstra per source
// (lengthDists) over the returned final lengths. The run must end with
// λ ≥ (1−ε)·min(D/α, 1), or with D ≥ 1, GK's own end. The final trim
// is for rounding only: λ may lose no more than a rounding error to it
// from the fraction the loop scaled its raw flow to.
func checkCertificate(eps float64, g *graph.Graph, demands []Demand) (certificate, error) {
	var c certificate
	a, scaled, length, err := MaxConcurrent{}.allocate(g, demands, eps)
	if err != nil {
		return c, err
	}
	c.alloc = a
	if err := CheckFeasible(g, a); err != nil {
		return c, err
	}
	if c.lambda, err = concurrentLambda(g, a); err != nil {
		return c, err
	}
	const rounding = 1e-9
	if c.lambda < scaled*(1-rounding) {
		return c, fmt.Errorf("the feasibility trim cut λ from %v to %v", scaled, c.lambda)
	}
	for id, l := range length {
		if capacity := g.Edge(graph.EdgeID(id)).Capacity; capacity > graph.Eps {
			c.dual += capacity * l
		}
	}
	dist := make(map[graph.NodeID][]float64)
	for _, d := range demands {
		if d.Volume <= graph.Eps {
			continue
		}
		if dist[d.Src] == nil {
			dist[d.Src] = lengthDists(g, d.Src, length)
		}
		if l := dist[d.Src][d.Dst]; !math.IsInf(l, 1) {
			c.alpha += d.Volume * l
		}
	}
	c.byDual = c.dual >= 1
	if !c.byDual && c.lambda < (1-eps)*c.bound()*(1-rounding) {
		return c, fmt.Errorf("stopped at D = %v < 1 with λ = %v below (1−ε) of the dual bound %v", c.dual, c.lambda, c.bound())
	}
	return c, nil
}

// lengthDists is the distance from src to every node over the edges of
// capacity > Eps, edge id's length being length[id]: Dijkstra by a
// linear scan for the nearest unsettled node, +Inf where unreachable.
func lengthDists(g *graph.Graph, src graph.NodeID, length []float64) []float64 {
	dist := make([]float64, g.NumNodes())
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[src] = 0
	done := make([]bool, len(dist))
	for {
		u := -1
		for v, d := range dist {
			if !done[v] && !math.IsInf(d, 1) && (u < 0 || d < dist[u]) {
				u = v
			}
		}
		if u < 0 {
			return dist
		}
		done[u] = true
		for _, id := range g.Out(graph.NodeID(u)) {
			e := g.Edge(id)
			if e.Capacity > graph.Eps {
				dist[e.To] = min(dist[e.To], dist[u]+length[id])
			}
		}
	}
}

// TestMaxConcurrentCertificate: on random multigraphs (tied lengths,
// parallel and zero-capacity edges, unreachable pairs) every run ends
// on a certificate an independent check confirms, or on D ≥ 1, at every
// ε the tests use; and some runs end on the certificate.
func TestMaxConcurrentCertificate(t *testing.T) {
	r := rng.New(0xce27)
	certified := 0
	for trial := 0; trial < 240; trial++ {
		g, demands := gkInstance(r, 3)
		eps := []float64{0.05, 0.1, 0.2}[trial%3]
		c, err := checkCertificate(eps, g, demands)
		if err != nil {
			t.Fatalf("trial %d eps %v: %v", trial, eps, err)
		}
		if !c.byDual && c.alpha > 0 {
			certified++
		}
	}
	t.Logf("%d of 240 runs ended on their certificate", certified)
	if certified < 120 {
		t.Fatalf("only %d of 240 runs ended on their certificate", certified)
	}
}

// checkScreen runs the GK loop at eps on one instance and holds the
// screen to the exact check on the lengths and kept paths the loop
// ended with: every active demand's kept path is at least as long as
// its distance under those lengths (lengthDists), so α_kept ≥ α, and
// screened passes wherever the exact condition λ ≥ (1−ε)·min(D/α, 1)
// does. A run that ended on D ≥ 1 within its first phase may leave a
// demand without a kept path; the screen never runs on such a state.
func checkScreen(eps float64, g *graph.Graph, demands []Demand) (*Allocation, error) {
	w := new(WarmMaxConcurrent)
	a, _, length, err := w.allocate(g, demands, eps)
	if err != nil {
		return nil, err
	}
	dist := make(map[graph.NodeID][]float64)
	var alpha, kept float64
	for i, j := range w.col {
		if j < 0 {
			continue
		}
		d := demands[i]
		if len(w.saved[i]) == 0 {
			if gkDual(w.capOf, length) < 1 {
				return a, fmt.Errorf("active demand %d has no kept path at D < 1", i)
			}
			return a, nil
		}
		if dist[d.Src] == nil {
			dist[d.Src] = lengthDists(g, d.Src, length)
		}
		exact, path := dist[d.Src][d.Dst], gkLength(w.saved[i], length)
		if path < exact {
			return a, fmt.Errorf("demand %d: kept path of length %v under its distance %v", i, path, exact)
		}
		alpha += d.Volume * exact
		kept += d.Volume * path
	}
	if kept < alpha {
		return a, fmt.Errorf("α_kept = %v under α = %v", kept, alpha)
	}
	exact := w.lambda(demands) >= (1-eps)*min(gkDual(w.capOf, length)/alpha, 1)
	if exact && !w.screened(demands, eps) {
		return a, fmt.Errorf("the screen fails where the exact check passes (α_kept = %v, α = %v)", kept, alpha)
	}
	return a, nil
}

// TestMaxConcurrentScreenSound: on the random multigraphs of
// TestMaxConcurrentCertificate, at every ε it uses, the screen is never
// stricter than the exact check (see checkScreen).
func TestMaxConcurrentScreenSound(t *testing.T) {
	r := rng.New(0xce27)
	for trial := 0; trial < 240; trial++ {
		g, demands := gkInstance(r, 3)
		eps := []float64{0.05, 0.1, 0.2}[trial%3]
		if _, err := checkScreen(eps, g, demands); err != nil {
			t.Fatalf("trial %d eps %v: %v", trial, eps, err)
		}
	}
}
