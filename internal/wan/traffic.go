package wan

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/te"
)

// GravityTraffic builds a demand set with the standard gravity model:
// demand(i→j) ∝ w_i·w_j, scaled so the total demand equals
// totalVolume. Pairs with either weight zero are skipped.
func GravityTraffic(n *Network, totalVolume float64) ([]te.Demand, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	if totalVolume < 0 {
		return nil, fmt.Errorf("wan: negative traffic volume")
	}
	var mass float64
	nn := n.G.NumNodes()
	for i := 0; i < nn; i++ {
		for j := 0; j < nn; j++ {
			if i == j {
				continue
			}
			mass += n.NodeWeights[i] * n.NodeWeights[j]
		}
	}
	if mass == 0 {
		return nil, fmt.Errorf("wan: all node weights zero")
	}
	var out []te.Demand
	for i := 0; i < nn; i++ {
		for j := 0; j < nn; j++ {
			if i == j {
				continue
			}
			v := totalVolume * n.NodeWeights[i] * n.NodeWeights[j] / mass
			if v <= 0 {
				continue
			}
			out = append(out, te.Demand{
				Src: graph.NodeID(i), Dst: graph.NodeID(j), Volume: v,
			})
		}
	}
	return out, nil
}

// LargestDemands keeps only the k largest demands (production TE
// commonly engineers the heavy hitters and default-routes the tail) in
// O(n log n), which matters for continental gravity matrices (hundreds
// of nodes → tens of thousands of demand pairs). Ties break by
// ascending (Src, Dst) so the result is a deterministic function of the
// input set, not of its ordering. Returns demands largest-first; the
// input slice is not modified.
func LargestDemands(demands []te.Demand, k int) []te.Demand {
	if k <= 0 || len(demands) == 0 {
		return nil
	}
	sorted := append([]te.Demand(nil), demands...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Volume != sorted[j].Volume { //nolint:nofloateq // comparator tie-break: tolerance would break strict weak ordering
			return sorted[i].Volume > sorted[j].Volume
		}
		if sorted[i].Src != sorted[j].Src {
			return sorted[i].Src < sorted[j].Src
		}
		return sorted[i].Dst < sorted[j].Dst
	})
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[:k]
}

// PerturbTrafficInto writes demands into dst (which must have
// len(demands) entries) with each volume multiplied by a log-normal
// factor — the round-to-round traffic churn that makes TE re-run (the
// paper's "next round of TE computation" with increased demands). The
// round loop reuses one dst instead of allocating a demand set per
// round. dst and demands may not alias: demandsBase must stay pristine
// across rounds.
func PerturbTrafficInto(dst, demands []te.Demand, sigma float64, r *rng.Source) []te.Demand {
	for i, d := range demands {
		d.Volume *= r.LogNormal(0, sigma)
		dst[i] = d
	}
	return dst
}
