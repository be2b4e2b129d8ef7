package wan

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/te"
)

// GravityTraffic builds a demand set with the standard gravity model:
// demand(i→j) ∝ w_i·w_j, scaled so the total demand equals
// totalVolume. Pairs with either weight zero are skipped.
func GravityTraffic(n *Network, totalVolume float64) ([]te.Demand, error) {
	var out []te.Demand
	err := gravityPairs(n, totalVolume, func(d te.Demand) { out = append(out, d) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// gravityPairs visits GravityTraffic's demands in its order (ascending
// source, then destination) without materialising them, so a caller
// that keeps a few of the n(n−1) pairs never holds the rest. Every
// volume is checked before it is visited; on an error the pairs
// visited so far are to be discarded.
func gravityPairs(n *Network, totalVolume float64, visit func(te.Demand)) error {
	if err := n.Validate(); err != nil {
		return err
	}
	if !(totalVolume >= 0) || math.IsInf(totalVolume, 1) {
		return fmt.Errorf("wan: traffic volume %v is not a finite non-negative number", totalVolume)
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
		return fmt.Errorf("wan: all node weights zero")
	}
	for i := 0; i < nn; i++ {
		for j := 0; j < nn; j++ {
			if i == j {
				continue
			}
			v := totalVolume * n.NodeWeights[i] * n.NodeWeights[j] / mass
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return fmt.Errorf("wan: gravity volume %d->%d of a %v total is %v, not finite", i, j, totalVolume, v)
			}
			if v <= 0 {
				continue
			}
			visit(te.Demand{Src: graph.NodeID(i), Dst: graph.NodeID(j), Volume: v})
		}
	}
	return nil
}

// LargestDemands keeps only the k largest demands (production TE
// commonly engineers the heavy hitters and default-routes the tail).
// Ties break by ascending (Src, Dst) so the result is a deterministic
// function of the input set, not of its ordering. Returns demands
// largest-first; the input slice is not modified. It holds k demands
// at a time, so a continental gravity matrix (tens of millions of
// pairs at 4096 nodes) costs O(pairs·log k), not a full sort.
func LargestDemands(demands []te.Demand, k int) []te.Demand {
	if k <= 0 || len(demands) == 0 {
		return nil
	}
	top := newHeaviest(k, len(demands))
	for _, d := range demands {
		top.offer(d)
	}
	out := top.demands()
	if !top.full {
		slices.SortFunc(out, heavierFirst)
	}
	return out
}

// heavier is LargestDemands' order: larger volume first, then
// ascending (Src, Dst). It is total over distinct pairs, so the k
// heaviest of a set and their order do not depend on how they are
// found.
func heavier(a, b te.Demand) bool {
	if a.Volume != b.Volume { //nolint:nofloateq // comparator tie-break: tolerance would break strict weak ordering
		return a.Volume > b.Volume
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Dst < b.Dst
}

// heavierFirst is heavier as a slices.SortFunc comparison.
func heavierFirst(a, b te.Demand) int {
	switch {
	case heavier(a, b):
		return -1
	case heavier(b, a):
		return 1
	}
	return 0
}

// heaviest keeps the k heaviest demands offered to it under
// heavier. It holds the first k in offer order; the (k+1)-th
// turns them into a min-heap whose root is the lightest kept demand,
// and each later offer replaces the root only if it is heavier.
type heaviest struct {
	k    int
	kept []te.Demand
	full bool // more than k offered: kept is a heap
}

// newHeaviest keeps the k heaviest of at most n offers.
func newHeaviest(k, n int) *heaviest {
	return &heaviest{k: k, kept: make([]te.Demand, 0, min(k, n))}
}

func (h *heaviest) offer(d te.Demand) {
	if len(h.kept) < h.k {
		h.kept = append(h.kept, d)
		return
	}
	if !h.full {
		h.full = true
		for i := len(h.kept)/2 - 1; i >= 0; i-- {
			h.down(i)
		}
	}
	if heavier(d, h.kept[0]) {
		h.kept[0] = d
		h.down(0)
	}
}

// down restores the heap below i: a parent is never heavier than its
// children.
func (h *heaviest) down(i int) {
	kept := h.kept
	for {
		c := 2*i + 1
		if c >= len(kept) {
			return
		}
		if r := c + 1; r < len(kept) && heavier(kept[c], kept[r]) {
			c = r
		}
		if !heavier(kept[i], kept[c]) {
			return
		}
		kept[i], kept[c] = kept[c], kept[i]
		i = c
	}
}

// demands returns the kept demands: in offer order when no more than k
// were offered, largest-first otherwise.
func (h *heaviest) demands() []te.Demand {
	if h.full {
		slices.SortFunc(h.kept, heavierFirst)
	}
	return h.kept
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
