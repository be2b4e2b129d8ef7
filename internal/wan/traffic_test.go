package wan

import (
	"math"
	"sort"
	"testing"

	"repro/internal/te"
)

// sortedDemands is LargestDemands as a full sort: a copy of demands
// under sort.Slice with larger volume first, then ascending (Src, Dst).
func sortedDemands(demands []te.Demand) []te.Demand {
	sorted := append([]te.Demand(nil), demands...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Volume != sorted[j].Volume {
			return sorted[i].Volume > sorted[j].Volume
		}
		if sorted[i].Src != sorted[j].Src {
			return sorted[i].Src < sorted[j].Src
		}
		return sorted[i].Dst < sorted[j].Dst
	})
	return sorted
}

// oracleBase is a capped run's base demands built the long way: the
// whole gravity matrix, fully sorted and cut to k when more than k
// pairs exist, and left in gravity order otherwise.
func oracleBase(t *testing.T, n *Network, total float64, k int) []te.Demand {
	t.Helper()
	all, err := GravityTraffic(n, total)
	if err != nil {
		t.Fatal(err)
	}
	if k > 0 && len(all) > k {
		return sortedDemands(all)[:k]
	}
	return all
}

func sameDemands(t *testing.T, what string, got, want []te.Demand) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d demands, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Src != want[i].Src || got[i].Dst != want[i].Dst ||
			math.Float64bits(got[i].Volume) != math.Float64bits(want[i].Volume) {
			t.Fatalf("%s: rank %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestHeaviestMatchesFullSort holds the streamed selection to the full
// sort on gravity matrices full of ties: node weights come from a small
// value set (zero included), so w_i·w_j products repeat and the
// (Src, Dst) tie-break decides most ranks.
func TestHeaviestMatchesFullSort(t *testing.T) {
	values := []float64{0, 0.5, 1, 2, 3, 4}
	r := rngNew(54)
	for trial := 0; trial < 20; trial++ {
		net, err := RandomBackbone(8+r.Intn(16), 4, 2, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		for i := range net.NodeWeights {
			net.NodeWeights[i] = values[r.Intn(len(values))]
		}
		net.NodeWeights[0] = 1 // at least two non-zero weights
		net.NodeWeights[1] = 2
		all, err := GravityTraffic(net, 1000)
		if err != nil {
			t.Fatal(err)
		}
		pairs := len(all)
		for _, k := range []int{1, 7, pairs - 1, pairs, pairs + 5} {
			if k <= 0 {
				continue
			}
			want := oracleBase(t, net, 1000, k)
			top := newHeaviest(k, pairs)
			if err := gravityPairs(net, 1000, top.offer); err != nil {
				t.Fatal(err)
			}
			sameDemands(t, "selection", top.demands(), want)
			if k >= pairs {
				sameDemands(t, "selection of every pair", top.demands(), all)
			}
			sorted := sortedDemands(all)
			sameDemands(t, "LargestDemands", LargestDemands(all, k), sorted[:min(k, pairs)])
		}
	}
}

// TestNewSimulationDemandsMatchOracle pins a capped continental run's
// base demands to the full matrix sorted and cut, and an uncapped
// run's to the whole matrix.
func TestNewSimulationDemandsMatchOracle(t *testing.T) {
	net, err := ParseTopology("continental:200", 8, 2017)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{800, 0} {
		cfg := SimConfig{Net: net, Rounds: 1, Seed: 2017, DemandFraction: 1.2, MaxDemands: k, Workers: 1}
		sim, err := NewSimulation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameDemands(t, "demandsBase", sim.demandsBase, oracleBase(t, net, cfg.offeredTotal(), k))
	}
}
