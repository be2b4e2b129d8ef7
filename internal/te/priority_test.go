package te

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
)

// bottleneckLine builds a->b->c where b->c is the 100-unit bottleneck.
func bottleneckLine() (*graph.Graph, [3]graph.NodeID) {
	g := graph.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.AddEdge(graph.Edge{From: a, To: b, Capacity: 100, Weight: 1})
	g.AddEdge(graph.Edge{From: b, To: c, Capacity: 100, Weight: 1})
	return g, [3]graph.NodeID{a, b, c}
}

func TestByPriorityStableOrdering(t *testing.T) {
	demands := []Demand{
		{Volume: 1, Priority: 2},
		{Volume: 2, Priority: 0},
		{Volume: 3, Priority: 1},
		{Volume: 4, Priority: 0},
	}
	order := byPriority(demands)
	want := []int{1, 3, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// Input untouched.
	if demands[0].Priority != 2 {
		t.Fatal("input mutated")
	}
}

func TestByPriorityEmpty(t *testing.T) {
	if len(byPriority(nil)) != 0 {
		t.Fatal("non-empty order for no demands")
	}
}

// The high-priority demand is listed LAST but must win the bottleneck
// under every priority-aware allocator.
func TestPriorityBeatsSubmissionOrder(t *testing.T) {
	algs := []Algorithm{ShortestPath{}, Greedy{}, KPath{K: 2}}
	for _, alg := range algs {
		g, n := bottleneckLine()
		demands := []Demand{
			{Src: n[1], Dst: n[2], Volume: 100, Priority: 5}, // bulk, listed first
			{Src: n[0], Dst: n[2], Volume: 80, Priority: 0},  // premium, listed last
		}
		alloc, err := alg.Allocate(g, demands)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		premium := alloc.Results[1].Shipped
		bulk := alloc.Results[0].Shipped
		if premium < 79.9 {
			t.Fatalf("%s: premium shipped %v, want 80", alg.Name(), premium)
		}
		if bulk > 20.1 {
			t.Fatalf("%s: bulk shipped %v over premium's capacity", alg.Name(), bulk)
		}
		if err := CheckFeasible(g, alloc); err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
	}
}

// Equal priorities preserve submission order (first-come-first-served
// for Greedy/ShortestPath; fair split for KPath).
func TestEqualPriorityKeepsSemantics(t *testing.T) {
	g, n := bottleneckLine()
	demands := []Demand{
		{Src: n[0], Dst: n[2], Volume: 100},
		{Src: n[1], Dst: n[2], Volume: 100},
	}
	alloc, err := Greedy{}.Allocate(g, demands)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Results[0].Shipped != 100 || alloc.Results[1].Shipped != 0 {
		t.Fatalf("greedy FCFS broken: %v, %v",
			alloc.Results[0].Shipped, alloc.Results[1].Shipped)
	}
	// KPath splits the bottleneck within the tier.
	kalloc, err := KPath{K: 2}.Allocate(g, demands)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(kalloc.Results[0].Shipped-kalloc.Results[1].Shipped) > 5 {
		t.Fatalf("k-path intra-tier fairness broken: %v vs %v",
			kalloc.Results[0].Shipped, kalloc.Results[1].Shipped)
	}
}

// KPath across tiers: the premium tier takes everything it wants
// before the bulk tier water-fills the leftovers.
func TestKPathTierPrecedence(t *testing.T) {
	g, n := bottleneckLine()
	demands := []Demand{
		{Src: n[1], Dst: n[2], Volume: 100, Priority: 1},
		{Src: n[0], Dst: n[2], Volume: 70, Priority: 0},
	}
	alloc, err := KPath{K: 2}.Allocate(g, demands)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Results[1].Shipped < 69.9 {
		t.Fatalf("premium tier shipped %v, want 70", alloc.Results[1].Shipped)
	}
	if alloc.Results[0].Shipped > 30.1 {
		t.Fatalf("bulk tier shipped %v of the remaining 30", alloc.Results[0].Shipped)
	}
}

// Results slice stays aligned with input order regardless of priority
// reordering.
func TestResultsAlignWithInputOrder(t *testing.T) {
	g, n := bottleneckLine()
	demands := []Demand{
		{Src: n[1], Dst: n[2], Volume: 10, Priority: 9},
		{Src: n[0], Dst: n[2], Volume: 20, Priority: 0},
	}
	for _, alg := range []Algorithm{ShortestPath{}, Greedy{}, KPath{}} {
		alloc, err := alg.Allocate(g, demands)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		for i := range demands {
			if alloc.Results[i].Demand != demands[i] {
				t.Fatalf("%s: result %d holds %+v", alg.Name(), i, alloc.Results[i].Demand)
			}
		}
	}
}

// insertionByPriority is the stable insertion sort byPriorityInto used
// to be: the order reference.
func insertionByPriority(demands []Demand) []int {
	idx := make([]int, len(demands))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && demands[idx[j]].Priority < demands[idx[j-1]].Priority; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

// TestByPriorityMatchesInsertionSort: same order as the insertion sort
// on random mixed-priority inputs, reusing one buffer as the allocators
// do.
func TestByPriorityMatchesInsertionSort(t *testing.T) {
	r := rng.New(0x5027)
	var buf []int
	for trial := 0; trial < 300; trial++ {
		demands := make([]Demand, r.Intn(200))
		classes := 1 + r.Intn(6)
		for i := range demands {
			demands[i].Priority = r.Intn(classes) - 2
		}
		buf = byPriorityInto(buf[:0], demands)
		if want := insertionByPriority(demands); !slices.Equal(buf, want) {
			t.Fatalf("trial %d: order %v, want %v", trial, buf, want)
		}
	}
}

// TestByPriorityIsNotQuadratic: continental:4096 keeps 16 384 demands.
// In reverse priority order the insertion sort did n²/2 swaps per
// Allocate (hundreds of ms); a merge sort costs a small multiple of the
// already-sorted case. Each side is the fastest of three runs so a
// stall of the machine does not decide the outcome.
func TestByPriorityIsNotQuadratic(t *testing.T) {
	const n = 16384
	sorted, reversed := make([]Demand, n), make([]Demand, n)
	for i := range sorted {
		sorted[i].Priority, reversed[i].Priority = i, n-i
	}
	buf := make([]int, 0, n)
	fastest := func(demands []Demand) time.Duration {
		best := time.Duration(math.MaxInt64)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			buf = byPriorityInto(buf[:0], demands)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	base, rev := fastest(sorted), fastest(reversed)
	if buf[0] != n-1 || buf[n-1] != 0 {
		t.Fatalf("reversed input not reversed: first %d last %d", buf[0], buf[n-1])
	}
	if base < 100*time.Microsecond {
		base = 100 * time.Microsecond
	}
	t.Logf("n=%d sorted %v reversed %v", n, base, rev)
	if rev > 64*base {
		t.Fatalf("reversed priorities took %v, more than 64x the sorted case (%v): quadratic", rev, base)
	}
}
