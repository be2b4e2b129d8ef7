package wan

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Continental generation bounds. The lower bound keeps the metro
// clustering meaningful; the upper bound keeps the O(n²) MST and
// gravity-traffic construction comfortably inside test budgets, and is
// RandomBackbone's ceiling too: gravity traffic is O(n²) for every
// topology.
const (
	minContinentalNodes = 16
	maxContinentalNodes = 4096
)

// Continental generates a paper-scale synthetic continental backbone:
// PoPs scattered around metro clusters on a ~5000×3000 km plane, wired
// as a Euclidean minimum spanning tree plus nearest-neighbour chords
// (≈1.5 average adjacency degree growth over the tree, matching the
// sparse mesh of real carrier maps). Link weights are IGP metrics equal
// to the great-circle-ish distance in 100 km units — exactly the
// convention Abilene/USBackbone use — so LengthAware mode derives
// length-realistic SNR baselines: a 3000 km express span gets a lower
// QoT baseline, and hence less upgrade headroom, than a 200 km metro
// hop.
//
// The same (nodes, wavelengths, seed) triple always yields the same
// network, byte for byte: all randomness comes from one seeded source
// with a fixed draw order.
func Continental(nodes, wavelengths int, seed uint64) (*Network, error) {
	if nodes < minContinentalNodes || nodes > maxContinentalNodes {
		return nil, fmt.Errorf("wan: continental backbone needs %d..%d nodes, got %d",
			minContinentalNodes, maxContinentalNodes, nodes)
	}
	if wavelengths <= 0 {
		return nil, fmt.Errorf("wan: need >= 1 wavelength per fiber, got %d", wavelengths)
	}
	r := rng.New(seed)

	// Metro cluster centres, then PoPs scattered around them. Every PoP
	// draws its coordinates in node order (fixed draw order ⇒ stable
	// topology per seed).
	kMetros := nodes/16 + 4
	cx := make([]float64, kMetros)
	cy := make([]float64, kMetros)
	for m := 0; m < kMetros; m++ {
		cx[m] = r.Uniform(0, 5000)
		cy[m] = r.Uniform(0, 3000)
	}
	x := make([]float64, nodes)
	y := make([]float64, nodes)
	g := graph.New()
	for i := 0; i < nodes; i++ {
		m := i % kMetros
		x[i] = cx[m] + r.NormFloat64()*120
		y[i] = cy[m] + r.NormFloat64()*120
		g.AddNode(fmt.Sprintf("pop%03d", i))
	}
	dist := func(i, j int) float64 {
		return math.Hypot(x[i]-x[j], y[i]-y[j])
	}
	// IGP weight convention: distance in 100 km units, floored at 50 km
	// so co-located PoPs still cost something to traverse.
	igpWeight := func(i, j int) float64 {
		d := dist(i, j)
		if d < 50 {
			d = 50
		}
		return d / 100
	}

	b := &builder{g: g}
	// adj lists each node's neighbours; a Euclidean MST's degrees are
	// small, so a scan of one list beats hashing every pair.
	adj := make([][]int, nodes)
	linked := func(u, v int) bool {
		return slices.Contains(adj[u], v)
	}
	addAdj := func(u, v int) bool {
		if u == v || linked(u, v) {
			return false
		}
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
		b.link(graph.NodeID(u), graph.NodeID(v), igpWeight(u, v))
		return true
	}

	// Euclidean MST (Prim, O(n²)) guarantees connectivity with
	// distance-realistic links.
	inTree := make([]bool, nodes)
	best := make([]float64, nodes)
	bestFrom := make([]int, nodes)
	for i := range best {
		best[i] = math.Inf(1)
	}
	inTree[0] = true
	for j := 1; j < nodes; j++ {
		best[j] = dist(0, j)
		bestFrom[j] = 0
	}
	for added := 1; added < nodes; added++ {
		pick := -1
		for j := 0; j < nodes; j++ {
			if !inTree[j] && (pick < 0 || best[j] < best[pick]) {
				pick = j
			}
		}
		inTree[pick] = true
		addAdj(bestFrom[pick], pick)
		for j := 0; j < nodes; j++ {
			if !inTree[j] {
				if d := dist(pick, j); d < best[j] {
					best[j] = d
					bestFrom[j] = pick
				}
			}
		}
	}

	// Chords: give each node (scanned in order) a link to its nearest
	// non-adjacent neighbour until nodes/2 chords exist. This breaks the
	// tree's single points of failure the way real backbones ring their
	// regions.
	chords := 0
	for i := 0; i < nodes && chords < nodes/2; i++ {
		pick, pd := -1, math.Inf(1)
		for j := 0; j < nodes; j++ {
			if j == i || linked(i, j) {
				continue
			}
			if d := dist(i, j); d < pd {
				pick, pd = j, d
			}
		}
		if pick >= 0 && addAdj(i, pick) {
			chords++
		}
	}

	weights := make([]float64, nodes)
	for i := range weights {
		weights[i] = r.LogNormal(1, 0.8)
	}
	return &Network{
		G: g, FiberOf: b.fiberOf, NumFibers: b.fibers,
		Wavelengths: wavelengths, NodeWeights: weights,
	}, nil
}

// ParseTopology resolves a CLI topology spec into a network:
//
//	abilene          11-node Abilene research backbone
//	us               25-node synthetic US carrier backbone
//	random           20-node random backbone (14 chords)
//	random:N         N-node random backbone (N/2 chords), 4 <= N <= 4096
//	continental:N    N-node continental backbone (paper scale)
//
// The wavelength count is validated here — once, for every topology —
// so both CLIs reject degenerate configurations identically instead of
// failing deep inside a simulation round.
func ParseTopology(spec string, wavelengths int, seed uint64) (*Network, error) {
	if wavelengths <= 0 {
		return nil, fmt.Errorf("wan: need >= 1 wavelength per fiber, got %d", wavelengths)
	}
	name, arg, hasArg := strings.Cut(spec, ":")
	// A node count is written one way only (no sign, no leading zero),
	// so one network has one spec and the manifest records it once.
	parseN := func(what string) (int, error) {
		n, err := strconv.Atoi(arg)
		if err != nil || n <= 0 || strconv.Itoa(n) != arg {
			return 0, fmt.Errorf("wan: bad %s node count %q", what, arg)
		}
		return n, nil
	}
	switch name {
	case "abilene":
		if hasArg {
			return nil, fmt.Errorf("wan: topology %q takes no argument", name)
		}
		return Abilene(wavelengths), nil
	case "us":
		if hasArg {
			return nil, fmt.Errorf("wan: topology %q takes no argument", name)
		}
		return USBackbone(wavelengths), nil
	case "random":
		if !hasArg {
			return RandomBackbone(20, 14, wavelengths, seed)
		}
		n, err := parseN("random")
		if err != nil {
			return nil, err
		}
		return RandomBackbone(n, n/2, wavelengths, seed)
	case "continental":
		if arg == "" {
			return nil, fmt.Errorf("wan: topology continental needs a node count, e.g. continental:200")
		}
		n, err := parseN("continental")
		if err != nil {
			return nil, err
		}
		return Continental(n, wavelengths, seed)
	default:
		return nil, fmt.Errorf("wan: unknown topology %q (want abilene, us, random[:N], or continental:N)", spec)
	}
}
