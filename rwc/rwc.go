// Package rwc is the public API of the Run-Walk-Crawl reproduction: a
// library for operating wide-area networks with dynamic (SNR-adaptive)
// link capacities, after Singh et al., "Run, Walk, Crawl: Towards
// Dynamic Link Capacities", HotNets 2017.
//
// The core idea: a physical link's SNR usually supports far more than
// its statically configured capacity. Rather than teaching every
// traffic-engineering (TE) controller about the optical layer, the
// library augments the IP topology with one *fake link* per upgradable
// physical link, annotated ⟨extra capacity, penalty⟩. Any TE algorithm
// run unmodified on the augmented graph produces a flow whose fake-link
// usage *is* the set of modulation upgrades to perform (Theorem 1).
//
// Typical use:
//
//	g := rwc.NewGraph()
//	a, b := g.AddNode("A"), g.AddNode("B")
//	link := g.AddEdge(rwc.Edge{From: a, To: b, Capacity: 100, Weight: 1})
//
//	top := rwc.NewTopology(g)
//	top.SetUpgrade(link, 100, 50) // +100 Gbps available at penalty 50
//
//	aug, _ := rwc.Augment(top, rwc.PenaltyFromMatrix)
//	alloc, _ := rwc.Greedy{}.Allocate(aug.Graph, []rwc.Demand{{Src: a, Dst: b, Volume: 150}})
//	dec, _ := aug.Translate(rwc.FlowResult{Value: alloc.Throughput, EdgeFlow: alloc.EdgeFlow})
//	for _, ch := range dec.Changes {
//	    fmt.Printf("raise link %d: %v -> %v Gbps\n", ch.Edge, ch.OldCapacity, ch.NewCapacity)
//	}
//
// Sub-surfaces re-exported here:
//
//   - graph construction and flow algorithms (max-flow, min-cost
//     max-flow, k-shortest paths);
//   - the augmentation (Augment, Translate, UnsplittableGadget,
//     RemoveInfeasible) and penalty functions;
//   - TE algorithms (ShortestPath, Greedy, KPath, MaxConcurrent);
//   - the modulation ladder and SNR feasibility logic;
//   - the BVT reconfiguration model (power-cycle vs hitless changes).
//
// The measurement-study substrate (synthetic SNR fleet, failure
// tickets) and the experiment harness live in internal packages and are
// reachable through the cmd/ tools.
package rwc

import (
	"repro/internal/bvt"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/modulation"
	"repro/internal/te"
)

// Graph construction and flow machinery.
type (
	// Graph is a directed multigraph with per-edge capacity, cost and
	// routing weight.
	Graph = graph.Graph
	// NodeID identifies a vertex.
	NodeID = graph.NodeID
	// EdgeID identifies a directed edge.
	EdgeID = graph.EdgeID
	// Edge is one directed edge.
	Edge = graph.Edge
	// Path is a walk through the graph.
	Path = graph.Path
	// FlowResult is the outcome of a flow computation.
	FlowResult = graph.FlowResult
)

// NewGraph returns an empty graph.
func NewGraph() *Graph { return graph.New() }

// Sentinel IDs.
const (
	NoNode = graph.NoNode
	NoEdge = graph.NoEdge
)

// The abstraction (the paper's contribution).
type (
	// Topology is the TE input G⟨V,E,U,P⟩: graph plus upgrade matrices.
	Topology = core.Topology
	// Upgrade is one link's dynamic-capacity headroom and penalty.
	Upgrade = core.Upgrade
	// Augmentation is Algorithm 1's output with translation state.
	Augmentation = core.Augmentation
	// Decision is the translated TE output: capacity changes + flows.
	Decision = core.Decision
	// CapacityChange is one instructed modulation upgrade.
	CapacityChange = core.CapacityChange
	// PenaltyFunc maps link state to augmentation edge costs.
	PenaltyFunc = core.PenaltyFunc
	// Theorem1Report is the evidence of the equivalence theorem.
	Theorem1Report = core.Theorem1Report
)

// NewTopology wraps a graph with empty upgrade annotations.
func NewTopology(g *Graph) *Topology { return core.NewTopology(g) }

// Augment implements Algorithm 1: one fake link per upgradable edge.
func Augment(t *Topology, p PenaltyFunc) (*Augmentation, error) { return core.Augment(t, p) }

// CheckTheorem1 verifies min-cost max-flow on G′ ≡ max-flow on G with
// dynamic capacities for one commodity.
func CheckTheorem1(t *Topology, src, dst NodeID, p PenaltyFunc) (Theorem1Report, error) {
	return core.CheckTheorem1(t, src, dst, p)
}

// Penalty functions.
var (
	// PenaltyFromMatrix charges each fake link its configured penalty
	// (Algorithm 1 verbatim).
	PenaltyFromMatrix PenaltyFunc = core.PenaltyFromMatrix
	// PenaltyTrafficProportional charges by current link traffic (the
	// paper's suggested default).
	PenaltyTrafficProportional PenaltyFunc = core.PenaltyTrafficProportional
	// PenaltyUnitWeights is the short-paths mode of Figure 7c.
	PenaltyUnitWeights PenaltyFunc = core.PenaltyUnitWeights
)

// Traffic engineering.
type (
	// Demand is one commodity.
	Demand = te.Demand
	// Allocation is a TE run's output.
	Allocation = te.Allocation
	// DemandResult is the per-demand slice of an allocation.
	DemandResult = te.DemandResult
	// Algorithm is a TE scheme; all implementations treat the graph as
	// opaque, which is what lets them run unmodified on augmented
	// topologies.
	Algorithm = te.Algorithm
	// ShortestPath is single-shortest-path (OSPF-like) routing.
	ShortestPath = te.ShortestPath
	// Greedy is sequential min-cost flow per demand.
	Greedy = te.Greedy
	// KPath is SWAN-like k-shortest-path water-filling.
	KPath = te.KPath
	// MaxConcurrent is the Garg–Könemann max concurrent flow FPTAS.
	MaxConcurrent = te.MaxConcurrent
)

// CheckFeasible validates an allocation against a graph's capacities.
func CheckFeasible(g *Graph, a *Allocation) error { return te.CheckFeasible(g, a) }

// Modulation / physical layer.
type (
	// Gbps is a capacity in gigabits per second.
	Gbps = modulation.Gbps
	// Mode is one rung of the modulation ladder.
	Mode = modulation.Mode
	// Ladder is the capacity ladder with SNR thresholds.
	Ladder = modulation.Ladder
)

// DefaultLadder is the paper-calibrated ladder: 3.0 dB → 50 Gbps,
// 6.5 dB → 100 Gbps, up to 15.5 dB → 200 Gbps.
func DefaultLadder() *Ladder { return modulation.Default() }

// Transceiver model.
type (
	// Transceiver is the simulated bandwidth variable transceiver.
	Transceiver = bvt.Transceiver
	// TransceiverConfig configures one.
	TransceiverConfig = bvt.Config
	// Driver programs modulation changes over MDIO.
	Driver = bvt.Driver
	// ChangeReport is one measured modulation change.
	ChangeReport = bvt.ChangeReport
	// Method selects power-cycle vs hitless reconfiguration.
	Method = bvt.Method
)

// Reconfiguration methods.
const (
	// MethodPowerCycle is today's firmware flow (~68 s downtime).
	MethodPowerCycle = bvt.MethodPowerCycle
	// MethodHot keeps the laser lit (~35 ms downtime).
	MethodHot = bvt.MethodHot
)

// NewTransceiver builds a simulated BVT.
func NewTransceiver(cfg TransceiverConfig) (*Transceiver, error) { return bvt.New(cfg) }

// NewDriver wraps a transceiver (or any MDIO device) for modulation
// programming.
func NewDriver(dev bvt.MDIO, l *Ladder) *Driver { return bvt.NewDriver(dev, l) }
