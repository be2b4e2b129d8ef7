package te

import "repro/internal/graph"

// BoundsRef is boundsRef for the external tests, which may import the
// packages that import te (internal/wan builds the continental graphs).
var BoundsRef = boundsRef

// CertifiedAllocate runs the GK loop without paths, as the WAN round
// does, and also returns λ and the dual bound of the lengths it ended
// with.
func CertifiedAllocate(m MaxConcurrent, g *graph.Graph, demands []Demand) (*Allocation, float64, float64, error) {
	a, lambda, length, err := m.allocate(g, demands, false)
	if err != nil {
		return nil, 0, 0, err
	}
	return a, lambda, dualBound(g, demands, length), nil
}
