package te

import "repro/internal/graph"

// BoundsRef is boundsRef for the external tests, which may import the
// packages that import te (internal/wan builds the continental graphs).
var BoundsRef = boundsRef

// GKEpsilon is the ε every MaxConcurrent run uses.
const GKEpsilon = gkEpsilon

// CertifiedAllocate runs the GK loop without paths, as the WAN round
// does, and also returns λ and the dual bound of the lengths it ended
// with.
func CertifiedAllocate(g *graph.Graph, demands []Demand) (*Allocation, float64, float64, error) {
	a, lambda, length, err := MaxConcurrent{}.allocate(g, demands, gkEpsilon, false)
	if err != nil {
		return nil, 0, 0, err
	}
	return a, lambda, dualBound(g, demands, length), nil
}

// allocateEps is MaxConcurrent.Allocate at approximation parameter eps,
// which only the tests vary.
func allocateEps(eps float64, g *graph.Graph, demands []Demand) (*Allocation, error) {
	a, _, _, err := MaxConcurrent{}.allocate(g, demands, eps, true)
	return a, err
}
