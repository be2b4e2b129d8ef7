package te

import "repro/internal/graph"

// BoundsRef is boundsRef for the external tests, which may import the
// packages that import te (internal/wan builds the continental graphs).
var BoundsRef = boundsRef

// GKEpsilon is the ε every MaxConcurrent run uses.
const GKEpsilon = gkEpsilon

// CertifiedAllocate runs the GK loop and also returns λ and the dual
// bound of the lengths it ended with.
func CertifiedAllocate(g *graph.Graph, demands []Demand) (*Allocation, float64, float64, error) {
	a, lambda, length, err := MaxConcurrent{}.allocate(g, demands, gkEpsilon)
	if err != nil {
		return nil, 0, 0, err
	}
	return a, lambda, dualBound(g, demands, length), nil
}

// allocateEps is MaxConcurrent.Allocate at approximation parameter eps,
// which only the tests vary.
func allocateEps(eps float64, g *graph.Graph, demands []Demand) (*Allocation, error) {
	a, _, _, err := MaxConcurrent{}.allocate(g, demands, eps)
	return a, err
}

// CheckCertificate is checkCertificate at ε = gkEpsilon for the
// external tests. It returns the allocation, its λ, the dual bound on
// the returned lengths, and whether the run ended on D ≥ 1.
func CheckCertificate(g *graph.Graph, demands []Demand) (a *Allocation, lambda, bound float64, byDual bool, err error) {
	c, err := checkCertificate(gkEpsilon, g, demands)
	return c.alloc, c.lambda, c.bound(), c.byDual, err
}

// CheckScreen is checkScreen at ε = gkEpsilon for the external tests.
func CheckScreen(g *graph.Graph, demands []Demand) (*Allocation, error) {
	return checkScreen(gkEpsilon, g, demands)
}

// CheckKPathWaterFill is checkKPathWaterFill for the external tests.
var CheckKPathWaterFill = checkKPathWaterFill
