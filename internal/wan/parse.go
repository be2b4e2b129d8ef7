package wan

import (
	"fmt"

	"repro/internal/te"
)

// ParsePolicies is the single validation path for policy selection
// flags and daemon config fields: "static100", "staticmax", "dynamic",
// or "all" (every policy, in canonical order). Sharing it between
// rwc-wansim, rwc-wansimd, and the daemon's reload validation keeps
// "what is a valid policy" answered in exactly one place.
func ParsePolicies(name string) ([]Policy, error) {
	switch name {
	case "all":
		return []Policy{PolicyStatic100, PolicyStaticMax, PolicyDynamic}, nil
	case "static100":
		return []Policy{PolicyStatic100}, nil
	case "staticmax":
		return []Policy{PolicyStaticMax}, nil
	case "dynamic":
		return []Policy{PolicyDynamic}, nil
	default:
		return nil, fmt.Errorf("unknown policy %q (static100, staticmax, dynamic, all)", name)
	}
}

// ParseTE is the single validation path for TE algorithm selection.
// Empty and "greedy" select the simulation default (nil: the round
// loop warm-starts te.Greedy itself).
func ParseTE(name string) (te.Algorithm, error) {
	switch name {
	case "", "greedy":
		return nil, nil
	case "shortest-path":
		return te.ShortestPath{}, nil
	case "kpath":
		return te.KPath{}, nil
	case "maxconcurrent":
		return te.MaxConcurrent{}, nil
	default:
		return nil, fmt.Errorf("unknown TE algorithm %q (greedy, shortest-path, kpath, maxconcurrent)", name)
	}
}
