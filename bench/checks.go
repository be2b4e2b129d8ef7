package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/obs/flight"
	"repro/internal/wan"
)

// planes are the artifact flags rwc-wansim and rwc-wansimd share, in
// flush order.
var planes = []struct{ name, flag, file string }{
	{"metrics", "-metrics-out", "metrics.prom"},
	{"trace", "-trace-out", "trace.jsonl"},
	{"manifest", "-manifest-out", "manifest.json"},
	{"hist", "-hist-out", "run.hist"},
	{"flight", "-flight-out", "run.flight"},
}

// artifactArgs returns the flags that switch the named planes on,
// writing into dir.
func artifactArgs(dir string, names ...string) []string {
	var args []string
	for _, p := range planes {
		for _, n := range names {
			if n == p.name {
				args = append(args, p.flag, filepath.Join(dir, p.file))
			}
		}
	}
	return args
}

var allPlanes = []string{"metrics", "trace", "manifest", "hist", "flight"}

func artifact(dir, name string) string {
	for _, p := range planes {
		if p.name == name {
			return filepath.Join(dir, p.file)
		}
	}
	return ""
}

func fileSize(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}

// verifyArtifacts has rwc-replay re-render the metrics and trace from
// the flight log alone and compare them with what the run wrote, which
// also verifies every frame's state hash.
func (e *env) verifyArtifacts(ctx context.Context, dir string) error {
	_, err := e.run(ctx, "rwc-replay", "replay", artifact(dir, "flight"),
		"-verify-metrics", artifact(dir, "metrics"), "-verify-trace", artifact(dir, "trace"))
	return err
}

// flightSummary is what the harness reads out of a flight log.
type flightSummary struct {
	// dynamicRounds counts the dynamic policy's frames: the rounds it
	// completed.
	dynamicRounds int
	// shippedFrac is the dynamic policy's mean shipped/offered.
	shippedFrac float64
}

// checkFlight reads a flight log and checks, for the dynamic policy,
// each round's output (0 < shipped ≤ offered) and the paper's safety
// invariant: no link is ever configured above what its SNR can carry.
func checkFlight(path string) (flightSummary, error) {
	var s flightSummary
	f, err := os.Open(path)
	if err != nil {
		return s, err
	}
	defer f.Close()
	log, err := flight.ReadLog(f)
	if err != nil {
		return s, fmt.Errorf("%s: %v", path, err)
	}
	dynamic := wan.PolicyDynamic.String()
	var fracSum float64
	for _, fr := range log.Frames {
		if fr.Policy != dynamic {
			continue
		}
		s.dynamicRounds++
		if !(fr.ShippedGbps > 0 && fr.ShippedGbps <= fr.OfferedGbps*(1+1e-9)) {
			return s, fmt.Errorf("%s: round %d shipped %v Gbps of %v offered", path, fr.Round, fr.ShippedGbps, fr.OfferedGbps)
		}
		fracSum += fr.ShippedGbps / fr.OfferedGbps
		for _, l := range fr.Links {
			if l.CapacityGbps > l.FeasibleGbps {
				return s, fmt.Errorf("%s: round %d link %d configured at %v Gbps, feasible %v", path, fr.Round, l.LinkIndex, l.CapacityGbps, l.FeasibleGbps)
			}
		}
	}
	if s.dynamicRounds == 0 {
		return s, fmt.Errorf("%s: no dynamic-policy frames", path)
	}
	s.shippedFrac = fracSum / float64(s.dynamicRounds)
	return s, nil
}
