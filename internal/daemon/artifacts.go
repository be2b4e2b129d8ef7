package daemon

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/hist"
	"repro/internal/obs/perf"
	"repro/internal/wan"
)

// Artifacts is the set of observability output paths plus the flight
// meta, flushed once at shutdown. This is the single flush
// implementation of rwc-wansim and rwc-wansimd: the write order is
// canonical — metrics, trace, manifest, hist, flight, perf — because
// the flight trailer embeds the final metrics/trace state and the perf
// artifact copies the final rwc_work_* totals, so those two must go
// last.
type Artifacts struct {
	MetricsOut  string
	TraceOut    string
	ManifestOut string
	HistOut     string
	FlightOut   string
	PerfOut     string
	// FlightMeta stamps the flight log header (tool, seed).
	FlightMeta flight.Meta
	// Manifest is the run record ManifestOut receives (tool, seed,
	// every flag value). A pointer, because it holds a map and Build
	// compares Artifacts with ==.
	Manifest *obs.Manifest
}

// writeFile writes one artifact, propagating the first error.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Flush writes every configured artifact.
// Safe under a nil bundle (writes nothing) and with any subset of
// subsystems enabled. Called exactly once, after the last round has
// drained — which is why a mid-round SIGTERM can never leave a
// truncated RWCFLT4/RWCHIST1 on disk: the flush only starts after the
// in-flight round completes. One artifact failing to write does not
// cost the run the others: every configured artifact is attempted, and
// the returned error joins what failed.
func (a Artifacts) Flush(o *obs.Obs, histStore *hist.Store, recorder *flight.Recorder, perfRec *perf.Recorder) error {
	if o == nil {
		return nil
	}
	var errs []error
	write := func(path string, w func(*os.File) error) {
		if path != "" {
			errs = append(errs, writeFile(path, w))
		}
	}
	// The metrics and trace are rendered once, into memory: -metrics-out,
	// -trace-out and the flight trailer hold the same bytes, and each
	// file takes one write.
	var tr flight.Trailer
	var trErr error
	if a.MetricsOut != "" || a.TraceOut != "" || recorder != nil && a.FlightOut != "" {
		tr, trErr = flight.TrailerOf(o)
	}
	if trErr != nil {
		// A trace that does not render leaves nothing true to write to
		// -trace-out or the flight trailer; the metrics still go out.
		errs = append(errs, trErr)
	}
	if a.MetricsOut != "" {
		errs = append(errs, os.WriteFile(a.MetricsOut, tr.Metrics, 0o666))
	}
	if a.TraceOut != "" && trErr == nil {
		errs = append(errs, os.WriteFile(a.TraceOut, tr.Trace, 0o666))
	}
	write(a.ManifestOut, func(f *os.File) error { return a.Manifest.WriteJSON(f) })
	if histStore != nil {
		write(a.HistOut, func(f *os.File) error { return histStore.Archive().WriteBinary(f) })
	}
	// Written after the artifacts above so the trailer embeds their
	// final state — that's what lets `rwc-replay replay` regenerate
	// them byte-identically from the log alone.
	if recorder != nil && trErr == nil {
		write(a.FlightOut, func(f *os.File) error { return recorder.WriteLog(f, a.FlightMeta, tr) })
	}
	// The perf artifact is written last: its Work section copies the
	// final rwc_work_* totals out of the deterministic registry.
	if perfRec != nil {
		write(a.PerfOut, func(f *os.File) error {
			return perfRec.WriteJSON(f, perf.FilterWork(o.Metrics.Totals()))
		})
	}
	return errors.Join(errs...)
}

// printRunHeader writes the run's comment header and CSV column line.
// One header per config generation.
func printRunHeader(w io.Writer, p Params, net *wan.Network) {
	fmt.Fprintf(w, "# topology=%s nodes=%d fibers=%d wavelengths=%d rounds=%d demand=%.2fx seed=%d\n",
		p.Topology, net.G.NumNodes(), net.NumFibers, p.Wavelengths, p.Rounds, demandFraction, p.Seed)
	fmt.Fprintln(w, "policy,round,offered_gbps,shipped_gbps,satisfied,capacity_gbps,changes,dark_links,disrupted_gbps_sec")
}

// printResults writes per-round CSV rows and the per-policy summary
// comment.
func printResults(w io.Writer, policies []wan.Policy, results []*wan.Result) {
	for i, p := range policies {
		res := results[i]
		for _, m := range res.Rounds {
			fmt.Fprintf(w, "%s,%d,%.1f,%.1f,%.4f,%.0f,%d,%d,%.1f\n",
				p, m.Round, m.OfferedGbps, m.ShippedGbps, m.SatisfiedFraction(),
				m.CapacityGbps, m.Changes, m.LinksDark, m.DisruptedGbpsSec)
		}
		dark := 0
		var disrupted float64
		for _, m := range res.Rounds {
			dark += m.LinksDark
			disrupted += m.DisruptedGbpsSec
		}
		fmt.Fprintf(w, "# %s summary: mean_satisfied=%.4f total_shipped=%.0f changes=%d dark_link_rounds=%d disrupted_gbps_sec=%.0f\n",
			p, res.MeanSatisfied(), res.TotalShipped(), res.TotalChanges(), dark, disrupted)
	}
}
