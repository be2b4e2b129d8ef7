package experiments

// History parity at the figure layer: with a metrics-history store
// attached to the experiment bundle, Options.Workers must not change
// the archived bytes — figure children record into per-child shards
// and the canonical merge erases the fan-out topology.

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/hist"
)

func TestFigureHistoryWorkersParity(t *testing.T) {
	archive := func(workers int) []byte {
		o := QuickOptions()
		o.Workers = workers
		bundle := obs.New()
		st := hist.New(hist.Options{Tool: "experiments-test", Seed: o.Seed})
		bundle.Metrics.SetHistory(st.Root().Bind(bundle.Clock))
		o.Obs = bundle
		if _, err := ThroughputGains(o); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := st.Archive().WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	w1, w3 := archive(1), archive(3)
	if len(w1) == 0 {
		t.Fatal("empty history archive")
	}
	if !bytes.Equal(w1, w3) {
		a, _ := hist.ReadArchive(bytes.NewReader(w1))
		b, _ := hist.ReadArchive(bytes.NewReader(w3))
		t.Fatalf("figure history differs between workers 1 and 3:\n%v", hist.Diff(a, b))
	}
}
