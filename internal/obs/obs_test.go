package obs

import (
	"testing"
	"time"
)

// TestNilObsIsFullyDisabled exercises every helper through a nil *Obs:
// the contract that lets instrumented packages call unconditionally.
func TestNilObsIsFullyDisabled(t *testing.T) {
	var o *Obs
	o.SetSimTime(time.Hour)
	o.Counter("c", "").Inc()
	o.Gauge("g", "").Set(1)
	o.Histogram("h", "", []float64{1}).Observe(1)
	o.Event("e", A("k", 1))
	var sc *SimClock
	sc.Set(time.Second)
	if sc.Now() != 0 {
		t.Fatal("nil SimClock not zero")
	}
}

func TestObsBundleEndToEnd(t *testing.T) {
	o := New()
	o.SetSimTime(30 * time.Minute)
	o.Counter("orders_total", "orders", L("kind", "upgrade")).Inc()
	o.Event("round", A("round", 0))
	o.Event("order", A("edge", 1))
	if got := o.Trace.Len(); got != 2 {
		t.Fatalf("trace has %d events, want 2", got)
	}
	evs := o.Trace.Events()
	if evs[0].T != 30*time.Minute {
		t.Fatalf("sim time not applied: %v", evs[0].T)
	}
	totals := o.Metrics.Totals()
	if totals[`orders_total{kind="upgrade"}`] != 1 {
		t.Fatalf("totals = %v", totals)
	}
}
