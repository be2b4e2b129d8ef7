// Fixture: seriesname — registration sites outside the obs core must
// use literal snake_case names, and one name must mean one series:
// same-name re-registration with a different kind or help is flagged
// by the module-wide Finish pass at the later site.
package seriesuse

import obs "seriesobs/internal/obs"

const snrName = "wan_snr_min_db"

func register(r *obs.Registry, tr *obs.Tracer) {
	r.Counter("frames_total", "frames emitted this run")
	r.Counter(snrName, "minimum SNR observed, dB")
	r.Histogram("rtt_ms", "round trip time, ms")
	r.Gauge("queue_depth", "packets queued")
	r.Gauge("queue_depth", "packets queued") // get-or-create: identical re-registration is legal
	r.Gauge("QueueDepth", "camel case")      // want `metric name "QueueDepth" is not snake_case`
	r.Counter(dynamicName(), "x")            // want `must be a compile-time constant`
	r.Counter("mode_flips", "count of mode transitions")
	r.Gauge("mode_flips", "current mode") // want `re-registered as gauge; first registered as counter`
	r.Counter("drops_total", "packets dropped")
	r.Counter("drops_total", "frames dropped") // want `conflicting help text`
	tr.Event("wan.round")
	tr.Event("alert.fire")
	tr.Event("Wan.Round")     // want `not dot-separated snake_case`
	tr.Event(dynamicName()) // want `must be a compile-time constant`
}

func dynamicName() string { return "x" }

// Registration is the cold path: a write in the same expression pays it
// every time. Registering alone, and writing through a held handle, are
// the two halves done right.
func perRound(r *obs.Registry, depth *obs.Gauge) {
	r.Gauge("queue_depth", "packets queued").Set(1)              // want `gauge registered and written in one expression`
	r.Counter("frames_total", "frames emitted this run").Inc()   // want `counter registered and written in one expression`
	r.Counter("frames_total", "frames emitted this run").Add(2)  // want `hold the handle and call Add on it`
	(r.Histogram("rtt_ms", "round trip time, ms")).Observe(0.25) // want `histogram registered and written in one expression`
	h := r.Histogram("rtt_ms", "round trip time, ms")
	h.Observe(0.5)
	depth.Set(3)
}

var rules = []obs.Rule{
	{Name: "snr_floor", Expr: "wan_snr_min_db < 10"},
	{Name: "SNR-Floor", Expr: "x"},  // want `alert rule name "SNR-Floor" is not snake_case`
	{Name: ruleName(), Expr: "x"}, // want `alert rule name must be a compile-time constant`
}

func ruleName() string { return "y" }
