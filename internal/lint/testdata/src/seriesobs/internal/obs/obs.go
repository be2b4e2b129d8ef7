// Fixture: a minimal stand-in for the module's internal/obs package.
// Its import path ends in internal/obs, so seriesname treats methods
// on these types as registration sites at callers — while this
// package itself is exempt (the core wrappers legitimately forward
// caller-supplied names).
package obs

type Registry struct{}

func (r *Registry) Counter(name, help string) *Counter     { return &Counter{} }
func (r *Registry) Gauge(name, help string) *Gauge         { return &Gauge{} }
func (r *Registry) Histogram(name, help string) *Histogram { return &Histogram{} }

type Counter struct{}

func (c *Counter) Add(v float64) {}
func (c *Counter) Inc()          {}

type Gauge struct{}

func (g *Gauge) Set(v float64) {}

type Histogram struct{}

func (h *Histogram) Observe(v float64) {}

type Tracer struct{}

func (t *Tracer) Event(name string) {}

// Rule mirrors the alert engine's rule literal shape.
type Rule struct {
	Name string
	Expr string
}

// forward proves the exemption: the core package may pass dynamic
// names through without a diagnostic.
func forward(r *Registry, name string) *Counter {
	return r.Counter(name, "")
}
