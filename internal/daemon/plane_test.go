package daemon

import "testing"

// TestPlaneBuiltOnlyWhenConsumed: the bundle exists iff an artifact
// path or -serve asks for it, so a plain run records nothing.
func TestPlaneBuiltOnlyWhenConsumed(t *testing.T) {
	idle := Plane{}
	b := idle.Build("t", 1)
	if b.Obs != nil || b.Flight != nil || b.Hist != nil || b.Perf != nil {
		t.Fatalf("idle plane built subsystems: %+v", b)
	}
	if err := b.Flush(); err != nil {
		t.Fatalf("idle bundle flush: %v", err)
	}
	for name, set := range map[string]func(*Plane){
		"-metrics-out": func(p *Plane) { p.MetricsOut = "m" },
		"-perf-out":    func(p *Plane) { p.PerfOut = "p" },
		"-serve":       func(p *Plane) { p.Serve = "127.0.0.1:0" },
	} {
		p := idle
		set(&p)
		if p.Build("t", 1).Obs == nil {
			t.Errorf("%s did not enable the bundle", name)
		}
	}
}
