package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	// A percentile needs at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{19, 0.50, false}, {20, 0.50, true},
		{100, 0.90, true}, {100, 0.95, false},
		{200, 0.95, true}, {999, 0.99, false}, {1000, 0.99, true},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false}, {20, 0.50, true}, {150, 0.90, true}, {329, 0.95, true}, {1500, 0.99, true}, {10000, 0.999, true},
	} {
		got, ok := highestSupported(c.n)
		if ok != c.ok || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("highestSupported(%d) = %v, %v, want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	var s []float64
	for i := 1; i <= 200; i++ {
		s = append(s, float64(i))
	}
	if got := percentile(s, 0.95); math.Abs(got-190) > 1e-12 {
		t.Errorf("p95 of 1..200 = %v, want 190 (nearest rank)", got)
	}
	o := newOutcome()
	o.tail("few", s[:50], 0.95)
	o.tail("enough", s, 0.95)
	if o.metrics["few"].v != 0 || math.Abs(o.metrics["enough"].v-190) > 1e-12 {
		t.Errorf("tail: few = %v (want 0: unsupported), enough = %v (want 190)", o.metrics["few"].v, o.metrics["enough"].v)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for these inputs.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 10}, 1, 10},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (5.25-1.75)/3.5 = 1", got)
	}
}

func TestQuietTakesTheFastestReadingOfEachRound(t *testing.T) {
	// Three repeats of a three-round budget; a slow phase hits a
	// different round in each.
	got := quiet([]float64{10, 90, 30}, []float64{50, 20, 30.5}, []float64{10.5, 21, 70})
	if math.Abs(got-(10+20+30)) > 1e-12 {
		t.Errorf("quiet = %v, want 60", got)
	}
	if got := quiet([]float64{7}, []float64{5}, []float64{6}); math.Abs(got-5) > 1e-12 {
		t.Errorf("quiet over single readings = %v, want the fastest, 5", got)
	}
}

func TestAACompare(t *testing.T) {
	r := aaRow{Metric: "rounds_per_s", Better: higher, Bound: 0.10,
		Values: [2][]float64{{100, 101, 99, 100, 102}, {95, 96, 94, 95, 97}}}
	r.compare()
	if math.Abs(r.Worse-0.05) > 1e-12 || !r.OK {
		t.Errorf("5 %% slower inside a 10 %% bound: %+v", r)
	}
	r.Bound = 0.04
	r.compare()
	if r.OK {
		t.Errorf("5 %% slower passed a 4 %% bound: %+v", r)
	}
	// shipped_frac is a function of the seed: a loss on one seed counts
	// even when the medians and the bound would let it through.
	q := aaRow{Metric: "shipped_frac", Better: higher, Bound: 0.10,
		Values: [2][]float64{{0.50, 0.52, 0.54}, {0.50, 0.52, 0.52}}}
	q.compare()
	if q.OK || math.Abs(q.PairedWorse-0.02/0.54) > 1e-12 {
		t.Errorf("a 3.7 %% loss on one seed passed: %+v", q)
	}
}

// fakeClock advances only when told to.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopDueTimeAccounting(t *testing.T) {
	const period = 10 * time.Millisecond
	clk := &fakeClock{now: time.Unix(1000, 0)}
	// Request 1 stalls for 35 ms; the others take 2 ms.
	cost := []time.Duration{2, 35, 2, 2, 2, 2}
	got := openLoop(clk, clk.now, period, len(cost), time.Second, func(i int) bool {
		clk.Sleep(cost[i] * time.Millisecond)
		return i != 4
	})
	type row struct{ sent, lateness, latency time.Duration }
	want := []row{
		{0, 0, 2},    // on time
		{10, 0, 35},  // on time, slow
		{45, 25, 27}, // due at 20, waited behind the stall: charged from its due time
		{47, 17, 19}, // still catching up
		{49, 9, 11},
		{51, 1, 3},
	}
	for i, w := range want {
		s := got[i]
		if s.Due != time.Duration(i)*period || s.Sent != w.sent*time.Millisecond ||
			s.lateness() != w.lateness*time.Millisecond || s.latency() != w.latency*time.Millisecond {
			t.Errorf("request %d: due %v sent %v lateness %v latency %v, want sent %vms lateness %vms latency %vms",
				i, s.Due, s.Sent, s.lateness(), s.latency(), int64(w.sent), int64(w.lateness), int64(w.latency))
		}
		if s.OK != (i != 4) {
			t.Errorf("request %d: OK = %v", i, s.OK)
		}
	}

	// Past giveUp nothing more is sent; the unsent requests are failures.
	clk = &fakeClock{now: time.Unix(1000, 0)}
	sent := 0
	got = openLoop(clk, clk.now, period, 5, 25*time.Millisecond, func(int) bool {
		sent++
		clk.Sleep(30 * time.Millisecond)
		return true
	})
	if sent != 1 || len(got) != 5 || !got[0].OK || got[1].OK || got[4].OK {
		t.Errorf("give-up: sent %d, samples %+v", sent, got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "wan.round", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "te.allocate", Start: at(10), End: at(60)},
		{ID: 3, Parent: 1, Name: "overlaps-2", Start: at(50), End: at(70)}, // 10 ms already covered by span 2
		{ID: 4, Parent: 1, Name: "spills", Start: at(90), End: at(120)},    // clipped to the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: at(20), End: at(30)}, // counts against span 2 only
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: at(100 - 50 - 10 - 10), 2: at(40), 3: at(20), 4: at(30), 5: at(10)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	if got := named(spans, "te.allocate"); len(got) != 1 || got[0].ID != 2 {
		t.Errorf("named = %+v", got)
	}
}

func TestTracerRecordsParentAndRound(t *testing.T) {
	tr := newTracer("w")
	round := tr.begin("wan.round", 0, 7)
	alloc := tr.begin("te.allocate", round, 7)
	tr.end(alloc)
	tr.end(round)
	if tr.spans[1].Parent != round || tr.spans[1].Round != 7 || tr.spans[1].Workload != "w" {
		t.Errorf("child span = %+v", tr.spans[1])
	}
	if tr.spans[0].End < tr.spans[1].End || tr.spans[1].Start < tr.spans[0].Start {
		t.Errorf("child %+v not inside parent %+v", tr.spans[1], tr.spans[0])
	}
	dir := t.TempDir()
	if err := tr.writeJSONL(dir); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(dir + "/trace-w.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(b, []byte("\n")); n != 2 {
		t.Errorf("trace file has %d lines, want 2:\n%s", n, b)
	}
}

func loadTestCatalogue(t *testing.T) *catalogue {
	t.Helper()
	c, err := loadCatalogue("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBenchmarkJSON holds BENCHMARK.json, the single definition of the
// workloads and metrics, to the limits of its schema.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if keys[k] == nil {
			t.Errorf("key %q is missing", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("%d top-level keys, want exactly 6", len(keys))
	}
	c := loadTestCatalogue(t)

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]+ of at most 64", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	checkMetric := func(kind string, m metricDef) {
		check(kind, m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s %s: bad unit %q", kind, m.Name, m.Unit)
		}
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s %s: better = %q", kind, m.Name, m.Better)
		}
	}
	if len(c.Command) < 1 || len(c.Command) > 32 || len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("command %v, paths %v", c.Command, c.Paths)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", c.RunSeconds)
	}
	if len(c.Workloads) < 2 || len(c.Workloads) > 8 || len(c.Workloads) != len(runners) {
		t.Errorf("%d workloads, want 2..8 and one per runner (%d)", len(c.Workloads), len(runners))
	}
	for _, w := range c.Workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(c.EndToEnd) < 1 || len(c.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(c.EndToEnd))
	}
	setup, largest := metricDef{}, 0.0
	for _, m := range c.EndToEnd {
		checkMetric("end-to-end", m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		largest = math.Max(largest, m.Bound)
		if m.Name == "setup_s" {
			setup = m
		}
	}
	if setup.Unit != "s" || setup.Better != lower || setup.Bound < largest {
		t.Errorf("setup_s must be [s, lower] with the largest bound (%v): %+v", largest, setup)
	}
	if len(c.PerLayer) < 1 || len(c.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(c.PerLayer))
	}
	for _, m := range c.PerLayer {
		checkMetric("per-layer", m)
		if m.Bound != 0 {
			t.Errorf("per-layer %s has a bound", m.Name)
		}
	}
}

func TestReportPrintsExactlyTheContractKeys(t *testing.T) {
	cat := loadTestCatalogue(t)
	for _, trace := range []bool{false, true} {
		e := &env{workload: wlGreedy, seed: 1, seconds: 1, trace: trace, log: &bytes.Buffer{}, cat: cat}
		o := newOutcome()
		o.op(nil)
		for _, m := range cat.EndToEnd {
			o.set(m.Name, 2.5, 3)
		}
		var out bytes.Buffer
		line, err := e.report(&out, o)
		if err != nil || !line.Correct {
			t.Fatalf("report: %v, %+v", err, line)
		}
		var got map[string]json.RawMessage
		if err := json.Unmarshal(out.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
			t.Errorf("result line keys: %s", out.Bytes())
		}
		want := len(cat.EndToEnd)
		if trace {
			want = len(cat.PerLayer)
		}
		if len(line.Metrics) != want {
			t.Errorf("trace %v: %d metrics in the result line, want %d", trace, len(line.Metrics), want)
		}
	}
	o := newOutcome()
	o.op(nil)
	o.op(os.ErrNotExist)
	e := &env{log: &bytes.Buffer{}, cat: cat, trace: true}
	if line, _ := e.report(&bytes.Buffer{}, o); line.Correct || line.Failed != 1 || line.Attempted != 2 {
		t.Errorf("a failed operation must make the run incorrect: %+v", line)
	}
	// A metric the catalogue does not know, or an end-to-end metric at 0,
	// is the harness's mistake and must not be reported.
	o.set("no.such_metric", 1, 1)
	if _, err := e.report(&bytes.Buffer{}, o); err == nil {
		t.Error("a metric outside BENCHMARK.json was reported")
	}
	e.trace = false
	if _, err := e.report(&bytes.Buffer{}, newOutcome()); err == nil {
		t.Error("end-to-end metrics reading 0 were reported")
	}
}

func TestSeriesSum(t *testing.T) {
	body := []byte("# TYPE rwc_sli_rounds_total counter\n" +
		"rwc_sli_rounds_total{policy=\"dynamic\"} 302\n" +
		"rwc_sli_rounds_total{policy=\"static-max\"} 8\n" +
		"rwc_sli_rounds_total_other 5\n" +
		"rwc_sli_round_latency_seconds_sum{policy=\"dynamic\"} 1.5\n")
	if got := seriesSum(body, "rwc_sli_rounds_total"); math.Abs(got-310) > 1e-12 {
		t.Errorf("rounds_total sums to %v, want 310", got)
	}
	if got := seriesSum(body, "rwc_sli_round_latency_seconds_sum"); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("latency sum = %v, want 1.5", got)
	}
}

func TestDemandBodiesFollowTheSeed(t *testing.T) {
	a, b, c := demandBodies(7, 64, 3), demandBodies(7, 64, 3), demandBodies(8, 64, 3)
	if !bytes.Equal(a[2], b[2]) || bytes.Equal(a[2], c[2]) {
		t.Error("demand batches must be a pure function of the seed")
	}
	var req struct {
		Demands []struct {
			Src, Dst int
			Gbps     float64
		}
	}
	if err := json.Unmarshal(a[0], &req); err != nil || len(req.Demands) != batchSize {
		t.Fatalf("batch body %s: %v", a[0], err)
	}
	for _, d := range req.Demands {
		if d.Src == d.Dst || d.Src < 0 || d.Src >= 64 || d.Gbps <= 0 {
			t.Errorf("bad demand %+v", d)
		}
	}
}

// TestSmoke drives all five workloads, untraced and traced, through the
// real binaries at tiny sizes. It goes through run.sh, the one way the
// harness is built and started.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the product binaries")
	}
	traces := []string{"out/trace-" + wlGreedy + ".jsonl", "out/trace-" + wlGK + ".jsonl", "out/trace-" + wlKPath + ".jsonl"}
	for _, f := range traces {
		if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
	t0 := time.Now()
	out, err := exec.Command("bash", "run.sh", "-smoke").CombinedOutput()
	if err != nil {
		t.Fatalf("smoke run: %v\n%s", err, out)
	}
	t.Logf("smoke run took %v", time.Since(t0))
	for _, f := range traces {
		if _, err := os.Stat(f); err != nil {
			t.Errorf("traced run left no span file: %v", err)
		}
	}
}
