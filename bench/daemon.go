package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/rng"
)

const (
	daemonNodes = 64
	daemonTick  = 10 * time.Millisecond
	// The offered load: connection A alternates GET /metrics and GET
	// /queryz, one request every readPeriod (46.5 req/s); connection B
	// posts a /demandz batch every demandPeriod (58.8 req/s). Open loop:
	// each request has a due time on a fixed schedule and is timed from
	// it. Neither period (nor twice readPeriod, the scrape period) is a
	// multiple of the tick, so successive requests sweep through the round
	// cycle; a period that divides into the tick samples one phase of it,
	// a different one every run, and the medians move by half from run to
	// run. The rates are what two cores sustain without a backlog: a
	// /queryz reply takes ~10 ms, so one connection cannot carry more than
	// ~90 req/s of this mix.
	readPeriod   = 21500 * time.Microsecond
	demandPeriod = 17 * time.Millisecond
	batchSize    = 16
	// requestTimeout bounds every HTTP call; a timeout is a failure.
	requestTimeout = 2 * time.Second
	readyTimeout   = 30 * time.Second
	drainTimeout   = 30 * time.Second
	// daemonSetupReps is how many times the daemon is started for the
	// set-up median (the last start is the measured run).
	daemonSetupReps = 3
	queryzPath      = "/queryz?q=rwc_sli_decisions_per_second&op=last"
)

// daemonArgs starts rwc-wansimd paced at the tick with every artifact
// plane on. The simulated network and its SNR are fixed (topologySeed):
// the flag seeds topology and SNR together, and the run-to-run input of
// this workload is the request stream, which --seed drives.
func daemonArgs(dir string, port, nodes int, window time.Duration) []string {
	// The round budget outlasts the window by a third, so SIGTERM ends the
	// run, never the budget. Set-up pre-generates SNR for the whole budget.
	rounds := int(window/daemonTick) * 4 / 3
	args := []string{
		"-topology", fmt.Sprintf("continental:%d", nodes), "-wavelengths", strconv.Itoa(wavelengths),
		"-policy", "dynamic", "-tick", daemonTick.String(), "-rounds", strconv.Itoa(rounds),
		"-tail=false", "-workers", "1", "-seed", strconv.Itoa(topologySeed),
		"-serve", fmt.Sprintf("127.0.0.1:%d", port),
	}
	return append(args, artifactArgs(dir, allPlanes...)...)
}

// newConn returns a client that owns one keep-alive connection.
func newConn() *http.Client {
	return &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// startDaemon starts the daemon on a free port and waits for /readyz to
// answer 200, retrying on another port if the child exits first (a lost
// race for the port). It returns the time from exec to ready.
func (e *env) startDaemon(ctx context.Context, dir string, nodes int, window time.Duration) (*child, string, time.Duration, error) {
	probe := newConn()
	defer probe.CloseIdleConnections()
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, "", 0, err
		}
		c, err := e.start(ctx, "rwc-wansimd", daemonArgs(dir, port, nodes, window)...)
		if err != nil {
			return nil, "", 0, err
		}
		base := fmt.Sprintf("http://127.0.0.1:%d", port)
		ready, err := waitReady(probe, c, base)
		if err == nil {
			return c, base, ready, nil
		}
		lastErr = fmt.Errorf("%v: %s", err, bytes.TrimSpace(c.stderr.Bytes()))
		_ = c.cmd.Process.Kill() // already exited, or hung: either way it must go
		<-c.exited
		if !errors.Is(err, errExitedEarly) {
			break
		}
	}
	return nil, "", 0, lastErr
}

var errExitedEarly = errors.New("exited before becoming ready")

func waitReady(probe *http.Client, c *child, base string) (time.Duration, error) {
	for time.Since(c.started) < readyTimeout {
		select {
		case <-c.exited:
			return 0, errExitedEarly
		default:
		}
		resp, err := probe.Get(base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(c.started), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("not ready within %v", readyTimeout)
}

// stop sends SIGTERM and waits for the drain (in-flight round plus
// artifact flush); it returns how long that took.
func (c *child) stop() (time.Duration, error) {
	t0 := time.Now()
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	err := c.wait(drainTimeout)
	return time.Since(t0), err
}

// demandBodies pre-generates the /demandz stream: gravity-model batches
// over the node id space, a pure function of the seed.
func demandBodies(seed uint64, nodes, n int) [][]byte {
	src := rng.New(seed ^ 0x10ad)
	mass := make([]float64, nodes)
	var sum float64
	for i := range mass {
		mass[i] = src.Pareto(1, 1.2)
		sum += mass[i]
	}
	type demand struct {
		Src  int     `json:"src"`
		Dst  int     `json:"dst"`
		Gbps float64 `json:"gbps"`
	}
	bodies := make([][]byte, n)
	for b := range bodies {
		batch := make([]demand, batchSize)
		for i := range batch {
			s, d := src.Intn(nodes), src.Intn(nodes)
			if d == s {
				d = (d + 1) % nodes
			}
			batch[i] = demand{s, d, 400 * mass[s] * mass[d] / (sum * sum) * float64(nodes)}
		}
		bodies[b], _ = json.Marshal(map[string][]demand{"demands": batch}) // plain structs cannot fail to marshal
	}
	return bodies
}

// scrape is one /metrics body with the time its reply was complete.
type scrape struct {
	at   time.Duration
	body []byte
}

// fetch issues one request and reads the whole reply; ok means status
// 200 and a body that passes check.
func fetch(c *http.Client, method, url string, body []byte, check func([]byte) bool) ([]byte, bool) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, false
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	return got, err == nil && resp.StatusCode == http.StatusOK && check(got)
}

// isMetrics accepts any exposition that carries the service-level series
// (rounds_total itself only appears once a round has completed).
func isMetrics(b []byte) bool { return bytes.Contains(b, []byte("\nrwc_sli_")) }

// seriesSum sums every sample of a metric family in a Prometheus text
// body (all label sets; `name` must be the full sample name).
func seriesSum(body []byte, name string) float64 {
	var sum float64
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}

func (e *env) runDaemon(ctx context.Context) (*outcome, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	dir, err := e.scratch()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o := newOutcome()
	nodes, reps := daemonNodes, daemonSetupReps
	if e.smoke {
		nodes, reps = smokeNodes, 1
	}

	window := time.Duration(e.seconds * float64(time.Second))

	// Set-up: exec to the first /readyz 200. The earlier starts are shut
	// down at once; the last one is the measured run.
	var setupS []float64
	var c *child
	var base string
	for i := 0; i < reps; i++ {
		var ready time.Duration
		if c, base, ready, err = e.startDaemon(ctx, dir, nodes, window); err != nil {
			return nil, err
		}
		setupS = append(setupS, ready.Seconds())
		if i < reps-1 {
			_, err := c.stop()
			o.op(err)
		}
	}

	nRead, nDemand := int(window/readPeriod), int(window/demandPeriod)
	bodies := demandBodies(e.seed, nodes, nDemand)
	giveUp := window + 2*requestTimeout
	connA, connB := newConn(), newConn()
	defer connA.CloseIdleConnections()
	defer connB.CloseIdleConnections()

	var first, last scrape
	var scrapeBytes float64
	var reads, demands []loopSample
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		reads = openLoop(wallClock{}, start, readPeriod, nRead, giveUp, func(i int) bool {
			if i%2 == 1 {
				_, ok := fetch(connA, http.MethodGet, base+queryzPath, nil, json.Valid)
				return ok
			}
			body, ok := fetch(connA, http.MethodGet, base+"/metrics", nil, isMetrics)
			if ok {
				last = scrape{time.Since(start), body}
				if first.body == nil {
					first = last
				}
				scrapeBytes = float64(len(body))
			}
			return ok
		})
	}()
	go func() {
		defer wg.Done()
		demands = openLoop(wallClock{}, start, demandPeriod, nDemand, giveUp, func(i int) bool {
			_, ok := fetch(connB, http.MethodPost, base+"/demandz", bodies[i], func(b []byte) bool {
				var r struct {
					Round *int `json:"round"`
				}
				return json.Unmarshal(b, &r) == nil && r.Round != nil
			})
			return ok
		})
	}()
	wg.Wait()

	drain, err := c.stop()
	o.op(err)
	o.op(e.verifyArtifacts(ctx, dir))
	fl, err := checkFlight(artifact(dir, "flight"))
	o.op(err)

	// Requests: a failed one counts against the attempt total and has no
	// latency. The sustained rate is completions over the window, or over
	// the time the last reply took to arrive when a backlog outlived it.
	var scrapeMs, queryMs, demandMs, lateMs []float64
	completed, elapsed := 0, window
	record := func(s loopSample, dst *[]float64) {
		lateMs = append(lateMs, ms(s.lateness()))
		if !s.OK {
			o.op(fmt.Errorf("request %d due at %v failed", s.Index, s.Due))
			return
		}
		o.op(nil)
		completed++
		elapsed = max(elapsed, s.Done)
		*dst = append(*dst, ms(s.latency()))
	}
	for _, s := range reads {
		if s.Index%2 == 1 {
			record(s, &queryMs)
		} else {
			record(s, &scrapeMs)
		}
	}
	for _, s := range demands {
		record(s, &demandMs)
	}

	if first.body == nil || last.at <= first.at {
		return nil, fmt.Errorf("fewer than two successful scrapes in the window")
	}
	const roundsTotal, latSum, latCount = "rwc_sli_rounds_total", "rwc_sli_round_latency_seconds_sum", "rwc_sli_round_latency_seconds_count"
	dRounds := seriesSum(last.body, roundsTotal) - seriesSum(first.body, roundsTotal)
	dLatCount := seriesSum(last.body, latCount) - seriesSum(first.body, latCount)

	o.median("setup_s", setupS)
	o.set("rounds_per_s", dRounds/(last.at-first.at).Seconds(), int(dRounds))
	o.set("cpu_ms_per_round", ms(c.cpu())/float64(max(fl.dynamicRounds, 1)), fl.dynamicRounds)
	o.set("peak_rss_mb", c.peakRSSMB(), 1)
	o.set("shipped_frac", fl.shippedFrac, fl.dynamicRounds)

	o.set("obs.serve.scrape_bytes", scrapeBytes, 1)
	o.median("obs.serve.scrape_ms_p50", scrapeMs)
	o.tail("obs.serve.scrape_ms_p95", scrapeMs, 0.95)
	o.median("obs.serve.queryz_ms_p50", queryMs)
	o.tail("obs.serve.queryz_ms_p95", queryMs, 0.95)
	o.median("obs.serve.demandz_ms_p50", demandMs)
	o.tail("obs.serve.demandz_ms_p95", demandMs, 0.95)
	if dLatCount > 0 {
		dLatSum := seriesSum(last.body, latSum) - seriesSum(first.body, latSum)
		o.set("daemon.round_latency_ms_mean", dLatSum/dLatCount*1e3, int(dLatCount))
	}
	o.set("daemon.drain_s", drain.Seconds(), 1)
	o.set("load.requests_per_s", float64(completed)/elapsed.Seconds(), completed)
	o.tail("load.lateness_ms_p99", lateMs, 0.99)
	return o, nil
}
