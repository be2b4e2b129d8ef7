package load

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/sli"
	"repro/internal/rng"
)

// The offered load's shape: client pacing and demand batches. Fixed, so
// any two runs at the same Duration and Seed offer the same load.
const (
	scrapeInterval = 100 * time.Millisecond // paces the /metrics client
	queryInterval  = 250 * time.Millisecond // paces the /queryz client
	batchInterval  = 50 * time.Millisecond  // paces /demandz batches
	batchSize      = 16                     // demands per /demandz batch
	gravityNodes   = 12                     // the gravity model's node id space
	sseClients     = 2                      // concurrent /traces subscribers
)

// Options configures one load run.
type Options struct {
	// BaseURL is the daemon's operations plane, e.g. "http://127.0.0.1:7719".
	BaseURL string
	// Duration is how long to offer load (default 3s).
	Duration time.Duration
	// Seed makes the offered load reproducible.
	Seed uint64
	// Client overrides the HTTP client (tests inject httptest's).
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.Duration <= 0 {
		o.Duration = 3 * time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 10 * time.Second}
	}
	return o
}

// gravity precomputes node masses for the demand stream: the same
// heavy-tailed gravity shape the simulation's demand matrix uses, so
// offered probe volumes look like real traffic. Deterministic in Seed.
type gravity struct {
	src  *rng.Source
	mass []float64
	sum  float64
}

func newGravity(seed uint64, nodes int) *gravity {
	g := &gravity{src: rng.New(seed ^ 0x10ad), mass: make([]float64, nodes)}
	for i := range g.mass {
		g.mass[i] = g.src.Pareto(1, 1.2)
		g.sum += g.mass[i]
	}
	return g
}

// batch emits one demand batch as the /demandz JSON body.
func (g *gravity) batch(n int) string {
	var b strings.Builder
	b.WriteString(`{"demands":[`)
	for i := 0; i < n; i++ {
		src := g.src.Intn(len(g.mass))
		dst := g.src.Intn(len(g.mass))
		if dst == src {
			dst = (dst + 1) % len(g.mass)
		}
		gbps := 400 * g.mass[src] * g.mass[dst] / (g.sum * g.sum) * float64(len(g.mass))
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"src":%d,"dst":%d,"gbps":%.3f}`, src, dst, gbps)
	}
	b.WriteString(`]}`)
	return b.String()
}

// jsonDecode decodes one JSON body.
func jsonDecode(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}

// sample is one timed request outcome.
type sample struct {
	ns  int64
	err bool
}

// timedGet performs one GET, returning latency and the body.
func timedGet(c *http.Client, url string) (sample, []byte) {
	t0 := time.Now()
	resp, err := c.Get(url)
	if err != nil {
		return sample{time.Since(t0).Nanoseconds(), true}, nil
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	s := sample{ns: time.Since(t0).Nanoseconds(), err: rerr != nil || resp.StatusCode != http.StatusOK}
	return s, body
}

// sumPrefix sums every series whose key starts with name (summing a
// labeled family) in a PromTotals map.
func sumPrefix(totals map[string]float64, name string) float64 {
	var sum float64
	for k, v := range totals {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// Run offers the configured load for Duration and reports what the
// service sustained. The only hard error is failing to scrape the
// daemon at all; individual request failures are counted, not fatal.
func Run(opts Options) (Report, error) {
	opts = opts.withDefaults()
	base := strings.TrimSuffix(opts.BaseURL, "/")
	rep := Report{
		Kind:   ReportKind,
		Tool:   "rwc-loadgen",
		Target: base,
		Seed:   opts.Seed,
	}

	// Opening scrape: the "before" edge of every service delta, and a
	// hard failure if the daemon isn't reachable.
	s0, body := timedGet(opts.Client, base+"/metrics")
	if s0.err {
		return rep, fmt.Errorf("initial scrape of %s/metrics failed", base)
	}
	before, err := obs.PromTotals(strings.NewReader(string(body)))
	if err != nil {
		return rep, fmt.Errorf("initial scrape parse: %v", err)
	}

	var (
		mu           sync.Mutex
		scrapeNs     []int64
		scrapeErrs   int
		queryNs      []int64
		queryErrs    int
		sseEvents    int
		sseComments  int
		sseBytes     int64
		demand       DemandStats
		lastScrape   map[string]float64
		grav         = newGravity(opts.Seed, gravityNodes)
		demandBodies []string
	)
	// Pre-generate every batch body up front so the byte stream offered
	// is a pure function of Seed regardless of timing.
	for i := 0; i < 4096; i++ {
		demandBodies = append(demandBodies, grav.batch(batchSize))
	}

	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// /metrics scrape client.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(scrapeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				s, body := timedGet(opts.Client, base+"/metrics")
				mu.Lock()
				scrapeNs = append(scrapeNs, s.ns)
				if s.err {
					scrapeErrs++
				} else if totals, err := obs.PromTotals(strings.NewReader(string(body))); err == nil {
					lastScrape = totals
				}
				mu.Unlock()
			}
		}
	}()

	// /queryz + /sliz client: alternate a history range query over the
	// decisions/sec SLI with a snapshot read.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(queryInterval)
		defer ticker.Stop()
		flip := false
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				url := base + "/queryz?q=" + sli.MetricDecisionsPerSec + "&op=last"
				if flip {
					url = base + "/sliz"
				}
				flip = !flip
				s, _ := timedGet(opts.Client, url)
				mu.Lock()
				queryNs = append(queryNs, s.ns)
				if s.err {
					queryErrs++
				}
				mu.Unlock()
			}
		}
	}()

	// /demandz batch stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(batchInterval)
		defer ticker.Stop()
		i := 0
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				body := demandBodies[i%len(demandBodies)]
				i++
				resp, err := opts.Client.Post(base+"/demandz", "application/json", strings.NewReader(body))
				mu.Lock()
				demand.Batches++
				demand.Demands += batchSize
				if err != nil {
					demand.Errors++
					mu.Unlock()
					continue
				}
				var ar struct {
					OfferedGbps  float64 `json:"offered_gbps"`
					AdmittedGbps float64 `json:"admitted_gbps"`
					Admitted     int     `json:"admitted"`
					Rejected     int     `json:"rejected"`
				}
				if resp.StatusCode != http.StatusOK {
					demand.Errors++
				} else if derr := jsonDecode(resp.Body, &ar); derr != nil {
					demand.Errors++
				} else {
					demand.OfferedGbps += ar.OfferedGbps
					demand.AdmittedGbps += ar.AdmittedGbps
					demand.Admitted += ar.Admitted
					demand.Rejected += ar.Rejected
				}
				resp.Body.Close()
				mu.Unlock()
			}
		}
	}()

	// SSE subscribers: stream /traces until the run deadline; the
	// request context bounds the read, so these need no stop select —
	// the server or the deadline ends them.
	for i := 0; i < sseClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithDeadline(context.Background(), start.Add(opts.Duration))
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/traces", nil)
			if err != nil {
				return
			}
			resp, err := opts.Client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
			for sc.Scan() {
				line := sc.Text()
				mu.Lock()
				sseBytes += int64(len(line)) + 1
				if strings.HasPrefix(line, "data: ") {
					sseEvents++
				} else if strings.HasPrefix(line, ":") {
					sseComments++
				}
				mu.Unlock()
			}
		}()
	}

	time.Sleep(opts.Duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)

	// Closing scrape: the "after" edge. Falls back to the scrape
	// client's last successful read if the daemon is already draining.
	sEnd, body := timedGet(opts.Client, base+"/metrics")
	after := lastScrape
	if !sEnd.err {
		if totals, err := obs.PromTotals(strings.NewReader(string(body))); err == nil {
			after = totals
		}
	}
	if after == nil {
		return rep, fmt.Errorf("no successful scrape of %s/metrics during the run", base)
	}

	rep.DurationNs = elapsed.Nanoseconds()
	rep.Demand = demand
	rep.Scrape = clientStats(scrapeNs, scrapeErrs)
	rep.Query = clientStats(queryNs, queryErrs)

	decDelta := sumPrefix(after, sli.MetricDecisionsTotal) - sumPrefix(before, sli.MetricDecisionsTotal)
	rep.Service = ServiceStats{
		DecisionsDelta:  decDelta,
		RoundsDelta:     sumPrefix(after, sli.MetricRoundsTotal) - sumPrefix(before, sli.MetricRoundsTotal),
		DecisionsPerSec: decDelta / elapsed.Seconds(),
		ScrapesDelta:    sumPrefix(after, sli.MetricScrapesTotal) - sumPrefix(before, sli.MetricScrapesTotal),
		Generation:      sumPrefix(after, sli.MetricGeneration),
		ReloadFailures:  sumPrefix(after, sli.MetricReloadsTotal+`{result="`+sli.ReloadFailure+`"}`),
	}

	droppedSlow := sumPrefix(after, sli.MetricSSEDroppedTotal+`{cause="`+sli.DropSlowConsumer+`"}`) -
		sumPrefix(before, sli.MetricSSEDroppedTotal+`{cause="`+sli.DropSlowConsumer+`"}`)
	droppedShut := sumPrefix(after, sli.MetricSSEDroppedTotal+`{cause="`+sli.DropShutdown+`"}`)
	rep.SSE = SSEStats{
		Subscribers:          sseClients,
		Events:               sseEvents,
		Bytes:                sseBytes,
		DroppedSlowConsumer:  droppedSlow,
		DroppedShutdown:      droppedShut,
		EventsPerSec:         float64(sseEvents) / elapsed.Seconds(),
		HeartbeatsOrComments: sseComments,
	}
	if total := float64(sseEvents) + droppedSlow; total > 0 {
		rep.SSE.DropFraction = droppedSlow / total
	}
	return rep, nil
}
