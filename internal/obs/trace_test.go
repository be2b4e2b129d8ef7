package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerEvents(t *testing.T) {
	clock := NewSimClock()
	tr := NewTracer(clock)
	tr.Event("boot")
	clock.Set(6 * time.Hour)
	tr.Event("order", A("edge", 3), A("kind", "upgrade"))
	tr.Event("round", A("changes", 2))
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("%d events, want 3", len(evs))
	}
	if evs[0].T != 0 || evs[1].T != 6*time.Hour || evs[2].T != 6*time.Hour {
		t.Fatalf("timestamps %v %v %v", evs[0].T, evs[1].T, evs[2].T)
	}
	for i, e := range evs {
		if e.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	if evs[1].Name != "order" || len(evs[1].Attrs) != 2 || evs[1].Attrs[1] != A("kind", "upgrade") {
		t.Fatalf("event recorded as %+v", evs[1])
	}
}

func TestTracerJSONLIsValidAndDeterministic(t *testing.T) {
	run := func() string {
		clock := NewSimClock()
		tr := NewTracer(clock)
		for i := 0; i < 3; i++ {
			clock.Set(time.Duration(i) * time.Minute)
			tr.Event("round", A("round", i))
			tr.Event("order", A("edge", i), A("gbps", 150.5), A("forced", i%2 == 0))
			tr.Event("round.done")
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical runs produced different JSONL:\n%s---\n%s", a, b)
	}
	sc := bufio.NewScanner(bytes.NewReader([]byte(a)))
	lines := 0
	for sc.Scan() {
		lines++
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", lines, err, sc.Text())
		}
		for _, key := range []string{"seq", "t_ns", "kind", "name"} {
			if _, ok := rec[key]; !ok {
				t.Fatalf("line %d missing %q: %s", lines, key, sc.Text())
			}
		}
		if rec["kind"] != "event" {
			t.Fatalf("line %d has kind %v, want event: %s", lines, rec["kind"], sc.Text())
		}
	}
	if lines != 9 {
		t.Fatalf("%d JSONL lines, want 9", lines)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Event("x")
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer recorded events")
	}
	if err := tr.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestNilClockStampsZero(t *testing.T) {
	tr := NewTracer(nil)
	tr.Event("x")
	if evs := tr.Events(); evs[0].T != 0 {
		t.Fatalf("t = %v, want 0", evs[0].T)
	}
}

// TestTracerReadsRaceEvents: Events, the JSONL writer and Merge read
// views of the record log without the lock while writers append past
// them; each read sees a prefix of whole events, and once the writers
// stop the merged copy renders the source's bytes.
func TestTracerReadsRaceEvents(t *testing.T) {
	const writers, perWriter = 3, 600
	tr := NewTracer(nil)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Event(fmt.Sprintf("w%d", w), A("i", i), A("f", float64(i)/3), A("s", strings.Repeat("x", i%50)))
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := len(tr.Events())
			var buf bytes.Buffer
			if err := tr.WriteJSONL(&buf); err != nil {
				t.Error(err)
				return
			}
			if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines < n {
				t.Errorf("JSONL of %d lines after Events saw %d", lines, n)
				return
			}
			NewTracer(nil).Merge(tr)
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	merged := NewTracer(nil)
	merged.Merge(tr)
	var a, b bytes.Buffer
	if err := tr.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != writers*perWriter || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("%d events; merged copy renders the same bytes: %v", tr.Len(), bytes.Equal(a.Bytes(), b.Bytes()))
	}
}
