package par

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d", got)
	}
}

// TestMapMatchesSerial: identical results for every worker count.
func TestMapMatchesSerial(t *testing.T) {
	n := 100
	task := func(worker, i int) (int, error) {
		runtime.Gosched() // shake up completion order
		return i * i, nil
	}
	want, err := Map(Opts{Workers: 1}, n, task)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8, 64} {
		got, err := Map(Opts{Workers: w}, n, task)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

// TestStreamConsumesInOrder: consume sees indices strictly ascending,
// regardless of production order.
func TestStreamConsumesInOrder(t *testing.T) {
	n := 200
	var seen []int
	err := Stream(Opts{Workers: 7}, n,
		func(worker, i int) (int, error) {
			runtime.Gosched()
			return i, nil
		},
		func(i int, v int) error {
			if v != i {
				return fmt.Errorf("index %d got value %d", i, v)
			}
			seen = append(seen, i)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("consumed %d of %d", len(seen), n)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("consume order broken at %d: %v", i, v)
		}
	}
}

// TestStreamBoundsInFlight: at most Workers tasks produce concurrently,
// and a worker's produced item is consumed before it takes another —
// the guarantee per-worker scratch reuse relies on.
func TestStreamBoundsInFlight(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	scratch := make([]int, workers) // per-worker scratch buffer
	err := Stream(Opts{Workers: workers}, 60,
		func(worker, i int) (*int, error) {
			if cur := inFlight.Add(1); cur > peak.Load() {
				peak.Store(cur)
			}
			defer inFlight.Add(-1)
			if worker < 0 || worker >= workers {
				return nil, fmt.Errorf("worker index %d out of range", worker)
			}
			scratch[worker] = i
			runtime.Gosched()
			return &scratch[worker], nil
		},
		func(i int, v *int) error {
			if *v != i {
				return fmt.Errorf("scratch for task %d overwritten to %d before consumption", i, *v)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("%d tasks in flight, worker bound is %d", p, workers)
	}
}

// TestStreamFirstErrorByIndex: the lowest-index failure wins no matter
// which task fails first on the wall clock.
func TestStreamFirstErrorByIndex(t *testing.T) {
	for _, w := range []int{1, 4} {
		err := ForEach(Opts{Workers: w}, 50, func(worker, i int) error {
			runtime.Gosched()
			if i == 7 || i == 23 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 7 failed" {
			t.Fatalf("workers=%d: err = %v, want task 7's", w, err)
		}
	}
}

// TestStreamConsumeError: a consume error aborts and is returned.
func TestStreamConsumeError(t *testing.T) {
	sentinel := errors.New("stop at 5")
	for _, w := range []int{1, 4} {
		consumed := 0
		err := Stream(Opts{Workers: w}, 40,
			func(worker, i int) (int, error) { return i, nil },
			func(i int, v int) error {
				if i == 5 {
					return sentinel
				}
				consumed++
				return nil
			})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v", w, err)
		}
		if consumed != 5 {
			t.Fatalf("workers=%d: consumed %d results before the error, want 5", w, consumed)
		}
	}
}

func TestStreamZeroTasks(t *testing.T) {
	called := false
	err := Stream(Opts{Workers: 4}, 0,
		func(worker, i int) (int, error) { called = true; return 0, nil },
		func(i int, v int) error { called = true; return nil })
	if err != nil || called {
		t.Fatalf("err=%v called=%v", err, called)
	}
}

// TestObsTasksCounterIdenticalAcrossWorkers: the pool's metrics are a
// function of the task count only — byte-identical for workers=1 and
// workers=N.
func TestObsTasksCounterIdenticalAcrossWorkers(t *testing.T) {
	render := func(workers int) string {
		o := obs.New("par-test")
		err := ForEach(Opts{Workers: workers, Name: "fibers", Obs: o}, 25, func(worker, i int) error {
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := o.Metrics.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	m1, m4 := render(1), render(4)
	if m1 != m4 {
		t.Fatalf("metrics differ across worker counts:\n--- workers=1\n%s\n--- workers=4\n%s", m1, m4)
	}
	if !strings.Contains(m1, `rwc_par_tasks_total{pool="fibers"} 25`) {
		t.Fatalf("tasks counter missing:\n%s", m1)
	}
}

// TestObsDisabledIsFree: nil Obs and empty pool name record nothing
// and do not crash.
func TestObsDisabledIsFree(t *testing.T) {
	if err := ForEach(Opts{Workers: 2}, 10, func(worker, i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	o := obs.New("par-test")
	if err := ForEach(Opts{Workers: 2, Obs: o}, 10, func(worker, i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := o.Metrics.Snapshot(); len(got) != 0 {
		t.Fatalf("unnamed pool recorded metrics: %+v", got)
	}
}
