// Package par is the deterministic fan-out layer: a bounded worker
// pool whose results are collected in task-index order, so the output
// of a parallel run is a pure function of the inputs — never of the
// scheduler, the worker count, or completion order.
//
// The determinism contract has two halves, and this package only
// enforces the second:
//
//  1. Callers must make every task self-contained *before* dispatch.
//     In this repository that means splitting the task's rng.Source
//     from the parent in loop order up front (rng.Source.Split only
//     consumes parent state, so pre-splitting N children is
//     byte-identical to splitting lazily in a serial loop) and
//     recording observability into a per-task obs child merged back in
//     task order (obs.Obs.Child / Merge).
//  2. This package consumes results strictly in task order, propagates
//     the error of the lowest-indexed failing task, and runs the
//     Workers<=1 case as a plain inline loop with no goroutines — the
//     reference behavior every parallel run must reproduce exactly.
//
// Memory stays bounded: a worker that has produced item i parks until
// the collector has consumed item i before taking another task, so at
// most Workers produced-but-unconsumed items exist at any moment.
package par

import (
	"runtime"
	"sync"

	"repro/internal/obs"
)

// Opts configures one fan-out.
type Opts struct {
	// Workers bounds the pool; <= 0 means runtime.GOMAXPROCS(0). The
	// result is identical for every value — only wall-clock time and
	// peak memory change.
	Workers int
	// Name labels this pool in the rwc_par_tasks_total counter. Empty
	// disables the pool's own instrumentation.
	Name string
	// Obs receives the deterministic tasks-dispatched counter; nil
	// disables it. The pool measures no durations: a caller that wants
	// one opens an obs/perf phase around its fan-out.
	Obs *obs.Obs
}

// Workers resolves a -workers flag value: n when positive, otherwise
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// effective returns the worker count actually used for n tasks.
func (o Opts) effective(n int) int {
	w := Workers(o.Workers)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// countTasks records the pool's task counter. It is a no-op without a
// pool name; the counter is recorded identically for every worker
// count so metrics stay byte-identical across -workers values.
func (o Opts) countTasks(n int) {
	if o.Name == "" || o.Obs == nil {
		return
	}
	o.Obs.Counter("rwc_par_tasks_total", //nolint:seriesname // cold: once per fan-out, not per task
		"Tasks dispatched through the deterministic fan-out layer, by pool.",
		obs.L("pool", o.Name)).Add(float64(n))
}

// Stream runs produce for task indices 0..n-1 on a bounded pool and
// feeds each result to consume in strict index order. produce runs
// concurrently (worker identifies the executing worker, 0-based, for
// per-worker scratch); consume always runs serially on the calling
// goroutine. The first error in index order — from produce or consume
// — aborts the stream and is returned; tasks past the failing index
// may or may not have run, but their results are never consumed.
func Stream[T any](o Opts, n int, produce func(worker, i int) (T, error), consume func(i int, v T) error) error {
	o.countTasks(max(n, 0))
	if n <= 0 {
		return nil
	}
	workers := o.effective(n)

	if workers == 1 {
		// Reference serial path: inline, no goroutines.
		for i := 0; i < n; i++ {
			v, err := produce(0, i)
			if err != nil {
				return err
			}
			if err := consume(i, v); err != nil {
				return err
			}
		}
		return nil
	}

	type slot struct {
		v     T
		err   error
		ready chan struct{}
		done  chan struct{}
	}
	slots := make([]slot, n)
	for i := range slots {
		slots[i].ready = make(chan struct{})
		slots[i].done = make(chan struct{})
	}
	idxCh := make(chan int)
	cancel := make(chan struct{})
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		worker := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				slots[i].v, slots[i].err = produce(worker, i)
				close(slots[i].ready)
				select {
				case <-slots[i].done:
				case <-cancel:
					return
				}
			}
		}()
	}
	go func() {
		defer close(idxCh)
		for i := 0; i < n; i++ {
			select {
			case idxCh <- i:
			case <-cancel:
				return
			}
		}
	}()

	var firstErr error
	for i := 0; i < n; i++ {
		<-slots[i].ready
		if slots[i].err != nil {
			firstErr = slots[i].err
			break
		}
		if err := consume(i, slots[i].v); err != nil {
			firstErr = err
			break
		}
		close(slots[i].done)
	}
	close(cancel)
	wg.Wait()
	return firstErr
}

// Map runs task for indices 0..n-1 and returns the results in index
// order. Error semantics match Stream.
func Map[T any](o Opts, n int, task func(worker, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Stream(o, n, task, func(i int, v T) error {
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
