// Fixture: internal/par is the deterministic fan-out layer. It counts
// the tasks it dispatches and measures nothing: a pool that timed its
// own wall and busy phases is how wall-clock readings once reached the
// run manifest. A caller that wants a duration opens an
// internal/obs/perf phase around its fan-out.
package par

import "time"

// countTasks is the pool's whole instrumentation: clean.
func countTasks(n int, add func(float64)) {
	add(float64(n))
}

// badTimedProduce wraps a task in the busy-time accounting the pool
// used to carry.
func badTimedProduce(task func()) time.Duration {
	t0 := time.Now() // want `time.Now in simulation package repro/internal/par`
	task()
	return time.Since(t0) // want `time.Since in simulation package`
}
