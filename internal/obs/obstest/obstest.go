// Package obstest holds the memory measurements the obs packages'
// tests and benchmarks share. Both read the process-wide
// runtime.MemStats, so both run with GOMAXPROCS(1): another goroutine
// then runs only when the measured code blocks or is preempted, and
// AllocatedBy keeps the least of several runs, which such a goroutine
// can only inflate.
package obstest

import (
	"math"
	"runtime"
)

// allocRuns is how many times AllocatedBy runs f.
const allocRuns = 5

// AllocatedBy reports the bytes f allocates: the least
// runtime.MemStats.TotalAlloc delta over several runs of f, which must
// do the same work on every call.
func AllocatedBy(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range allocRuns {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// HeldBy reports the heap bytes the value build returns keeps live:
// the runtime.MemStats.HeapAlloc delta between collections before and
// after build.
func HeldBy(build func() any) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}
