// Package par holds the small concurrency helpers behind edgescope's
// parallel experiment engine. Work is always *indexed*: callers pre-derive
// any per-item random sub-streams deterministically (in index order, via
// rng.Fork) before fanning out, and workers write results into per-index
// slots, so outputs are byte-identical regardless of worker count or
// scheduling order.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalises a parallelism request: n <= 0 means one worker per
// available CPU (GOMAXPROCS).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for every i in [0,n) over workers goroutines (Workers
// semantics: <=0 means GOMAXPROCS). Items are claimed from an atomic
// counter, so there is no per-item channel overhead; the call returns when
// every item is done. fn must confine its writes to per-index data.
//
// A panic in fn stops the fan-out and is re-raised on the calling
// goroutine, so failure behavior is identical at any worker count (a bare
// goroutine panic would kill the process and bypass the caller's recover).
func ForEach(n, workers int, fn func(i int)) {
	ForEachWorker(n, workers, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach that also tells fn which worker runs the item:
// worker is in [0, Workers(workers)) and no two in-flight calls share a
// worker id, so fn may keep mutable scratch per worker and write results
// per index. Which worker gets which item is scheduling, never an input to
// the computation.
func ForEachWorker(n, workers int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var (
		next     atomic.Int64
		panicked atomic.Bool
		mu       sync.Mutex
		pval     any
		wg       sync.WaitGroup
	)
	runOne := func(worker, i int) {
		defer func() {
			if r := recover(); r != nil {
				panicked.Store(true)
				mu.Lock()
				if pval == nil {
					pval = r
				}
				mu.Unlock()
			}
		}()
		fn(worker, i)
	}
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for !panicked.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				runOne(g, i)
			}
		}()
	}
	wg.Wait()
	if pval != nil {
		panic(pval)
	}
}
