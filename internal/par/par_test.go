package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-3) != runtime.GOMAXPROCS(0) {
		t.Fatal("Workers(<=0) should default to GOMAXPROCS")
	}
	if Workers(7) != 7 {
		t.Fatal("explicit worker count not honoured")
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 64} {
		const n = 1000
		counts := make([]int32, n)
		ForEach(n, workers, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestForEachWorkerIDsAreExclusive pins the contract per-worker scratch
// relies on: ids stay in [0, Workers(workers)) and no two in-flight calls
// hold the same id.
func TestForEachWorkerIDsAreExclusive(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{1000, 1}, {1000, 2}, {1000, 8}, {3, 8}, {100, 0},
	} {
		held := make([]atomic.Bool, Workers(tc.workers))
		ForEachWorker(tc.n, tc.workers, func(w, i int) {
			if w < 0 || w >= len(held) {
				t.Errorf("n=%d workers=%d: worker id %d outside [0,%d)", tc.n, tc.workers, w, len(held))
				return
			}
			if !held[w].CompareAndSwap(false, true) {
				t.Errorf("n=%d workers=%d: worker id %d handed to two in-flight calls", tc.n, tc.workers, w)
			}
			runtime.Gosched() // widen the window another holder of w would need
			held[w].Store(false)
		})
	}
}

func TestForEachPanicPropagatesToCaller(t *testing.T) {
	forms := map[string]func(n, workers int, fn func(i int)){
		"ForEach": ForEach,
		"ForEachWorker": func(n, workers int, fn func(i int)) {
			ForEachWorker(n, workers, func(_, i int) { fn(i) })
		},
	}
	for name, forEach := range forms {
		for _, workers := range []int{1, 4} {
			func() {
				defer func() {
					if r := recover(); r != "boom" {
						t.Fatalf("%s workers=%d: recovered %v, want boom", name, workers, r)
					}
				}()
				forEach(100, workers, func(i int) {
					if i == 13 {
						panic("boom")
					}
				})
				t.Fatalf("%s workers=%d: returned instead of panicking", name, workers)
			}()
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	ForEach(0, 4, func(int) { t.Fatal("fn called for n=0") })
	ForEach(-1, 4, func(int) { t.Fatal("fn called for n<0") })
}
