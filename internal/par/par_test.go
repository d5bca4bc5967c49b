package par

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// Every index in [0, n) is visited exactly once, whether For runs
// inline (GOMAXPROCS 1, n <= 1) or fans out (more indices than workers,
// fewer, or exactly one chunk per worker plus a remainder).
func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs-%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			for _, n := range []int{0, 1, 2, procs + 1, 1000} {
				hits := make([]atomic.Int32, n)
				For(n, func(i int) { hits[i].Add(1) })
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Fatalf("n=%d: index %d visited %d times, want 1", n, i, got)
					}
				}
			}
		})
	}
}

// When one worker suffices, f runs on the caller's goroutine, in index
// order: the single-job serving path spawns nothing.
func TestForRunsInlineWithOneWorker(t *testing.T) {
	for _, c := range []struct{ procs, n int }{{1, 5}, {4, 1}} {
		prev := runtime.GOMAXPROCS(c.procs)
		var order []int
		For(c.n, func(i int) {
			order = append(order, i)
			if !calledFrom("TestForRunsInlineWithOneWorker") {
				t.Errorf("procs=%d n=%d: index %d ran off the caller's goroutine", c.procs, c.n, i)
			}
		})
		runtime.GOMAXPROCS(prev)
		for i, v := range order {
			if v != i || len(order) != c.n {
				t.Fatalf("procs=%d n=%d: order %v, want 0..%d in sequence", c.procs, c.n, order, c.n-1)
			}
		}
	}
}

// calledFrom reports whether a function whose name ends in fn is on the
// current goroutine's stack.
func calledFrom(fn string) bool {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "."+fn) {
			return true
		}
		if !more {
			return false
		}
	}
}

// For never runs more than GOMAXPROCS calls at once.
func TestForBoundsConcurrency(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	var live, peak atomic.Int32
	For(64, func(int) {
		n := live.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		runtime.Gosched()
		live.Add(-1)
	})
	if p := peak.Load(); p > 4 {
		t.Fatalf("peak concurrency %d exceeds GOMAXPROCS 4", p)
	}
}
