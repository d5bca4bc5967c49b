// Package par owns data-parallel fan-out for the serving and training
// paths: batch encode, batch predict and per-tree forest training all
// go through For, so GOMAXPROCS is read in exactly one place and no
// package grows its own worker pool.
package par

import (
	"runtime"
	"sync"
)

// For runs f(i) for every i in [0, n), each exactly once. The range is
// split into at most GOMAXPROCS contiguous chunks, one goroutine each;
// when one worker suffices (n <= 1 or GOMAXPROCS == 1) f runs inline on
// the caller's goroutine. For returns after every call has returned.
// Calls in different chunks run concurrently, so f must only write
// state owned by index i.
func For(n int, f func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				f(i)
			}
		}()
	}
	wg.Wait()
}
