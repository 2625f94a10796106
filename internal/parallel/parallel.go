// Package parallel provides the bounded, deterministic fan-out primitive
// used by the estimation and experiment hot paths: a fixed-size worker
// pool that dispatches index-ordered work items, collects results in
// input order, and cancels outstanding dispatch on the first error.
//
// Determinism contract: callers write each item's result into a slot
// keyed by the item index, so for pure per-item work the assembled output
// is bit-identical for any worker count. When several items fail, the
// error with the lowest item index is reported, and — because dispatch is
// strictly in index order — every item before that index has run to
// completion, matching what a sequential loop would have produced up to
// its first failure.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve maps a Workers option to a concrete worker count: values <= 0
// select runtime.GOMAXPROCS(0), anything else is returned unchanged.
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ForEach runs fn(i) for every i in [0, n) using at most workers
// goroutines (Resolve semantics: <= 0 means GOMAXPROCS). With one worker
// it degrades to a plain loop on the calling goroutine — the exact legacy
// sequential path, no goroutines spawned.
//
// On error the pool stops handing out new items; items already started
// run to completion. The returned error is the one from the failing item
// with the smallest index.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Resolve(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64 // next item index to dispatch
		stop     atomic.Bool  // set once any item fails
		mu       sync.Mutex
		firstIdx = n // smallest failing index seen so far
		firstErr error
		wg       sync.WaitGroup
	)
	next.Store(0)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Map runs fn(i) for every i in [0, n) with ForEach's pool semantics and
// returns the results in input order: out[i] holds fn(i)'s value. On
// error it returns (nil, err) with ForEach's lowest-failing-index error.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
