// Package parallel is the deterministic fan-out layer used by the per-peer
// preparation pipeline (internal/core) and the experiment harness
// (internal/experiments). The workload Hyper-M reproduces is embarrassingly
// parallel at two levels — every peer decomposes and clusters its own items
// independently (paper §4, steps i1/i2), and every figure of §5–6 is a grid
// of independent (seed, parameter) simulation cells — but the simulated
// structures themselves (the CAN overlays, the event engine) are mutable and
// single-threaded. This package therefore provides exactly the primitives
// that keep the boundary safe:
//
//   - bounded workers (never more goroutines than requested),
//   - results collected in task-index order, so merging is deterministic no
//     matter which worker finished first,
//   - panic propagation: a panic on a worker resurfaces on the calling
//     goroutine as a *PanicError carrying the original value and stack,
//   - context cancellation: undispatched tasks are abandoned and ctx.Err()
//     is returned.
//
// Determinism contract: Map and ForEach with the same n and a pure fn
// produce identical outputs for every worker count, including 1. The serial
// fast path (workers <= 1) runs fn inline with the same error and panic
// semantics, so `Parallelism: 1` reproduces parallel results byte for byte.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a parallelism knob to a concrete worker count: n >= 1 is
// used as-is, anything else (the zero value of a config field) means "use
// every core" and resolves to GOMAXPROCS.
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError wraps a panic recovered on a worker goroutine so it can be
// re-raised on the caller's goroutine without losing the original value or
// the worker's stack trace.
type PanicError struct {
	// Value is the value originally passed to panic.
	Value any
	// Stack is the worker goroutine's stack at the time of the panic.
	Stack []byte
}

// Error formats the wrapped panic.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task panicked: %v\n%s", e.Value, e.Stack)
}

// Unwrap exposes the panic value when it was itself an error.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Fan runs fn(0), …, fn(n-1), at most limit at once, and returns when all
// have. The caller is one of the workers, so one task, or a limit of 1, starts
// no goroutine and runs in index order. Unlike ForEach it neither stops early
// nor recovers a panic: each task reports through its own result.
func Fan(n, limit int, fn func(i int)) {
	if limit <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(min(limit, n) - 1)
	for range min(limit, n) - 1 {
		go func() { work(); wg.Done() }()
	}
	work()
	wg.Wait()
}

// ForEach runs fn(i) for i in [0, n) on at most `workers` goroutines
// (resolved through Workers) and waits for completion. Tasks are handed out
// in index order. The error returned is deterministic: among all tasks that
// failed, the one with the lowest index wins, regardless of scheduling.
// After the first observed failure or cancellation no further tasks are
// dispatched, but tasks already running are allowed to finish.
//
// If fn panics, every in-flight task is drained and ForEach re-panics with a
// *PanicError on the caller's goroutine — parallel code keeps the crash
// semantics of the serial loop it replaces.
//
// A nil ctx means context.Background(). If ctx is cancelled before every
// task was dispatched, ForEach returns ctx.Err() unless a lower-indexed task
// already failed with its own error.
func ForEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		return forEachSerial(ctx, n, fn)
	}

	var (
		next     atomic.Int64 // next task index to dispatch
		stopped  atomic.Bool  // set on first error/panic/cancellation
		mu       sync.Mutex
		firstErr error // lowest-index task error
		firstIdx = n   // index of firstErr
		panicked *PanicError
		ctxErr   error
		wg       sync.WaitGroup
	)

	record := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		stopped.Store(true)
	}

	runOne := func(i int) (err error, pe *PanicError) {
		defer func() {
			if r := recover(); r != nil {
				pe = &PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		return fn(i), nil
	}

	wg.Add(w)
	for wk := 0; wk < w; wk++ {
		go func() {
			defer wg.Done()
			for {
				if stopped.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					mu.Lock()
					ctxErr = err
					mu.Unlock()
					stopped.Store(true)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				err, pe := runOne(i)
				if pe != nil {
					mu.Lock()
					if panicked == nil {
						panicked = pe
					}
					mu.Unlock()
					stopped.Store(true)
					return
				}
				if err != nil {
					record(i, err)
				}
			}
		}()
	}
	wg.Wait()

	if panicked != nil {
		panic(panicked)
	}
	if firstErr != nil {
		return firstErr
	}
	return ctxErr
}

// forEachSerial is the workers<=1 fast path: an inline loop with identical
// error, panic, and cancellation semantics.
func forEachSerial(ctx context.Context, n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err, pe := func() (err error, pe *PanicError) {
			defer func() {
				if r := recover(); r != nil {
					pe = &PanicError{Value: r, Stack: debug.Stack()}
				}
			}()
			return fn(i), nil
		}()
		if pe != nil {
			panic(pe)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn(i) for i in [0, n) on at most `workers` goroutines and returns
// the results in task-index order — out[i] is fn(i)'s value, whichever worker
// computed it. On error or cancellation the partial slice is returned along
// with the (deterministic, lowest-index) error; entries whose task did not
// run hold the zero value. Panics propagate as in ForEach.
func Map[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
