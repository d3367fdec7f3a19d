package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(1); got != 1 {
		t.Errorf("Workers(1) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	for _, n := range []int{0, -1, -100} {
		if got := Workers(n); got != want {
			t.Errorf("Workers(%d) = %d, want GOMAXPROCS %d", n, got, want)
		}
	}
}

// Pool of N workers x M tasks: every task must run exactly once, and the
// ordered results must be identical for every worker count.
func TestMapStressAllWorkerCounts(t *testing.T) {
	const m = 500
	want := make([]int, m)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, 3, 4, 8, 16, 64, m + 7} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var calls atomic.Int64
			got, err := Map(context.Background(), workers, m, func(i int) (int, error) {
				calls.Add(1)
				return i * i, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if calls.Load() != m {
				t.Fatalf("ran %d tasks, want %d", calls.Load(), m)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("out[%d] = %d, want %d", i, got[i], want[i])
				}
			}
		})
	}
}

// Bounded workers: the pool must never run more goroutines concurrently than
// requested.
func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 4
	var cur, peak atomic.Int64
	err := ForEach(context.Background(), workers, 200, func(i int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Microsecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent tasks with %d workers", p, workers)
	}
}

// Fan runs every task once with at most limit in flight, and a limit of 1 or
// a single task on the caller alone, in index order.
func TestFanBoundsConcurrency(t *testing.T) {
	for _, tc := range []struct{ n, limit int }{{0, 4}, {1, 4}, {3, 3}, {200, 4}, {5, 1}} {
		var cur, peak atomic.Int64
		ran := make([]int64, tc.n)
		var order []int
		Fan(tc.n, tc.limit, func(i int) {
			c := cur.Add(1)
			for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
			}
			time.Sleep(time.Microsecond)
			atomic.AddInt64(&ran[i], 1)
			if tc.limit == 1 {
				order = append(order, i)
			}
			cur.Add(-1)
		})
		for i, r := range ran {
			if r != 1 {
				t.Errorf("n %d, limit %d: task %d ran %d times", tc.n, tc.limit, i, r)
			}
		}
		if p := peak.Load(); p > int64(max(tc.limit, 1)) {
			t.Errorf("n %d, limit %d: %d tasks in flight", tc.n, tc.limit, p)
		}
		inOrder := len(order) == tc.n
		for i, got := range order {
			inOrder = inOrder && got == i
		}
		if tc.limit == 1 && !inOrder {
			t.Errorf("limit 1 ran %v, want every task in index order", order)
		}
	}
}

// Panic propagation: a panic on a worker must resurface on the caller's
// goroutine as a *PanicError carrying the original value, for both the
// serial and the parallel path.
func TestPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("panic did not propagate")
				}
				pe, ok := r.(*PanicError)
				if !ok {
					t.Fatalf("recovered %T, want *PanicError", r)
				}
				if pe.Value != "boom 7" {
					t.Errorf("panic value = %v, want boom 7", pe.Value)
				}
				if len(pe.Stack) == 0 {
					t.Error("panic stack lost")
				}
			}()
			ForEach(context.Background(), workers, 64, func(i int) error {
				if i == 7 {
					panic("boom 7")
				}
				return nil
			})
		})
	}
}

func TestPanicErrorUnwrap(t *testing.T) {
	sentinel := errors.New("sentinel")
	pe := &PanicError{Value: sentinel}
	if !errors.Is(pe, sentinel) {
		t.Error("PanicError should unwrap to the panicked error")
	}
	if (&PanicError{Value: "text"}).Unwrap() != nil {
		t.Error("non-error panic value should unwrap to nil")
	}
	if (&PanicError{Value: "x", Stack: []byte("s")}).Error() == "" {
		t.Error("empty Error()")
	}
}

// Deterministic errors: the lowest-index failure wins no matter which worker
// hit it first.
func TestLowestIndexErrorWins(t *testing.T) {
	errAt := func(i int) error { return fmt.Errorf("task %d failed", i) }
	for _, workers := range []int{1, 8} {
		for trial := 0; trial < 20; trial++ {
			err := ForEach(context.Background(), workers, 100, func(i int) error {
				if i >= 10 && i%10 == 0 {
					// Make high-index failures finish first.
					time.Sleep(time.Duration(100-i) * time.Microsecond)
					return errAt(i)
				}
				return nil
			})
			if err == nil {
				t.Fatal("expected an error")
			}
			if got := err.Error(); got != "task 10 failed" {
				t.Fatalf("workers=%d: got %q, want the lowest-index error", workers, got)
			}
		}
	}
}

// Cancellation: once the context is cancelled, undispatched tasks must be
// abandoned and ctx.Err() returned.
func TestCancellationStopsDispatch(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			var ran atomic.Int64
			const n = 10000
			err := ForEach(ctx, workers, n, func(i int) error {
				if ran.Add(1) == 5 {
					cancel()
				}
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if ran.Load() >= n {
				t.Errorf("all %d tasks ran despite cancellation", n)
			}
		})
	}
}

func TestPreCancelledContextRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForEach(ctx, 4, 100, func(i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d tasks ran on a dead context", ran.Load())
	}
}

// An error must stop further dispatch (workers drain, tail tasks never run).
func TestErrorStopsDispatch(t *testing.T) {
	var ran atomic.Int64
	const n = 100000
	err := ForEach(context.Background(), 4, n, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if ran.Load() >= n {
		t.Error("error did not stop dispatch")
	}
}

func TestZeroAndNegativeTaskCounts(t *testing.T) {
	for _, n := range []int{0, -5} {
		called := false
		if err := ForEach(context.Background(), 4, n, func(i int) error {
			called = true
			return nil
		}); err != nil {
			t.Errorf("n=%d: err %v", n, err)
		}
		if called {
			t.Errorf("n=%d: fn called", n)
		}
	}
	out, err := Map(context.Background(), 4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Errorf("empty Map: %v %v", out, err)
	}
}

func TestNilContextMeansBackground(t *testing.T) {
	got, err := Map(nil, 2, 10, func(i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// Shared-state stress under -race: concurrent tasks writing disjoint slice
// slots plus a mutex-guarded accumulator must be race-clean and exact.
func TestSharedStateStress(t *testing.T) {
	const m = 2000
	sum := 0
	var mu sync.Mutex
	slots := make([]int, m)
	err := ForEach(context.Background(), 16, m, func(i int) error {
		slots[i] = i
		mu.Lock()
		sum += i
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := m * (m - 1) / 2
	if sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
	for i, v := range slots {
		if v != i {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
}

// Map after an error returns the deterministic partial prefix untouched
// beyond zero values.
func TestMapPartialOnError(t *testing.T) {
	out, err := Map(context.Background(), 1, 10, func(i int) (int, error) {
		if i == 4 {
			return 0, errors.New("stop")
		}
		return i + 1, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	for i := 0; i < 4; i++ {
		if out[i] != i+1 {
			t.Errorf("out[%d] = %d", i, out[i])
		}
	}
	for i := 4; i < 10; i++ {
		if out[i] != 0 {
			t.Errorf("out[%d] = %d, want zero (never ran)", i, out[i])
		}
	}
}
