// Package par is a small dependency-free worker pool used by the build and
// verify engines. All helpers share the same contract:
//
//   - bounded fan-out: at most Workers(w) goroutines run at once, and the
//     index space is split into contiguous chunks so shard-local state (maps,
//     scratch buffers) amortizes across many items;
//   - deterministic results: outputs are collected by index, never by
//     completion order, so callers observe the same result regardless of the
//     worker count or scheduling;
//   - full error collection: ForEachErr runs every item even after failures
//     and joins all errors in index order, mirroring how grid.Check reports
//     every violation instead of the first;
//   - panic containment: a panic in a worker goroutine is captured with its
//     stack and rethrown exactly once on the caller's goroutine as a *Panic,
//     so callers can recover it (a panic on a bare goroutine would kill the
//     process no matter what the caller does);
//   - cooperative cancellation: the Ctx variants stop dispatching new items
//     once the context is done and return an error wrapping ErrCanceled.
package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrCanceled is wrapped by every error the Ctx helpers return when a
// context expires; errors.Is(err, ErrCanceled) identifies a canceled or
// timed-out build/verify. The context's own cause (context.Canceled or
// context.DeadlineExceeded) is wrapped too.
var ErrCanceled = errors.New("mlvlsi: canceled")

// Canceled returns nil while ctx (which may be nil) is live, and an error
// wrapping both ErrCanceled and the context's cause once it is done.
func Canceled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// Panic carries a panic captured in a worker goroutine: the original panic
// value plus the worker's stack at the point of the panic. Chunks rethrows
// it on the caller's goroutine; ForEachErr returns it as an error.
type Panic struct {
	Value any
	Stack []byte
}

func (p *Panic) Error() string {
	return fmt.Sprintf("panic in parallel worker: %v\n%s", p.Value, p.Stack)
}

// Unwrap exposes the original panic value when it was an error.
func (p *Panic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// maxWorkers bounds the goroutine fan-out a caller can request. Requests
// beyond it degrade to GOMAXPROCS (the available parallelism) instead of
// erroring or fork-bombing the scheduler.
const maxWorkers = 1 << 12

// Workers resolves a worker-count knob: 1 <= n <= 4096 means exactly n
// workers, larger values degrade gracefully to runtime.GOMAXPROCS(0), and
// anything else (the zero value) means runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n >= 1 {
		if n > maxWorkers {
			return runtime.GOMAXPROCS(0)
		}
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Chunks splits [0, n) into at most Workers(workers) contiguous, balanced,
// non-empty ranges and calls fn(shard, lo, hi) for each concurrently. It
// returns after every shard completes. The shard index is dense in
// [0, shards) so callers can preallocate per-shard result slots.
//
// A panic in any shard is captured (first one wins) and rethrown as a
// *Panic on the caller's goroutine after all shards finish, for both the
// serial and the concurrent path.
func Chunks(workers, n int, fn func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	var captured atomic.Pointer[Panic]
	capture := func() {
		if v := recover(); v != nil {
			p, ok := v.(*Panic)
			if !ok {
				p = &Panic{Value: v, Stack: debug.Stack()}
			}
			captured.CompareAndSwap(nil, p)
		}
	}
	if w == 1 {
		func() {
			defer capture()
			fn(0, 0, n)
		}()
	} else {
		var wg sync.WaitGroup
		for shard := 0; shard < w; shard++ {
			lo := shard * n / w
			hi := (shard + 1) * n / w
			wg.Add(1)
			go func(shard, lo, hi int) {
				defer wg.Done()
				defer capture()
				fn(shard, lo, hi)
			}(shard, lo, hi)
		}
		wg.Wait()
	}
	if p := captured.Load(); p != nil {
		panic(p)
	}
}

// NumChunks returns the number of shards Chunks will use for n items.
func NumChunks(workers, n int) int {
	if n <= 0 {
		return 0
	}
	if w := Workers(workers); w < n {
		return w
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n) across the worker pool.
func ForEach(workers, n int, fn func(i int)) {
	Chunks(workers, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ctxCheckStride bounds how many items a worker processes between context
// polls: cheap enough to be negligible per item, frequent enough that
// cancellation latency stays well under the cost of a handful of items.
const ctxCheckStride = 64

// ForEachCtx is ForEach with cooperative cancellation: once ctx (which may
// be nil, meaning no cancellation) is done, workers stop picking up new
// items and the call returns an error wrapping ErrCanceled. Items already
// started run to completion; on a nil error every item ran.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int)) error {
	if ctx == nil {
		ForEach(workers, n, fn)
		return nil
	}
	if err := Canceled(ctx); err != nil {
		return err
	}
	var stop atomic.Bool
	Chunks(workers, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if i%ctxCheckStride == 0 {
				if stop.Load() {
					return
				}
				if ctx.Err() != nil {
					stop.Store(true)
					return
				}
			}
			fn(i)
		}
	})
	return Canceled(ctx)
}

// ForEachErr runs fn(i) for every i in [0, n), collects every returned
// error, and joins them in index order (nil when all calls succeed). Unlike
// errgroup-style helpers it does not cancel on first failure: the engines
// here want the complete violation/error set. A panic in fn surfaces as a
// *Panic error on the caller instead of crashing the process.
func ForEachErr(workers, n int, fn func(i int) error) (err error) {
	if n <= 0 {
		return nil
	}
	defer func() {
		if v := recover(); v != nil {
			if p, ok := v.(*Panic); ok {
				err = p
				return
			}
			panic(v)
		}
	}()
	errs := make([]error, n)
	Chunks(workers, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			errs[i] = fn(i)
		}
	})
	return errors.Join(errs...)
}

// Map runs fn(i) for every i in [0, n) and returns the results in index
// order.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) {
		out[i] = fn(i)
	})
	return out
}
