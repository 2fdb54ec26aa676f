package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Errorf("Workers(3) = %d", Workers(3))
	}
	if Workers(1) != 1 {
		t.Errorf("Workers(1) = %d", Workers(1))
	}
	if Workers(0) < 1 || Workers(-5) < 1 {
		t.Error("Workers must resolve to >= 1")
	}
}

func TestChunksCoverExactly(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7, 64} {
		for _, n := range []int{0, 1, 2, 5, 17, 100} {
			visits := make([]int32, n)
			Chunks(workers, n, func(shard, lo, hi int) {
				if lo >= hi {
					t.Errorf("w=%d n=%d: empty shard [%d,%d)", workers, n, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("w=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
		}
	}
}

func TestChunksShardIndicesDense(t *testing.T) {
	n := 37
	workers := 4
	want := NumChunks(workers, n)
	seen := make([]atomic.Bool, want)
	Chunks(workers, n, func(shard, lo, hi int) {
		if shard < 0 || shard >= want {
			t.Errorf("shard %d out of [0,%d)", shard, want)
			return
		}
		if seen[shard].Swap(true) {
			t.Errorf("shard %d ran twice", shard)
		}
	})
	for i := range seen {
		if !seen[i].Load() {
			t.Errorf("shard %d never ran", i)
		}
	}
}

func TestForEachBoundedFanOut(t *testing.T) {
	var inFlight, peak atomic.Int32
	ForEach(3, 100, func(i int) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		inFlight.Add(-1)
	})
	if p := peak.Load(); p > 3 {
		t.Errorf("observed %d concurrent workers, want <= 3", p)
	}
}

func TestForEachErrJoinsAllInOrder(t *testing.T) {
	err := ForEachErr(4, 10, func(i int) error {
		if i%3 == 0 {
			return fmt.Errorf("item %d failed", i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected joined error")
	}
	msg := err.Error()
	wantOrder := []string{"item 0", "item 3", "item 6", "item 9"}
	last := -1
	for _, w := range wantOrder {
		idx := strings.Index(msg, w)
		if idx < 0 {
			t.Fatalf("error %q missing from %q", w, msg)
		}
		if idx < last {
			t.Errorf("error %q out of index order in %q", w, msg)
		}
		last = idx
	}
	if err := ForEachErr(4, 10, func(int) error { return nil }); err != nil {
		t.Errorf("all-nil run returned %v", err)
	}
	if err := ForEachErr(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("empty run returned %v", err)
	}
}

func TestWorkersDegradesAbsurdRequests(t *testing.T) {
	if got := Workers(maxWorkers); got != maxWorkers {
		t.Errorf("Workers(maxWorkers) = %d, want %d", got, maxWorkers)
	}
	if got := Workers(maxWorkers + 1); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(maxWorkers+1) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(1 << 30); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(1<<30) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

func TestChunksRethrowsWorkerPanicOnCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatalf("workers=%d: panic was swallowed", workers)
				}
				p, ok := v.(*Panic)
				if !ok {
					t.Fatalf("workers=%d: recovered %T, want *Panic", workers, v)
				}
				if p.Value != "boom" {
					t.Errorf("workers=%d: panic value %v, want boom", workers, p.Value)
				}
				if len(p.Stack) == 0 {
					t.Errorf("workers=%d: panic stack not captured", workers)
				}
			}()
			Chunks(workers, 16, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					if i == 7 {
						panic("boom")
					}
				}
			})
		}()
	}
}

func TestPanicUnwrapsErrorValue(t *testing.T) {
	sentinel := errors.New("worker failed")
	err := ForEachErr(2, 8, func(i int) error {
		if i == 3 {
			panic(sentinel)
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not surfaced as error")
	}
	var p *Panic
	if !errors.As(err, &p) {
		t.Fatalf("error %T is not a *Panic", err)
	}
	if !errors.Is(err, sentinel) {
		t.Errorf("panic with error value should unwrap to it; got %v", err)
	}
}

func TestForEachErrReturnsPanicAsError(t *testing.T) {
	err := ForEachErr(4, 100, func(i int) error {
		if i == 50 {
			panic("kaput")
		}
		return nil
	})
	var p *Panic
	if !errors.As(err, &p) {
		t.Fatalf("ForEachErr returned %v (%T), want *Panic", err, err)
	}
	if !strings.Contains(err.Error(), "kaput") {
		t.Errorf("panic message lost: %v", err)
	}
}

func TestForEachCtxNilAndLiveContexts(t *testing.T) {
	var count atomic.Int32
	if err := ForEachCtx(nil, 4, 200, func(int) { count.Add(1) }); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
	if count.Load() != 200 {
		t.Errorf("nil ctx ran %d items, want 200", count.Load())
	}
	count.Store(0)
	if err := ForEachCtx(context.Background(), 4, 200, func(int) { count.Add(1) }); err != nil {
		t.Fatalf("live ctx: %v", err)
	}
	if count.Load() != 200 {
		t.Errorf("live ctx ran %d items, want 200", count.Load())
	}
}

func TestForEachCtxCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := ForEachCtx(ctx, 2, 50, func(int) { ran = true })
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v should wrap context.Canceled", err)
	}
	if ran {
		t.Error("pre-canceled context still ran items")
	}
}

func TestForEachCtxStopsMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var count atomic.Int32
	const n = 1 << 20
	err := ForEachCtx(ctx, 2, n, func(i int) {
		if count.Add(1) == 100 {
			cancel()
		}
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if c := count.Load(); int(c) >= n {
		t.Errorf("cancellation did not stop the loop: ran all %d items", c)
	}
}

func TestForEachCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err := ForEachCtx(ctx, 2, 1<<20, func(int) { time.Sleep(10 * time.Microsecond) })
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}

func TestCanceledHelper(t *testing.T) {
	if err := Canceled(nil); err != nil {
		t.Errorf("Canceled(nil) = %v", err)
	}
	if err := Canceled(context.Background()); err != nil {
		t.Errorf("Canceled(live) = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Canceled(ctx); !errors.Is(err, ErrCanceled) {
		t.Errorf("Canceled(done) = %v, want ErrCanceled", err)
	}
}

func TestMapDeterministicOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		got := Map(workers, 50, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}
