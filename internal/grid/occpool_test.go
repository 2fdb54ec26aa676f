package grid

import (
	"context"
	"errors"
	"runtime/debug"
	"testing"
	"time"

	"mlvlsi/internal/par"
)

// fuseCtx is a context that reports itself canceled starting with its
// n-th Err poll, letting a test fail the tile walk deterministically in
// the middle of a verify (the verifier polls every ctxStride wires).
type fuseCtx struct {
	polls, fuse int
}

func (c *fuseCtx) Err() error {
	c.polls++
	if c.polls >= c.fuse {
		return context.Canceled
	}
	return nil
}

func (c *fuseCtx) Done() <-chan struct{}                   { return nil }
func (c *fuseCtx) Deadline() (deadline time.Time, ok bool) { return }
func (c *fuseCtx) Value(key any) any                       { return nil }

// TestOccPoolRefillsAfterMidVerifyFailure pins the pooled-bitset leak
// contract: the tile walk must return its occupancy buffer to the pool on
// every exit, including a cancellation in the middle of walking a tile. A
// leak would make each canceled check allocate a fresh bitset; with the
// pool refilling, a warm steady state allocates none.
func TestOccPoolRefillsAfterMidVerifyFailure(t *testing.T) {
	// The pool survives GC only probabilistically; switch GC off so a
	// background collection cannot empty it mid-assertion.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := 0
	occPool.New = func() any {
		allocs++
		return &occBuf{}
	}
	defer func() { occPool.New = nil }()

	// One tile of 2*ctxStride wires, so the tile walk polls the context
	// twice. The last poll of a whole check is the one after the walk; the
	// one before it is the walk's second poll, mid-tile.
	wires := make([]Wire, 2*ctxStride)
	for i := range wires {
		wires[i] = Wire{ID: i, U: -1, V: -1, Path: []Point{{0, i, 1}, {4, i, 1}}}
	}
	opts := CheckOptions{Workers: 1}
	if tl, ok := NewTiling(wires, 0, 1); !ok || tl.Tiles() != 1 {
		t.Fatalf("wire set should fit one tile, got %+v (ok %v)", tl, ok)
	}
	dry := &fuseCtx{fuse: 1 << 30}
	if vs, err := Verify(dry, wires, opts); err != nil || vs != nil {
		t.Fatalf("legal layout: %v %v", vs, err)
	}
	fuse := dry.polls - 1

	run := func() {
		t.Helper()
		vs, err := Verify(&fuseCtx{fuse: fuse}, wires, opts)
		if !errors.Is(err, par.ErrCanceled) {
			t.Fatalf("Verify error = %v, want wrapping par.ErrCanceled", err)
		}
		if vs != nil {
			t.Fatalf("canceled check returned violations: %v", vs)
		}
	}

	run() // warm the pool (first check may allocate the one pooled buffer)
	const iterations = 32
	allocs = 0
	for i := 0; i < iterations; i++ {
		run()
	}
	// A leak allocates on every iteration (the buffer never comes back);
	// a refilling pool allocates on none. Under -race, sync.Pool drops a
	// random fraction of Puts by design, so only the every-iteration
	// signature is distinguishable there.
	if raceEnabled {
		if allocs >= iterations {
			t.Errorf("pool leaked on the mid-verify error path: all %d canceled checks allocated a fresh bitset", allocs)
		}
	} else if allocs != 0 {
		t.Errorf("pool leaked on the mid-verify error path: %d fresh bitset allocations across %d canceled checks, want 0", allocs, iterations)
	}
}
