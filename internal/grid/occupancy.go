package grid

import "sync"

// The occupancy bitset is what makes the tile walk cheap on the inputs
// Thompson-model layouts actually produce: a tile is a compact 3-D box whose
// unit-edge slots can be addressed by a flat index. Each slot is one bit in
// a pooled []uint64, so the legal path does a multiply-add and a
// test-and-set per edge instead of hashing a 32-byte struct key — and
// allocates nothing in steady state. Owner identity (which wire claimed an
// edge first) is not stored at all; it is recovered by a deterministic
// replay only when a collision is found, which keeps the happy path at one
// bit per slot.

// occIndexer maps a unit edge (lower endpoint + axis) inside a box to a flat
// slot index: 3*(((z-minZ)*h + (y-minY))*w + (x-minX)) + axis. The tile
// walk only indexes edges whose lower endpoint lies in the tile, so lookups
// need no range checks.
type occIndexer struct {
	minX, minY, minZ int
	w, h             int // lattice points per planar axis (extent + 1)
	cells            int // 3 * w * h * d: total unit-edge slots
}

// index is the tile walk's per-edge multiply-add; it must stay allocation-
// and call-free.
//
//mlvlsi:hotpath
func (ix occIndexer) index(low Point, axis Axis) int {
	return 3*(((low.Z-ix.minZ)*ix.h+(low.Y-ix.minY))*ix.w+(low.X-ix.minX)) + int(axis)
}

// occBuf is a pooled occupancy bitset. Pooling the wrapper struct (not the
// slice) keeps Get/Put free of interface-boxing allocations, so repeated
// checks of same-sized layouts run at zero allocations per call.
type occBuf struct {
	bits []uint64
}

var occPool sync.Pool

// occGet returns a zeroed bitset of the given word count, reusing pooled
// backing storage when it is large enough.
//
//mlvlsi:hotpath
func occGet(words int) *occBuf {
	b, _ := occPool.Get().(*occBuf)
	if b == nil {
		b = &occBuf{}
	}
	if cap(b.bits) >= words {
		b.bits = b.bits[:words]
		clear(b.bits)
	} else {
		b.bits = make([]uint64, words)
	}
	return b
}

func occPut(b *occBuf) { occPool.Put(b) }
