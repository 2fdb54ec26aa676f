// Arena-backed build scratch. A BuildScratch gives the engine reusable,
// size-classed slabs for every per-phase allocation — the label bijection
// bitmap, the interval-disjointness tuples, per-node port demand and port
// items, per-channel track indexes, and grid prefix sums — so a
// Hypercube(10) build runs in about fifteen allocations. Every build runs on
// one: the caller's own (Spec.Scratch), reused across its builds and
// accounted in the scratch counters, or, when Spec.Scratch is nil, one
// borrowed from scratchPool for the length of the build.
//
// Ownership contract (DESIGN.md §9): by default a layout built with a
// scratch aliases nothing in it — the layout struct, node slice, wire slice,
// and point slab are allocated fresh per build and handed to the caller
// outright, so the scratch may be reset (reused) immediately. In transient
// mode (SetTransient) even those come from the scratch: the returned layout
// is only valid until the next build on the same scratch, the regime the
// VerifyBatch pipeline runs in, where layouts are verified and dropped. A
// pooled scratch is never transient.
package core

import (
	"sync"

	"mlvlsi/internal/grid"
	"mlvlsi/internal/layout"
	"mlvlsi/internal/obs"
)

// scratchPool supplies the scratch of every build whose Spec.Scratch is nil.
// It must stay a sync.Pool rather than a retained free list: a GC empties
// it, so a process that has stopped building keeps no scratch alive.
var scratchPool = sync.Pool{New: func() any { return &BuildScratch{pooled: true} }}

// acquireScratch returns the scratch a build runs on: own when the caller
// supplied one, otherwise a pooled scratch, which releaseScratch returns.
func acquireScratch(own *BuildScratch) *BuildScratch {
	if own != nil {
		return own
	}
	return scratchPool.Get().(*BuildScratch)
}

func releaseScratch(s *BuildScratch) {
	if s.pooled {
		scratchPool.Put(s)
	}
}

// slab is a bump allocator over one backing array of T. take hands out
// aliased subslices until the array is exhausted, then replaces it with one
// of at least twice the size (power-of-two size classes), so after a warm-up
// build every take is allocation-free. Outstanding slices keep the old array
// alive and stay valid across a growth; reset only rewinds the offset, so
// slices from the previous build are overwritten by the next one — the
// aliasing rule the ownership contract is about.
type slab[T any] struct {
	buf []T
	off int
}

func (s *slab[T]) take(n int, zero bool) []T {
	if s.off+n > len(s.buf) {
		c := 2 * len(s.buf)
		if c < 64 {
			c = 64
		}
		for c < n {
			c *= 2
		}
		s.buf = make([]T, c)
		s.off = 0
	}
	out := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	if zero {
		clear(out)
	}
	return out
}

func (s *slab[T]) reset() { s.off = 0 }

// ivRec is one half-position track interval for the overlap check, in the
// flat form scanOverlaps sorts by (channel, track, u, v).
type ivRec struct {
	ch, track int
	u, v      int
}

// BuildScratch is the reusable allocation arena for the engine's build path.
// The zero value is ready to use; NewBuildScratch exists for symmetry and
// documentation. A scratch may be reused for any number of builds but never
// concurrently: it is owned by one build at a time, with reuse across
// goroutines ordered through a channel or pool.
type BuildScratch struct {
	transient bool
	warm      bool
	pooled    bool // owned by scratchPool: safe mode, no scratch counters

	ints    slab[int]
	i32     slab[int32]
	bools   slab[bool]
	items   slab[portItem]
	assigns slab[trackAssign]
	ivs     slab[ivRec]

	// Result slabs, used only in transient mode; in the default mode the
	// layout and everything it references are allocated fresh per build.
	rects slab[grid.Rect]
	wires slab[grid.Wire]
	pts   slab[grid.Point]
	lay   layout.Layout
}

// NewBuildScratch returns an empty scratch; slabs grow to fit on first use
// and are retained for reuse.
func NewBuildScratch() *BuildScratch { return &BuildScratch{} }

// SetTransient toggles transient mode: when on, the layout struct, node
// slice, wire slice, and point slab also come from the scratch, so the
// returned layout is valid only until the next build (or Reset) on this
// scratch. Off — the default — hands out freshly allocated results that
// alias nothing.
func (s *BuildScratch) SetTransient(on bool) { s.transient = on }

// Reset rewinds every slab for reuse. Builds reset the scratch themselves on
// entry, so explicit calls only matter to drop the aliasing claim a
// transient-mode layout has on the slabs.
func (s *BuildScratch) Reset() {
	s.ints.reset()
	s.i32.reset()
	s.bools.reset()
	s.items.reset()
	s.assigns.reset()
	s.ivs.reset()
	s.rects.reset()
	s.wires.reset()
	s.pts.reset()
}

// Element sizes for Bytes, in the style of layout.MemBytes: 64-bit words for
// int-backed types, struct sizes summed field-wise with alignment padding.
const (
	intSize    = 8
	int32Size  = 4
	boolSize   = 1
	itemSize   = 40 // portItem: dir, rank + endRef{kind, idx, isV(+pad)}
	assignSize = 16 // trackAssign: group, slot
	ivRecSize  = 32 // ivRec: ch, track, u, v
	rectSize   = 32 // grid.Rect: X, Y, W, H
	wireSize   = 48 // grid.Wire: ID, U, V, Path header
	pointSize  = 24 // grid.Point: X, Y, Z
)

// Bytes reports the scratch's retained capacity in bytes, the value behind
// the scratch_bytes gauge.
func (s *BuildScratch) Bytes() int64 {
	return int64(cap(s.ints.buf))*intSize +
		int64(cap(s.i32.buf))*int32Size +
		int64(cap(s.bools.buf))*boolSize +
		int64(cap(s.items.buf))*itemSize +
		int64(cap(s.assigns.buf))*assignSize +
		int64(cap(s.ivs.buf))*ivRecSize +
		int64(cap(s.rects.buf))*rectSize +
		int64(cap(s.wires.buf))*wireSize +
		int64(cap(s.pts.buf))*pointSize
}

// beginBuild readies the scratch for one build and accounts the reuse: the
// first build on a caller-owned scratch is a warm-up, every later one is a
// scratch_reuse. Pooled scratches stay out of the scratch counters, which
// describe caller-owned scratches.
func (s *BuildScratch) beginBuild(o *obs.Observer) {
	s.Reset()
	if s.pooled {
		return
	}
	if s.warm {
		o.Add(obs.ScratchReuses, 1)
	}
	s.warm = true
}

// noteBytes sets the scratch_bytes gauge after a successful build on a
// caller-owned scratch.
func (s *BuildScratch) noteBytes(o *obs.Observer) {
	if !s.pooled {
		o.Set(obs.ScratchBytes, s.Bytes())
	}
}

// trackTable maps (channel, track) to its assignment. It stores, per
// channel, the sorted unique track ids (a shared segment of the scratch int
// slab) plus a parallel assignment slab, answered by binary search in
// lookup.
type trackTable struct {
	starts  []int32 // per-channel segment offsets into ids/as (len channels+1)
	uniqLen []int32 // sorted-unique prefix length of each segment
	ids     []int
	as      []trackAssign
}

// set records the assignment of the track at index idx of channel ch's
// sorted unique ids.
func (t *trackTable) set(ch, idx int, a trackAssign) {
	t.as[int(t.starts[ch])+idx] = a
}

// lookup returns the assignment of track in channel ch. Every queried
// (channel, track) pair was placed by assignTracks, so the binary search
// always lands on an exact match.
//
//mlvlsi:hotpath
func (t *trackTable) lookup(ch, track int) trackAssign {
	lo := int(t.starts[ch])
	hi := lo + int(t.uniqLen[ch])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.ids[mid] < track {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return t.as[lo]
}

// portTable maps a wire end to its port offset within the node side: a dense
// table laid out as [row-edge ends ×2 | column-edge ends ×2 | bent U ends |
// bent V ends].
type portTable struct {
	dense      []int32
	nRow, nCol int
}

func newPortTable(s *BuildScratch, nRow, nCol, nBent int) *portTable {
	return &portTable{
		dense: s.i32.take(2*nRow+2*nCol+2*nBent, false),
		nRow:  nRow, nCol: nCol,
	}
}

func (p *portTable) index(ref endRef) int {
	switch ref.kind {
	case 0:
		i := 2 * ref.idx
		if ref.isV {
			i++
		}
		return i
	case 1:
		i := 2*p.nRow + 2*ref.idx
		if ref.isV {
			i++
		}
		return i
	case 2:
		return 2*p.nRow + 2*p.nCol + 2*ref.idx
	default: // kind 3, the bent V end
		return 2*p.nRow + 2*p.nCol + 2*ref.idx + 1
	}
}

func (p *portTable) set(ref endRef, off int) {
	p.dense[p.index(ref)] = int32(off)
}

// port returns the offset assigned to ref; every ref queried during
// realization was set during port assignment.
//
//mlvlsi:hotpath
func (p *portTable) port(ref endRef) int {
	return int(p.dense[p.index(ref)])
}

// endsTable collects the per-node wire-end items for port assignment: it
// count-then-fills one flat slab using the already-computed per-node port
// demand as the counts.
type endsTable struct {
	flat   []portItem
	starts []int32
	next   []int32
}

func (t *endsTable) init(s *BuildScratch, counts []int) {
	n := len(counts)
	t.starts = s.i32.take(n+1, false)
	t.next = s.i32.take(n, false)
	total := 0
	for i, c := range counts {
		t.starts[i] = int32(total)
		t.next[i] = int32(total)
		total += c
	}
	t.starts[n] = int32(total)
	t.flat = s.items.take(total, false)
}

func (t *endsTable) add(node int, it portItem) {
	t.flat[t.next[node]] = it
	t.next[node]++
}

func (t *endsTable) seg(node int) []portItem {
	return t.flat[t.starts[node]:t.next[node]]
}
