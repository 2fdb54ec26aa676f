package grid

// The tiled verifier is Verify's engine. A bitset over the whole bounding
// box — 3·W·H·D unit-edge slots — stops scaling on Hypercube(20)-class
// layouts (area Θ(N²), Greenberg & Guan); tiling bounds the working set by
// a *tile* instead: the box is partitioned into planar tiles (full Z depth)
// whose pooled bitsets fit a per-tile budget, wires are streamed through
// the tiles their segments intersect (clipped at tile borders, never
// re-walked whole per tile), tiles are verified independently on the par
// pool, and unit edges straddling a tile seam are reconciled in a final
// pass so no overlap spanning a boundary is missed. A box that fits one
// tile is a single bitset walk with nothing to reconcile.
//
// Edge→tile assignment is total and order-free: every unit edge belongs to
// the tile containing its lower endpoint. An X-edge whose lower endpoint
// sits on its tile's last lattice column (and likewise a Y-edge on the last
// row) crosses into the neighboring tile; those are the border edges,
// collected as packed claims instead of bitset marks. Z-edges never cross a
// seam — tiles span the full depth. Interior conflicts are found by the
// per-tile pooled bitset; border conflicts by a hash map over the sorted
// claims, processed in global wire order so ownership attribution follows
// the first-claimant rule.
//
// The output contract is the canonical violation set (see Verify), byte for
// byte for every worker count and every tile geometry; the differential
// tests pin it against Reference.

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"mlvlsi/internal/obs"
	"mlvlsi/internal/par"
)

// defaultTileBytes is the per-tile bitset budget: 1 MiB per tile keeps the
// working set cache-resident while the tile count stays small on layouts up
// to the mid hypercube sizes. A positive CheckOptions.TileBytes can only
// lower it (see tileBudget).
const defaultTileBytes = 1 << 20

// maxTiles bounds the partition size; a budget/box combination that would
// shatter the plane into more tiles than this (adversarially sparse
// geometry, sub-kilobyte ceilings over huge boxes) makes the tiling refuse,
// and Verify falls back to the map reference.
const maxTiles = 1 << 16

// stopNone marks a wire whose walk hits no layer-range or discipline
// violation; every real stop position is smaller.
const stopNone = int32(1<<31 - 1)

// ErrOutsideTiling is returned by ReverifyTiles when a wire's geometry
// leaves the tiling's bounding box: the partition no longer covers the wire
// set, so the caller must re-tile (NewTiling) and run a full check.
var ErrOutsideTiling = errors.New("grid: wire set extends outside the tiling's bounding box")

// Tiling is a spatial partition of a wire set's bounding box into NX×NY
// planar tiles of TileW×TileH lattice points (edge tiles may be smaller);
// tiles span the full Z depth, so vias never cross tile seams. Build one
// with NewTiling; the zero value is not a valid tiling.
type Tiling struct {
	Box          BoundingBox
	TileW, TileH int
	NX, NY       int
}

// NewTiling measures the wire set and partitions its bounding box exactly
// as Verify does for the same tileBytes and workers (see
// CheckOptions.TileBytes): one tile's occupancy bitset fits the default
// per-tile budget, capped at tileBytes/workers when tileBytes is positive.
// ok is false when the set is empty or the tiling is infeasible (see
// maxTiles) — the boxes Verify hands to the map reference.
func NewTiling(wires []Wire, tileBytes, workers int) (Tiling, bool) {
	box, _ := Wires(wires).measure()
	tl, _, ok := newTilingFromBox(box, tileBudget(tileBytes, par.Workers(workers)))
	return tl, ok
}

// tileBudget resolves the per-tile bitset budget in bytes: defaultTileBytes,
// capped at tileBytes/workers for a positive ceiling. With no ceiling the
// budget — and so the partition — does not depend on the worker count.
func tileBudget(tileBytes, workers int) int {
	if tileBytes > 0 && tileBytes/workers < defaultTileBytes {
		return tileBytes / workers
	}
	return defaultTileBytes
}

// newTilingFromBox picks the tile dimensions for a measured box: start at
// the whole box and halve the larger planar side until the tile's bitset
// (3·tw·th·d slots) fits perTileBytes. It also derives the packed edge
// encoder border reconciliation uses. ok is false when the box is empty,
// coordinates cannot pack into 64 bits, the partition would exceed
// maxTiles, or even a 1×1 tile cannot fit the budget (a Z extent taller
// than the budget's bit count).
func newTilingFromBox(box BoundingBox, perTileBytes int) (Tiling, edgeEncoder, bool) {
	if box.Empty() {
		return Tiling{}, edgeEncoder{}, false
	}
	enc, ok := newEdgeEncoderFromBox(box)
	if !ok {
		return Tiling{}, edgeEncoder{}, false
	}
	w := box.MaxX - box.MinX + 1
	h := box.MaxY - box.MinY + 1
	d := box.MaxZ - box.MinZ + 1
	limit := 8
	if perTileBytes > 1 {
		limit = perTileBytes * 8
	}
	tw, th := w, h
	for !tileFits(tw, th, d, limit) && (tw > 1 || th > 1) {
		if tw >= th {
			tw = (tw + 1) / 2
		} else {
			th = (th + 1) / 2
		}
	}
	if !tileFits(tw, th, d, limit) {
		return Tiling{}, edgeEncoder{}, false
	}
	nx := (w + tw - 1) / tw
	ny := (h + th - 1) / th
	if nx > maxTiles || ny > maxTiles || nx*ny > maxTiles {
		return Tiling{}, edgeEncoder{}, false
	}
	return Tiling{Box: box, TileW: tw, TileH: th, NX: nx, NY: ny}, enc, true
}

// tileFits reports whether a tw×th×d tile's slot count 3·tw·th·d stays at
// or below limit, overflow-safe: it rejects stepwise against the limit,
// which always fits an int.
func tileFits(tw, th, d, limit int) bool {
	cells := 3
	for _, extent := range [...]int{tw, th, d} {
		if extent > limit/cells {
			return false
		}
		cells *= extent
	}
	return true
}

// Tiles returns the number of tiles in the partition.
func (t Tiling) Tiles() int { return t.NX * t.NY }

// TileIndex returns the tile holding the planar lattice point (x, y); the
// point must lie inside the tiling's box.
func (t Tiling) TileIndex(x, y int) int {
	return (y-t.Box.MinY)/t.TileH*t.NX + (x-t.Box.MinX)/t.TileW
}

// tileSpan returns the tile's inclusive planar lattice ranges.
func (t Tiling) tileSpan(tile int) (x0, x1, y0, y1 int) {
	tx, ty := tile%t.NX, tile/t.NX
	x0 = t.Box.MinX + tx*t.TileW
	x1 = minInt(x0+t.TileW-1, t.Box.MaxX)
	y0 = t.Box.MinY + ty*t.TileH
	y1 = minInt(y0+t.TileH-1, t.Box.MaxY)
	return
}

// cells returns one tile's unit-edge slot count. It is uniform across
// tiles — edge tiles waste the tail of the shared pooled bitset, which is
// what lets every tile reuse buffers of one size from the occ pool.
func (t Tiling) cells() int {
	return 3 * t.TileW * t.TileH * (t.Box.MaxZ - t.Box.MinZ + 1)
}

// indexer returns the occupancy indexer for one tile's sub-box.
func (t Tiling) indexer(tile int) occIndexer {
	x0, _, y0, _ := t.tileSpan(tile)
	return occIndexer{
		minX: x0, minY: y0, minZ: t.Box.MinZ,
		w: t.TileW, h: t.TileH, cells: t.cells(),
	}
}

// contains reports whether every path vertex lies inside the tiling's box.
func (t Tiling) contains(w *Wire) bool {
	for _, p := range w.Path {
		if p.X < t.Box.MinX || p.X > t.Box.MaxX ||
			p.Y < t.Box.MinY || p.Y > t.Box.MaxY ||
			p.Z < t.Box.MinZ || p.Z > t.Box.MaxZ {
			return false
		}
	}
	return true
}

// hopTiles is the hop→tile router: the tiles holding the unit edges of a
// hop from a along axis whose lower-endpoint coordinates run lo..end are
// first, first+step, …, last (a row of tiles for an x-run, a column for a
// y-run, one tile for a via run).
func (t Tiling) hopTiles(a Point, axis Axis, lo, end int) (first, last, step int) {
	switch axis {
	case AxisX:
		row := (a.Y - t.Box.MinY) / t.TileH * t.NX
		return row + (lo-t.Box.MinX)/t.TileW, row + (end-t.Box.MinX)/t.TileW, 1
	case AxisY:
		col := (a.X - t.Box.MinX) / t.TileW
		return (lo-t.Box.MinY)/t.TileH*t.NX + col, (end-t.Box.MinY)/t.TileH*t.NX + col, t.NX
	default:
		tile := t.TileIndex(a.X, a.Y)
		return tile, tile, 1
	}
}

// WireTiles visits (once each, in ascending order) the tiles holding at
// least one of the wire's unit edges. This is the dirty-set primitive for
// ReverifyTiles: a mutation protocol marks dirty every tile of the wire's
// old route and every tile of its new route, which guarantees any edge the
// mutation could conflict on lies in a dirty tile. Wires with malformed
// paths or geometry outside the box visit nothing.
func (t Tiling) WireTiles(w *Wire, visit func(tile int)) {
	if _, bad := w.structural(); bad || !t.contains(w) {
		return
	}
	var buf [16]int
	tiles := buf[:0]
	for i := 1; i < len(w.Path); i++ {
		a := w.Path[i-1]
		axis, lo, hi := hopRange(a, w.Path[i])
		first, last, step := t.hopTiles(a, axis, lo, hi-1)
		for tile := first; tile <= last; tile += step {
			tiles = append(tiles, tile)
		}
	}
	slices.Sort(tiles)
	for _, tile := range slices.Compact(tiles) {
		visit(tile)
	}
}

// hopRange decomposes a path hop into its axis and the ascending coordinate
// range [lo, hi] of its endpoints; the hop's unit edges have lower-endpoint
// coordinates lo..hi-1 and are walked in ascending order regardless of the
// hop's direction (Wire.UnitEdges' order). Callers have already rejected
// malformed hops, so exactly one delta is nonzero.
func hopRange(a, b Point) (Axis, int, int) {
	switch {
	case b.X != a.X:
		lo, hi := a.X, b.X
		if hi < lo {
			lo, hi = hi, lo
		}
		return AxisX, lo, hi
	case b.Y != a.Y:
		lo, hi := a.Y, b.Y
		if hi < lo {
			lo, hi = hi, lo
		}
		return AxisY, lo, hi
	default:
		lo, hi := a.Z, b.Z
		if hi < lo {
			lo, hi = hi, lo
		}
		return AxisZ, lo, hi
	}
}

// hopStop finds the hop's first layer-range or discipline violation without
// visiting its edges: planar verdicts are uniform along a hop (every edge
// shares the same Z), and a via run's only mid-hop failure is climbing past
// the top wiring layer, whose first violating edge follows from the
// endpoints. k is the violating edge's index in ascending walk order.
func hopStop(w *Wire, a Point, axis Axis, lo, hi int, opts *CheckOptions) (int, Violation, bool) {
	first := a
	switch axis {
	case AxisX:
		first.X = lo
	case AxisY:
		first.Y = lo
	default:
		first.Z = lo
	}
	if v, bad := edgeViolation(w, first, axis, opts); bad {
		return 0, v, true
	}
	if axis == AxisZ && opts.Layers > 0 && hi > opts.Layers {
		// The first edge was legal, so lo >= 0 and the run fails first at
		// the edge leaving the top layer: lower endpoint Z == Layers.
		v, _ := edgeViolation(w, Point{a.X, a.Y, opts.Layers}, AxisZ, opts)
		return opts.Layers - lo, v, true
	}
	return 0, Violation{}, false
}

// tileEdges walks w's unit edges clipped to one tile's lattice ranges, in
// global walk order, calling fn for every edge whose walk position is below
// stop. border reports a seam edge (an X-edge whose lower endpoint is on
// the tile's last column, or a Y-edge on its last row): its other endpoint
// lies in the neighboring tile, so it is claimed for reconciliation instead
// of marked in the tile bitset. The box's own last column and row never
// yield border edges — an edge's far endpoint would leave the bounding box.
// fn returning false aborts the walk.
//
//mlvlsi:hotpath
func tileEdges(w *Wire, x0, x1, y0, y1 int, stop int32, fn func(low Point, axis Axis, seq int32, border bool) bool) {
	seq := int32(0)
	for i := 1; i < len(w.Path); i++ {
		a := w.Path[i-1]
		axis, lo, hi := hopRange(a, w.Path[i])
		cnt := hi - lo
		if int64(cnt) > int64(stop-seq) {
			cnt = int(stop - seq)
		}
		if cnt > 0 {
			end := lo + cnt - 1 // last walked edge's low coordinate
			switch axis {
			case AxisX:
				if a.Y >= y0 && a.Y <= y1 {
					for x := maxInt(lo, x0); x <= minInt(end, x1); x++ {
						if !fn(Point{x, a.Y, a.Z}, AxisX, seq+int32(x-lo), x == x1) {
							return
						}
					}
				}
			case AxisY:
				if a.X >= x0 && a.X <= x1 {
					for y := maxInt(lo, y0); y <= minInt(end, y1); y++ {
						if !fn(Point{a.X, y, a.Z}, AxisY, seq+int32(y-lo), y == y1) {
							return
						}
					}
				}
			default:
				if a.X >= x0 && a.X <= x1 && a.Y >= y0 && a.Y <= y1 {
					for z := lo; z < lo+cnt; z++ {
						if !fn(Point{a.X, a.Y, z}, AxisZ, seq+int32(z-lo), false) {
							return
						}
					}
				}
			}
		}
		seq += int32(hi - lo)
		if seq >= stop {
			return
		}
	}
}

// ReverifyTiles is the incremental primitive behind interactive editing: it
// re-checks only the tiles in dirty (indices into tl's partition,
// duplicates allowed), streaming every wire's clipped edges through those
// tiles but never materializing — or even visiting — the untouched tiles'
// occupancy. The obs.TilesChecked counter advances by exactly the number of
// distinct dirty tiles, which is what the incremental tests assert.
//
// The returned violations are those detectable within the dirty tiles:
// interior and border conflicts on their edges, plus the walk, terminal,
// and structural violations of wires intersecting them (a wire whose walk
// stops before its first edge intersects no tile and is reported only by a
// full check). Correctness requires the dirty set to cover every tile of
// each mutated wire's old and new routes — use Tiling.WireTiles — and the
// wires to stay inside tl.Box; geometry outside the box returns
// ErrOutsideTiling, the signal to re-tile and run a full Verify.
func ReverifyTiles(ctx context.Context, wires []Wire, tl Tiling, dirty []int, opts CheckOptions) ([]Violation, error) {
	if err := par.Canceled(ctx); err != nil {
		return nil, err
	}
	if len(wires) == 0 || len(dirty) == 0 {
		return nil, nil
	}
	if tl.TileW <= 0 || tl.TileH <= 0 || tl.NX <= 0 || tl.NY <= 0 || tl.Box.Empty() {
		return nil, fmt.Errorf("grid: ReverifyTiles on an invalid tiling %+v", tl)
	}
	enc, ok := newEdgeEncoderFromBox(tl.Box)
	if !ok {
		return nil, fmt.Errorf("grid: tiling box %+v cannot pack edge keys", tl.Box)
	}
	mask := make([]bool, tl.Tiles())
	for _, tile := range dirty {
		if tile < 0 || tile >= len(mask) {
			return nil, fmt.Errorf("grid: dirty tile %d outside partition of %d tiles", tile, len(mask))
		}
		mask[tile] = true
	}
	return checkTiled(ctx, wires, opts, tl, enc, par.Workers(opts.Workers), mask)
}

// tileBin is the output of the binning pass: per-tile wire lists in
// ascending wire order, flattened into one slab (tile t's wires are
// wires[start[t]:start[t+1]]), each wire's walk-stop position, the
// violations found outside the occupancy walk (structural, first
// layer/discipline stop, terminals), and the edge total of the wires an
// incremental check re-walks.
type tileBin struct {
	start      []int32
	wires      []int32
	stopSeq    []int32
	pre        []seqViolation
	dirtyEdges int64
}

// binWires routes every wire to the tiles its walked unit edges occupy,
// walking segments (path hops), not edges — O(vertices + tiles touched) per
// wire on the coordinator — and computes each wire's walk-stop position
// arithmetically via hopStop, so the per-edge checks never run here. The
// per-tile lists are counted in a first pass and filled into one flat slab
// in a second, so binning allocates a fixed number of slices however many
// tiles a wire touches. mask non-nil applies ReverifyTiles' dirty-mode
// reporting rule: a wire's stop, terminal, and edge-total contributions
// count only when the wire touches a dirty tile (structural violations
// always count). ok is false when a wire leaves the tiling's box.
//
//mlvlsi:hotpath
func binWires(wires []Wire, opts *CheckOptions, tl Tiling, mask []bool, cancel *canceler) (tileBin, bool) {
	tiles := tl.Tiles()
	bin := tileBin{
		start:   make([]int32, tiles+1),
		stopSeq: make([]int32, len(wires)),
	}
	// seen[tile] holds wi+1 for the last wire counted there (-(wi+1) once
	// filled), deduplicating a wire that re-enters a tile on a later hop
	// without a per-wire set.
	seen := make([]int32, tiles)
	for wi := range wires {
		if cancel.hit(wi) {
			return bin, true
		}
		w := &wires[wi]
		if v, bad := w.structural(); bad {
			bin.pre = append(bin.pre, seqViolation{wire: int32(wi), seq: seqValidate, v: v})
			continue // stopSeq 0: the fill pass routes none of its hops
		}
		if !tl.contains(w) {
			return bin, false
		}
		touched := mask == nil
		var stopV Violation
		seq, stop := int32(0), stopNone
		edges := int64(0)
		for i := 1; i < len(w.Path); i++ {
			a := w.Path[i-1]
			axis, lo, hi := hopRange(a, w.Path[i])
			edges += int64(hi - lo)
			cnt := 0
			if stop == stopNone {
				cnt = hi - lo
				if k, v, bad := hopStop(w, a, axis, lo, hi, opts); bad {
					stop, stopV = seq+int32(k), v
					cnt = k
				}
			}
			if cnt > 0 {
				first, last, step := tl.hopTiles(a, axis, lo, lo+cnt-1)
				for t := first; t <= last; t += step {
					if mask != nil && mask[t] {
						touched = true
					}
					if seen[t] != int32(wi)+1 {
						seen[t] = int32(wi) + 1
						bin.start[t+1]++
					}
				}
			}
			seq += int32(hi - lo)
		}
		bin.stopSeq[wi] = stop
		if mask == nil || touched {
			bin.dirtyEdges += edges
			if stop != stopNone {
				bin.pre = append(bin.pre, seqViolation{wire: int32(wi), seq: stop, v: stopV})
			}
			collectTerminals(w, int32(wi), opts.Nodes, &bin.pre)
		}
	}

	next := make([]int32, tiles)
	for t := 0; t < tiles; t++ {
		bin.start[t+1] += bin.start[t]
		next[t] = bin.start[t]
	}
	bin.wires = make([]int32, bin.start[tiles])
	for wi := range wires {
		if cancel.hit(wi) {
			return bin, true
		}
		w := &wires[wi]
		stop := bin.stopSeq[wi]
		seq := int32(0)
		for i := 1; i < len(w.Path) && seq < stop; i++ {
			a := w.Path[i-1]
			axis, lo, hi := hopRange(a, w.Path[i])
			cnt := int64(hi - lo)
			if rem := int64(stop - seq); cnt > rem {
				cnt = rem
			}
			first, last, step := tl.hopTiles(a, axis, lo, lo+int(cnt)-1)
			for t := first; t <= last; t += step {
				if seen[t] != -int32(wi)-1 {
					seen[t] = -int32(wi) - 1
					bin.wires[next[t]] = int32(wi)
					next[t]++
				}
			}
			seq += int32(hi - lo)
		}
	}
	return bin, true
}

// tileResult is one walked tile's output: interior shared-edge violations
// (already owner-attributed by the per-tile replay) and the border claims
// awaiting cross-tile reconciliation.
type tileResult struct {
	violations []seqViolation
	claims     []claim
}

// walkTile verifies one tile: every listed wire's clipped edges are marked
// in the tile's pooled bitset (border edges become claims instead), and if
// any slot was hit twice the clipped walk replays in global wire order to
// attribute owners — valid because an interior edge's every claimant is in
// this tile's list. The legal path allocates nothing but border claims.
//
//mlvlsi:hotpath
func walkTile(wires []Wire, list []int32, tl Tiling, tile int, enc edgeEncoder, occ []uint64, stopSeq []int32, res *tileResult, cancel *canceler) {
	x0, x1, y0, y1 := tl.tileSpan(tile)
	ix := tl.indexer(tile)
	var contested []int
	for k, wi := range list {
		if cancel.hit(k) {
			return
		}
		c := wi
		tileEdges(&wires[wi], x0, x1, y0, y1, stopSeq[wi], func(low Point, axis Axis, seq int32, border bool) bool {
			if border {
				res.claims = append(res.claims, claim{key: enc.pack(low, axis), wire: c, seq: seq})
				return true
			}
			idx := ix.index(low, axis)
			word, mask := idx>>6, uint64(1)<<(idx&63)
			if occ[word]&mask != 0 {
				contested = append(contested, idx)
			} else {
				occ[word] |= mask
			}
			return true
		})
	}
	if len(contested) == 0 {
		return
	}
	targets := make(map[int]int, len(contested))
	for _, idx := range contested {
		targets[idx] = -1
	}
	for _, wi := range list {
		w := &wires[wi]
		c := wi
		tileEdges(w, x0, x1, y0, y1, stopSeq[wi], func(low Point, axis Axis, seq int32, border bool) bool {
			if border {
				return true
			}
			idx := ix.index(low, axis)
			if owner, hit := targets[idx]; hit {
				if owner < 0 {
					targets[idx] = w.ID
				} else {
					res.violations = append(res.violations, seqViolation{wire: c, seq: seq, v: Violation{
						WireID: w.ID, OtherID: owner, Where: low,
						Code: ReasonSharedEdge, EdgeAxis: axis,
					}})
				}
			}
			return true
		})
	}
}

// checkTiled runs the tiled verification protocol: a serial binning pass
// over path hops, an independent pooled-bitset walk per tile on the par
// pool, and a border-claim reconciliation (the "merge" span) on the
// coordinator, all flowing through canonicalize. mask non-nil restricts the
// walk to the dirty tiles (ReverifyTiles).
func checkTiled(ctx context.Context, wires []Wire, opts CheckOptions, tl Tiling, enc edgeEncoder, workers int, mask []bool) ([]Violation, error) {
	ob := opts.observer()
	ob.Set(obs.WorkerCount, int64(workers))
	cancel := &canceler{ctx: ctx}

	bs := opts.Span.Child("bin")
	bin, ok := binWires(wires, &opts, tl, mask, cancel)
	bs.End()
	if !ok {
		return nil, ErrOutsideTiling
	}
	if err := par.Canceled(ctx); err != nil {
		return nil, err
	}

	checked := int64(tl.Tiles())
	if mask != nil {
		ob.Add(obs.UnitEdgesChecked, bin.dirtyEdges)
		checked = 0
		for _, dirty := range mask {
			if dirty {
				checked++
			}
		}
	}
	ob.Add(obs.TilesChecked, checked)

	// Tiles to walk: the dirty ones in incremental mode, all of them on a
	// full check — minus tiles no wire touches, which are vacuously legal.
	var work []int32
	for t := 0; t < tl.Tiles(); t++ {
		if (mask == nil || mask[t]) && bin.start[t+1] > bin.start[t] {
			work = append(work, int32(t))
		}
	}
	words := (tl.cells() + 63) / 64
	results := make([]tileResult, len(work))
	ws := opts.Span.Child("walk")
	par.ForEach(workers, len(work), func(i int) {
		if cancel.stop.Load() {
			return
		}
		buf := occGet(words)
		t := int(work[i])
		walkTile(wires, bin.wires[bin.start[t]:bin.start[t+1]], tl, t, enc, buf.bits, bin.stopSeq, &results[i], cancel)
		occPut(buf)
	})
	ws.End()
	if err := par.Canceled(ctx); err != nil {
		return nil, err
	}
	ob.Add(obs.CellsAllocated, int64(tl.cells())*int64(len(work)))
	inflight := int64(workers)
	if int64(len(work)) < inflight {
		inflight = int64(len(work))
	}
	ob.Set(obs.TileBytesPeak, int64(words)*8*inflight)

	ms := opts.Span.Child("merge")
	all := bin.pre
	nclaims := 0
	for i := range results {
		all = append(all, results[i].violations...)
		nclaims += len(results[i].claims)
	}
	if nclaims > 0 {
		claims := make([]claim, 0, nclaims)
		for i := range results {
			claims = append(claims, results[i].claims...)
		}
		// Global wire order, then walk order: the first claimant of each
		// seam edge under this order owns it.
		sort.Slice(claims, func(i, j int) bool {
			if claims[i].wire != claims[j].wire {
				return claims[i].wire < claims[j].wire
			}
			return claims[i].seq < claims[j].seq
		})
		owner := make(map[uint64]int32, nclaims)
		for _, c := range claims {
			if first, dup := owner[c.key]; dup {
				all = append(all, seqViolation{wire: c.wire, seq: c.seq, v: Violation{
					WireID: wires[c.wire].ID, OtherID: wires[first].ID,
					Where: enc.unpack(c.key),
					Code:  ReasonSharedEdge, EdgeAxis: Axis(c.key & 3),
				}})
			} else {
				owner[c.key] = c.wire
			}
		}
	}
	ob.Add(obs.BorderEdgesReconciled, int64(nclaims))
	ob.Add(obs.MergeNanos, int64(ms.End()))
	return canonicalize(wires, all), nil
}

// parMeasure is Wires.measure sharded across the worker pool: one pass over
// all path vertices yielding the joint bounding box and total edge count.
func parMeasure(wires []Wire, workers int) (BoundingBox, int) {
	shards := par.NumChunks(workers, len(wires))
	boxes := make([]BoundingBox, shards)
	totals := make([]int, shards)
	par.Chunks(workers, len(wires), func(shard, lo, hi int) {
		boxes[shard], totals[shard] = Wires(wires[lo:hi]).measure()
	})
	box := NewBoundingBox()
	total := 0
	for s := range boxes {
		if !boxes[s].Empty() {
			box.AddPoint(Point{boxes[s].MinX, boxes[s].MinY, boxes[s].MinZ})
			box.AddPoint(Point{boxes[s].MaxX, boxes[s].MaxY, boxes[s].MaxZ})
		}
		total += totals[s]
	}
	return box, total
}

// canceler wraps the cooperative-cancellation poll shared by the tiled
// phases: cheap enough to call per item, polling the context only every
// ctxStride items, with the verdict broadcast through an atomic so every
// worker stops soon after the first one observes expiry.
type canceler struct {
	ctx  context.Context
	stop atomic.Bool
}

func (c *canceler) hit(counter int) bool {
	if c.ctx == nil || counter%ctxStride != 0 {
		return false
	}
	if c.stop.Load() {
		return true
	}
	if c.ctx.Err() != nil {
		c.stop.Store(true)
		return true
	}
	return false
}

// claim records one border unit edge claimed by one wire: the packed edge
// key plus the claiming wire's slice index and the edge's position along
// its path.
type claim struct {
	key  uint64
	wire int32
	seq  int32
}

// seqViolation carries a violation with its canonical sort position.
type seqViolation struct {
	wire int32
	seq  int32
	v    Violation
}

const (
	seqValidate  = int32(-1)        // malformed path, before any edge
	seqTerminalU = int32(1<<31 - 2) // terminal checks run after the walk
	seqTerminalV = int32(1<<31 - 1)
)

// collectTerminals appends the terminal violations of one wire tagged with
// their canonical sort positions.
func collectTerminals(w *Wire, wi int32, nodes []Rect, violations *[]seqViolation) {
	if nodes == nil || w.U < 0 || w.V < 0 || len(w.Path) == 0 {
		return
	}
	var tv []Violation
	checkTerminal(w, w.Path[0], w.U, nodes, &tv)
	for _, v := range tv {
		*violations = append(*violations, seqViolation{wire: wi, seq: seqTerminalU, v: v})
	}
	tv = tv[:0]
	checkTerminal(w, w.Path[len(w.Path)-1], w.V, nodes, &tv)
	for _, v := range tv {
		*violations = append(*violations, seqViolation{wire: wi, seq: seqTerminalV, v: v})
	}
}

// canonicalize sorts the tagged violations into the canonical order (wire,
// then path position) and keeps at most one walk violation per wire, the
// earliest (validate and terminal violations are outside the walk and
// unaffected).
func canonicalize(wires []Wire, all []seqViolation) []Violation {
	if len(all) == 0 {
		return nil
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].wire != all[j].wire {
			return all[i].wire < all[j].wire
		}
		return all[i].seq < all[j].seq
	})
	out := make([]Violation, 0, len(all))
	walkDone := int32(-1) // last wire whose walk violation was emitted
	for _, sv := range all {
		if sv.seq >= 0 && sv.seq < seqTerminalU {
			if sv.wire == walkDone {
				continue
			}
			walkDone = sv.wire
		}
		out = append(out, sv.v)
	}
	return out
}

// edgeEncoder packs a unit edge (lower endpoint + axis) into a uint64:
// 2 axis bits in the low word, then Z, Y, X fields sized to the wire set's
// bounding box. Border reconciliation keys its map by these integers, which
// hash an order of magnitude faster than the 32-byte struct key the map
// reference uses.
type edgeEncoder struct {
	minX, minY, minZ       int
	shiftZ, shiftY, shiftX uint
}

// newEdgeEncoderFromBox derives the packed field layout from a measured
// bounding box. ok is false when the spans do not fit in 62 bits.
func newEdgeEncoderFromBox(box BoundingBox) (edgeEncoder, bool) {
	if box.Empty() {
		return edgeEncoder{}, true
	}
	// Each field is sized by its span+1 (head-room: the unit-edge lower
	// endpoint never exceeds the box, but this keeps the arithmetic
	// obviously safe). The unsigned difference is exact for any box; a span
	// of 2^64 wraps to zero and is sized past the 64-bit limit.
	bitsFor := func(lo, hi int) uint {
		span := uint64(hi-lo) + 1
		if span == 0 {
			return 64
		}
		return uint(max(1, bits.Len64(span)))
	}
	bz := bitsFor(box.MinZ, box.MaxZ)
	by := bitsFor(box.MinY, box.MaxY)
	bx := bitsFor(box.MinX, box.MaxX)
	if 2+bz+by+bx > 64 {
		return edgeEncoder{}, false
	}
	return edgeEncoder{
		minX: box.MinX, minY: box.MinY, minZ: box.MinZ,
		shiftZ: 2,
		shiftY: 2 + bz,
		shiftX: 2 + bz + by,
	}, true
}

func (e edgeEncoder) pack(p Point, axis Axis) uint64 {
	return uint64(p.X-e.minX)<<e.shiftX |
		uint64(p.Y-e.minY)<<e.shiftY |
		uint64(p.Z-e.minZ)<<e.shiftZ |
		uint64(axis)
}

// unpack recovers the edge's lower endpoint from a packed key.
func (e edgeEncoder) unpack(key uint64) Point {
	maskY := uint64(1)<<(e.shiftX-e.shiftY) - 1
	maskZ := uint64(1)<<(e.shiftY-e.shiftZ) - 1
	return Point{
		X: int(key>>e.shiftX) + e.minX,
		Y: int(key>>e.shiftY&maskY) + e.minY,
		Z: int(key>>e.shiftZ&maskZ) + e.minZ,
	}
}
