// Package core implements the paper's primary contribution: the orthogonal
// multilayer layout scheme (§2.4). Network nodes are arranged in a 2-D grid
// so that every link joins two nodes of the same row or the same column;
// each row (column) is routed as a collinear layout in the channel above
// (right of) it; and the horizontal and vertical track bundles are split
// across ⌈L/2⌉ odd and ⌊L/2⌋ even wiring layers respectively. The result is
// a fully realized, machine-verifiable layout.Layout.
//
// The engine accepts explicit per-channel edge lists, which makes it
// expressive enough for everything in the paper: uniform product networks
// (k-ary n-cubes, hypercubes, generalized hypercubes) via FromFactors;
// PN clusters laid out as in-row cluster strips (§2.3/§3.2) via the cluster
// package, including quotient links that attach to different cluster members
// at their two ends (bent edges); and the folded/enhanced hypercubes'
// diameter links (§5.3) as bent edges on dedicated tracks.
//
// Every build draws its per-phase structures from a BuildScratch arena (see
// arena.go): the caller's own when Spec.Scratch is set, otherwise one taken
// from a package pool for the length of the build. Either way the engine
// runs one code path, and golden digests under testdata pin what it builds.
package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"sort"

	"mlvlsi/internal/grid"
	"mlvlsi/internal/layout"
	"mlvlsi/internal/obs"
	"mlvlsi/internal/par"
)

// ChannelEdge is one link routed inside a single row or column channel.
// For a row edge, Index is the row and U < V are column positions; for a
// column edge, Index is the column and U < V are row positions. Track is an
// identifier in the direction's track namespace; two edges sharing (Index,
// Track) must have intervals with disjoint interiors.
type ChannelEdge struct {
	Index int
	U, V  int
	Track int
}

// BentEdge is a link between two arbitrary grid positions: it leaves the U
// node through a top port, runs along a horizontal track in the channel
// above URow (track id HTrack in the row-track namespace of that channel),
// turns onto a vertical track in the channel right of the V node's column
// (track id VTrack in that column's namespace), and enters the V node
// through a right port. Bent edges share row/column tracks with channel
// edges under the same interval-disjointness rule: the horizontal segment
// occupies columns [UCol, VCol+channel] and the vertical segment rows
// [URow+channel, VRow].
type BentEdge struct {
	URow, UCol int
	VRow, VCol int
	HTrack     int
	VTrack     int
}

// Spec describes an orthogonal multilayer layout instance.
type Spec struct {
	Name string
	// Rows × Cols node grid.
	Rows, Cols int
	// L is the number of wiring layers (>= 2).
	L int
	// NodeSide, when positive, fixes the node square side; it must be at
	// least the per-side port demand. Zero selects the smallest legal side,
	// the paper's "minimum size required to implement a node".
	NodeSide int
	// Workers bounds the fan-out of the parallel wire-realization loop:
	// 0 means GOMAXPROCS, 1 forces serial execution. Every worker count
	// produces byte-identical layouts — rows, columns and bent edges are
	// realized independently into preassigned wire slots.
	Workers int
	// Ctx, when non-nil, cancels the build cooperatively: the engine polls
	// it between phases and every few wires inside the realize loop, and an
	// expired context aborts the build with an error wrapping
	// par.ErrCanceled. Nil means no cancellation.
	Ctx context.Context
	// MaxCells, when positive, bounds the planned grid occupancy: the
	// number of grid vertices of the layout box across all layers,
	// (Width+1)·(Height+1)·(L+1). A plan over budget aborts with a
	// *layout.BudgetError before any wire is realized, so the overrun costs
	// geometry planning only. Zero means unlimited.
	MaxCells int
	// Obs, when non-nil, receives build telemetry: a "build" span with
	// placement, routing, and realization children plus the typed counters
	// (wires realized, cells planned, budget headroom, worker count, and for
	// a caller-owned scratch its reuses and retained bytes). Nil — the
	// default — disables instrumentation entirely; the realize loop is
	// untouched either way, since spans and counters live on the phase
	// boundaries, not in per-wire code.
	Obs *obs.Observer
	// Scratch, when non-nil, is a caller-owned arena the build draws its
	// per-phase allocations from, reused across the caller's builds and
	// accounted in the scratch counters; only a caller-owned scratch can run
	// in transient mode. Nil — the default — borrows a pooled scratch for
	// the length of the build, in safe mode and outside the counters. Both
	// build the same layout. A scratch must not be shared by concurrent
	// builds; see BuildScratch for the ownership contract.
	Scratch *BuildScratch
	// Label maps grid position to node label (a bijection onto
	// 0..Rows·Cols-1). Nil means row-major order.
	Label func(row, col int) int

	RowEdges []ChannelEdge
	ColEdges []ChannelEdge
	Bent     []BentEdge
}

// dedicatedBase starts the track-id range AddDedicatedBent allocates from;
// regular builders must keep their track ids below it.
const dedicatedBase = 1 << 30

// AddDedicatedBent appends a bent edge on fresh dedicated tracks (one new
// horizontal track in U's row channel, one new vertical track in V's column
// channel), the way §5.3 routes each folded-hypercube diameter link.
func (s *Spec) AddDedicatedBent(uRow, uCol, vRow, vCol int) {
	id := dedicatedBase + len(s.Bent)
	s.Bent = append(s.Bent, BentEdge{
		URow: uRow, UCol: uCol, VRow: vRow, VCol: vCol,
		HTrack: id, VTrack: id,
	})
}

// endRef identifies one wire end: kind 0 = row edge, 1 = column edge,
// 2 = bent edge U end, 3 = bent edge V end; idx indexes the respective
// slice and isV distinguishes the two ends of a channel edge.
type endRef struct {
	kind int
	idx  int
	isV  bool
}

type portItem struct {
	dir  int
	rank int
	ref  endRef
}

// Build realizes the spec as a concrete multilayer layout. The returned
// layout passes layout.Verify for every legal spec; Build itself validates
// spec-level invariants (ranges, track interval disjointness, port
// capacity). Robustness guarantees: an expired Spec.Ctx aborts the build
// with an error wrapping par.ErrCanceled, a plan over Spec.MaxCells returns
// a *layout.BudgetError, and a panic raised anywhere during the build —
// in a parallel realize worker or by a user-supplied Label closure — is
// returned as a *par.Panic error instead of crashing the process.
func Build(spec Spec) (lay *layout.Layout, err error) {
	defer func() {
		if v := recover(); v != nil {
			p, ok := v.(*par.Panic)
			if !ok {
				p = &par.Panic{Value: v, Stack: debug.Stack()}
			}
			lay, err = nil, p
		}
	}()
	lay, _, err = build(spec, true)
	if err != nil {
		lay = nil
	}
	return lay, err
}

func build(spec Spec, realize bool) (*layout.Layout, Geometry, error) {
	var geom Geometry
	if spec.Rows < 1 || spec.Cols < 1 {
		return nil, geom, fmt.Errorf("%s: grid %dx%d is empty", spec.Name, spec.Rows, spec.Cols)
	}
	if spec.L < 2 {
		return nil, geom, fmt.Errorf("%s: need at least 2 wiring layers, got %d", spec.Name, spec.L)
	}
	label := spec.Label
	if label == nil {
		label = func(r, c int) int { return r*spec.Cols + c }
	}
	if err := par.Canceled(spec.Ctx); err != nil {
		return nil, geom, err
	}
	s := acquireScratch(spec.Scratch)
	defer releaseScratch(s)
	s.beginBuild(spec.Obs)
	root := spec.Obs.StartSpan("build")
	root.SetAttr("rows", int64(spec.Rows)).SetAttr("cols", int64(spec.Cols)).SetAttr("layers", int64(spec.L))
	defer root.End()

	// Placement phase: validate the node grid and edge lists, then derive
	// the per-node port demand and the node side. (Phase spans are ended on
	// the success path only; a failed build reports just the enclosing
	// "build" span.)
	place := root.Child("placement")
	n := spec.Rows * spec.Cols
	if err := checkLabels(spec, label, n, s); err != nil {
		return nil, geom, err
	}
	if err := checkEdges(&spec, s); err != nil {
		return nil, geom, err
	}
	if err := par.Canceled(spec.Ctx); err != nil {
		return nil, geom, err
	}

	// Port demand per node.
	top := s.ints.take(n, true)   // ports on the node's top edge
	right := s.ints.take(n, true) // ports on the node's right edge
	at := func(r, c int) int { return r*spec.Cols + c }
	for _, e := range spec.RowEdges {
		top[at(e.Index, e.U)]++
		top[at(e.Index, e.V)]++
	}
	for _, e := range spec.ColEdges {
		right[at(e.U, e.Index)]++
		right[at(e.V, e.Index)]++
	}
	for _, e := range spec.Bent {
		top[at(e.URow, e.UCol)]++
		right[at(e.VRow, e.VCol)]++
	}
	need := 1
	for i := 0; i < n; i++ {
		if top[i] > need {
			need = top[i]
		}
		if right[i] > need {
			need = right[i]
		}
	}
	side := spec.NodeSide
	if side == 0 {
		side = need
	} else if side < need {
		return nil, geom, fmt.Errorf("%s: node side %d < required port count %d", spec.Name, side, need)
	}
	place.End()

	// Routing phase: distribute tracks over layer groups and fix the grid
	// geometry.
	route := root.Child("routing")
	gH := (spec.L + 1) / 2 // horizontal track groups, on odd layers 1,3,…
	gV := spec.L / 2       // vertical track groups, on even layers 2,4,…

	rowT, colT, hSlots, wSlots := assignTracks(&spec, s, gH, gV)

	// Grid coordinates.
	rowY := s.ints.take(spec.Rows+1, false)
	colX := s.ints.take(spec.Cols+1, false)
	rowY[0] = 0
	for i := 0; i < spec.Rows; i++ {
		rowY[i+1] = rowY[i] + side + 1 + hSlots[i]
	}
	colX[0] = 0
	for j := 0; j < spec.Cols; j++ {
		colX[j+1] = colX[j] + side + 1 + wSlots[j]
	}

	geom = Geometry{
		Side:   side,
		Rows:   spec.Rows,
		Cols:   spec.Cols,
		HSlots: hSlots,
		WSlots: wSlots,
		Width:  colX[spec.Cols] - 1,
		Height: rowY[spec.Rows] - 1,
	}
	for _, w := range wSlots {
		geom.ChannelWidth += w
	}
	for _, h := range hSlots {
		geom.ChannelHeight += h
	}
	route.End()
	if !realize {
		return nil, geom, nil
	}
	cells := (geom.Width + 1) * (geom.Height + 1) * (spec.L + 1)
	spec.Obs.Add(obs.CellsPlanned, int64(cells))
	if spec.MaxCells > 0 {
		spec.Obs.Set(obs.BudgetHeadroom, int64(spec.MaxCells-cells))
		if cells > spec.MaxCells {
			return nil, geom, &layout.BudgetError{Name: spec.Name, Cells: cells, Budget: spec.MaxCells}
		}
	}
	if err := par.Canceled(spec.Ctx); err != nil {
		return nil, geom, err
	}

	real := root.Child("realization")
	// Port assignment. Each wire end at a node gets a distinct offset in
	// [0, side). Ends are sorted so that, on a shared track, the end of the
	// edge arriving from the lower side precedes the end of the edge
	// leaving toward the higher side, keeping same-track trunk intervals
	// interior-disjoint in realized coordinates. The per-node port demand
	// computed above doubles as the exact item count per node, which is
	// what lets the ends tables count-then-fill one flat slab.
	var topEnds, rightEnds endsTable
	topEnds.init(s, top)
	rightEnds.init(s, right)
	for i, e := range spec.RowEdges {
		r := rowT.lookup(e.Index, e.Track).order()
		topEnds.add(at(e.Index, e.U), portItem{dir: 1, rank: r, ref: endRef{0, i, false}})
		topEnds.add(at(e.Index, e.V), portItem{dir: 0, rank: r, ref: endRef{0, i, true}})
	}
	for i, e := range spec.ColEdges {
		r := colT.lookup(e.Index, e.Track).order()
		rightEnds.add(at(e.U, e.Index), portItem{dir: 1, rank: r, ref: endRef{1, i, false}})
		rightEnds.add(at(e.V, e.Index), portItem{dir: 0, rank: r, ref: endRef{1, i, true}})
	}
	for i, e := range spec.Bent {
		// U end: the horizontal segment heads toward the trunk channel
		// right of VCol; it leaves rightward iff that channel is at or
		// right of UCol.
		uDir := 1
		if e.VCol < e.UCol {
			uDir = 0
		}
		// V end: the vertical trunk spans from URow's channel to VRow; it
		// arrives from below iff URow < VRow (for URow == VRow the trunk
		// comes down from the channel above, i.e. from above).
		vDir := 1
		if e.URow < e.VRow {
			vDir = 0
		}
		topEnds.add(at(e.URow, e.UCol), portItem{dir: uDir, rank: rowT.lookup(e.URow, e.HTrack).order(), ref: endRef{2, i, false}})
		rightEnds.add(at(e.VRow, e.VCol), portItem{dir: vDir, rank: colT.lookup(e.VCol, e.VTrack).order(), ref: endRef{3, i, true}})
	}
	ports := newPortTable(s, len(spec.RowEdges), len(spec.ColEdges), len(spec.Bent))
	assign := func(ends *endsTable) error {
		for node := 0; node < n; node++ {
			items := ends.seg(node)
			sortPortItems(items)
			if len(items) > side {
				return fmt.Errorf("%s: node %d needs %d ports on one side, side is %d", spec.Name, node, len(items), side)
			}
			for off, it := range items {
				ports.set(it.ref, off)
			}
		}
		return nil
	}
	if err := assign(&topEnds); err != nil {
		return nil, geom, err
	}
	if err := assign(&rightEnds); err != nil {
		return nil, geom, err
	}

	// Realize wires. Every edge is independent once tracks and ports are
	// assigned (all shared state below is read-only), so realization fans
	// out across Spec.Workers: wire slot i is preassigned to edge i in the
	// fixed row-edges, column-edges, bent-edges order, making the result
	// byte-identical to the serial loop for every worker count.
	//
	// Result allocation: safe mode hands out fresh memory, with the wire
	// paths carved from one fresh point slab (every subslice's cap equals
	// its length, so MemBytes counts exactly the points); a transient-mode
	// scratch backs even the results, for callers that drop each layout
	// before the next build.
	nRow, nCol, nBent := len(spec.RowEdges), len(spec.ColEdges), len(spec.Bent)
	nPts := (nRow+nCol)*8 + nBent*10
	var lay *layout.Layout
	var pts []grid.Point
	if s.transient {
		lay = &s.lay
		*lay = layout.Layout{Name: spec.Name, L: spec.L}
		lay.Nodes = s.rects.take(n, false)
		lay.Wires = s.wires.take(nRow+nCol+nBent, false)
		pts = s.pts.take(nPts, false)
	} else {
		lay = &layout.Layout{Name: spec.Name, L: spec.L}
		lay.Nodes = make([]grid.Rect, n)
		lay.Wires = make([]grid.Wire, nRow+nCol+nBent)
		pts = make([]grid.Point, nPts)
	}
	// Labels are tabulated up front: Spec.Label closures need not be
	// goroutine-safe, so the parallel loop below only reads this table.
	labelAt := s.ints.take(n, false)
	for r := 0; r < spec.Rows; r++ {
		for c := 0; c < spec.Cols; c++ {
			l := label(r, c)
			labelAt[at(r, c)] = l
			lay.Nodes[l] = grid.Rect{X: colX[c], Y: rowY[r], W: side, H: side}
		}
	}
	rc := &realizeCtx{
		rowEdges: spec.RowEdges, colEdges: spec.ColEdges, bent: spec.Bent,
		rowT: rowT, colT: colT, ports: ports,
		rowY: rowY, colX: colX, labelAt: labelAt,
		side: side, L: spec.L, cols: spec.Cols,
		nRow: nRow, nCol: nCol,
		wires: lay.Wires, pts: pts,
	}
	spec.Obs.Set(obs.WorkerCount, int64(par.Workers(spec.Workers)))
	if err := par.ForEachCtx(spec.Ctx, spec.Workers, len(lay.Wires), rc.realize); err != nil {
		return nil, geom, err
	}
	spec.Obs.Add(obs.WiresRealized, int64(len(lay.Wires)))
	s.noteBytes(spec.Obs)
	real.SetAttr("wires", int64(len(lay.Wires))).End()
	return lay, geom, nil
}

// realizeCtx is the read-only state of the parallel realize loop: edge
// lists, track and port tables, grid prefix sums, and the output wire slice
// and point slab the wire paths are carved from.
type realizeCtx struct {
	rowEdges []ChannelEdge
	colEdges []ChannelEdge
	bent     []BentEdge

	rowT, colT *trackTable
	ports      *portTable

	rowY, colX []int
	labelAt    []int

	side, L, cols int
	nRow, nCol    int

	wires []grid.Wire
	pts   []grid.Point
}

func (rc *realizeCtx) path(off, n int) []grid.Point {
	return rc.pts[off : off+n : off+n]
}

// realize computes wire id's eight- or ten-point path. It runs once per edge
// under the par pool and accounts for most of the build, so it stays free of
// maps, fmt, and allocation.
//
//mlvlsi:hotpath
func (rc *realizeCtx) realize(id int) {
	switch {
	case id < rc.nRow:
		i := id
		e := rc.rowEdges[i]
		lh, lv, slot := hLayerOf(rc.rowT.lookup(e.Index, e.Track), rc.L)
		yT := rc.rowY[e.Index] + rc.side + 1 + slot
		yTop := rc.rowY[e.Index] + rc.side
		xu := rc.colX[e.U] + rc.ports.port(endRef{0, i, false})
		xv := rc.colX[e.V] + rc.ports.port(endRef{0, i, true})
		p := rc.path(id*8, 8)
		p[0] = grid.Point{X: xu, Y: yTop, Z: 0}
		p[1] = grid.Point{X: xu, Y: yTop, Z: lv}
		p[2] = grid.Point{X: xu, Y: yT, Z: lv}
		p[3] = grid.Point{X: xu, Y: yT, Z: lh}
		p[4] = grid.Point{X: xv, Y: yT, Z: lh}
		p[5] = grid.Point{X: xv, Y: yT, Z: lv}
		p[6] = grid.Point{X: xv, Y: yTop, Z: lv}
		p[7] = grid.Point{X: xv, Y: yTop, Z: 0}
		rc.wires[id] = grid.Wire{ID: id, U: rc.labelAt[e.Index*rc.cols+e.U], V: rc.labelAt[e.Index*rc.cols+e.V], Path: p}
	case id < rc.nRow+rc.nCol:
		i := id - rc.nRow
		e := rc.colEdges[i]
		lv, lh, slot := vLayerOf(rc.colT.lookup(e.Index, e.Track), rc.L)
		xT := rc.colX[e.Index] + rc.side + 1 + slot
		xR := rc.colX[e.Index] + rc.side
		yu := rc.rowY[e.U] + rc.ports.port(endRef{1, i, false})
		yv := rc.rowY[e.V] + rc.ports.port(endRef{1, i, true})
		p := rc.path(id*8, 8)
		p[0] = grid.Point{X: xR, Y: yu, Z: 0}
		p[1] = grid.Point{X: xR, Y: yu, Z: lh}
		p[2] = grid.Point{X: xT, Y: yu, Z: lh}
		p[3] = grid.Point{X: xT, Y: yu, Z: lv}
		p[4] = grid.Point{X: xT, Y: yv, Z: lv}
		p[5] = grid.Point{X: xT, Y: yv, Z: lh}
		p[6] = grid.Point{X: xR, Y: yv, Z: lh}
		p[7] = grid.Point{X: xR, Y: yv, Z: 0}
		rc.wires[id] = grid.Wire{ID: id, U: rc.labelAt[e.U*rc.cols+e.Index], V: rc.labelAt[e.V*rc.cols+e.Index], Path: p}
	default:
		i := id - rc.nRow - rc.nCol
		e := rc.bent[i]
		lh, lvStub, hSlot := hLayerOf(rc.rowT.lookup(e.URow, e.HTrack), rc.L)
		yT := rc.rowY[e.URow] + rc.side + 1 + hSlot
		yTop := rc.rowY[e.URow] + rc.side
		xu := rc.colX[e.UCol] + rc.ports.port(endRef{2, i, false})
		lv2, lh2, vSlot := vLayerOf(rc.colT.lookup(e.VCol, e.VTrack), rc.L)
		xT := rc.colX[e.VCol] + rc.side + 1 + vSlot
		xR := rc.colX[e.VCol] + rc.side
		yv := rc.rowY[e.VRow] + rc.ports.port(endRef{3, i, true})
		p := rc.path((rc.nRow+rc.nCol)*8+i*10, 10)
		p[0] = grid.Point{X: xu, Y: yTop, Z: 0}
		p[1] = grid.Point{X: xu, Y: yTop, Z: lvStub}
		p[2] = grid.Point{X: xu, Y: yT, Z: lvStub}
		p[3] = grid.Point{X: xu, Y: yT, Z: lh}
		p[4] = grid.Point{X: xT, Y: yT, Z: lh}
		p[5] = grid.Point{X: xT, Y: yT, Z: lv2}
		p[6] = grid.Point{X: xT, Y: yv, Z: lv2}
		p[7] = grid.Point{X: xT, Y: yv, Z: lh2}
		p[8] = grid.Point{X: xR, Y: yv, Z: lh2}
		p[9] = grid.Point{X: xR, Y: yv, Z: 0}
		rc.wires[id] = grid.Wire{ID: id, U: rc.labelAt[e.URow*rc.cols+e.UCol], V: rc.labelAt[e.VRow*rc.cols+e.VCol], Path: p}
	}
}

// hLayerOf and vLayerOf place a track assignment's trunk and stub layers:
// horizontal trunks on odd layer 2g+1 with the vertical stub one layer up
// (or down at the top), vertical trunks on even layer 2g+2 symmetrically.
func hLayerOf(a trackAssign, L int) (layerH, layerV, slot int) {
	slot = a.slot
	layerH = 2*a.group + 1
	layerV = layerH + 1
	if layerV > L {
		layerV = layerH - 1
	}
	return
}

func vLayerOf(a trackAssign, L int) (layerV, layerH, slot int) {
	slot = a.slot
	layerV = 2*a.group + 2
	layerH = layerV + 1
	if layerH > L {
		layerH = layerV - 1
	}
	return
}

// sortPortItems stable-sorts a node's wire ends by (dir, rank): an insertion
// sort, because the per-node item count is bounded by the node side and a
// stable sort is unique — the result is identical to sort.SliceStable on
// the same order, without its allocations.
func sortPortItems(items []portItem) {
	for i := 1; i < len(items); i++ {
		it := items[i]
		j := i - 1
		for j >= 0 && (items[j].dir > it.dir || (items[j].dir == it.dir && items[j].rank > it.rank)) {
			items[j+1] = items[j]
			j--
		}
		items[j+1] = it
	}
}

func ceilDiv(a, b int) int {
	if a == 0 {
		return 0
	}
	return (a + b - 1) / b
}

// trackAssign places a channel track in a layer group and a slot within
// that group's share of the channel.
type trackAssign struct {
	group, slot int
}

// order gives a total order of tracks within one channel, used only to
// order ports consistently with trunk coordinates.
func (a trackAssign) order() int { return a.slot<<16 | a.group }

// pinFunc resolves a (direction, channel, track) to its bent-pinned layer
// group, if the track belongs to a bent component; nil when the spec has no
// bent edges at all.
type pinFunc func(isCol bool, ch, track int) (int, bool)

// bentPins computes the pinned layer groups of bent-linked tracks. The H
// and V tracks of a bent edge are pinned to one common group, so the
// junction via between the bent's horizontal run (layer 2g+1) and vertical
// run (layer 2g+2) is a single z-edge whose layer pair is unique per group —
// without this, junction vias of different layer groups could land on the
// same (x, y) channel-slot crossing and overlap. Track-sharing chains
// (several bents sharing escape or trunk tracks) are grouped by union-find
// and spread round-robin over the min(gH, gV) usable groups. Specs without
// bent edges — the common case and the zero-alloc one — return nil.
func bentPins(spec *Spec, gH, gV int) pinFunc {
	if len(spec.Bent) == 0 {
		return nil
	}
	type tnode struct {
		isCol          bool
		channel, track int
	}
	// Union-find over bent-linked tracks.
	parent := make(map[tnode]tnode)
	var find func(tnode) tnode
	find = func(x tnode) tnode {
		p, ok := parent[x]
		if !ok || p == x {
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	union := func(a, b tnode) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, e := range spec.Bent {
		union(tnode{false, e.URow, e.HTrack}, tnode{true, e.VCol, e.VTrack})
	}
	// Assign every bent component a group in [0, min(gH, gV)).
	gMin := gH
	if gV < gMin {
		gMin = gV
	}
	compGroup := make(map[tnode]int)
	var reps []tnode
	seen := make(map[tnode]bool)
	for _, e := range spec.Bent {
		for _, nd := range []tnode{{false, e.URow, e.HTrack}, {true, e.VCol, e.VTrack}} {
			r := find(nd)
			if !seen[r] {
				seen[r] = true
				reps = append(reps, r)
			}
		}
	}
	sort.Slice(reps, func(i, j int) bool {
		a, b := reps[i], reps[j]
		if a.isCol != b.isCol {
			return !a.isCol
		}
		if a.channel != b.channel {
			return a.channel < b.channel
		}
		return a.track < b.track
	})
	for i, r := range reps {
		compGroup[r] = i % gMin
	}
	return func(isCol bool, ch, track int) (int, bool) {
		g, ok := compGroup[find(tnode{isCol, ch, track})]
		return g, ok
	}
}

// assignTracks distributes each channel's tracks over layer groups, filling
// the two track tables and returning the per-channel slot counts. Each
// channel's track ids are collected into a counted slab segment, sort-uniqed,
// and placed by placeChannel.
func assignTracks(spec *Spec, s *BuildScratch, gH, gV int) (rowT, colT *trackTable, hSlots, wSlots []int) {
	pin := bentPins(spec, gH, gV)
	// The slot-count slices are referenced by the returned Geometry, so
	// they are allocated fresh.
	hSlots = make([]int, spec.Rows)
	wSlots = make([]int, spec.Cols)
	gMax := gH
	if gV > gMax {
		gMax = gV
	}
	load := s.ints.take(gMax, false)
	var free []int

	rowT = channelTracks(s, spec.Rows, spec.RowEdges, spec.Bent, false)
	colT = channelTracks(s, spec.Cols, spec.ColEdges, spec.Bent, true)
	for ch := 0; ch < spec.Rows; ch++ {
		uniq := sortUniq(rowT.seg(ch))
		rowT.uniqLen[ch] = int32(len(uniq))
		hSlots[ch], free = placeChannel(rowT, false, ch, uniq, gH, pin, load[:gH], free)
	}
	for ch := 0; ch < spec.Cols; ch++ {
		uniq := sortUniq(colT.seg(ch))
		colT.uniqLen[ch] = int32(len(uniq))
		wSlots[ch], free = placeChannel(colT, true, ch, uniq, gV, pin, load[:gV], free)
	}
	return rowT, colT, hSlots, wSlots
}

// seg returns channel ch's raw (pre-uniq) track-id segment.
func (t *trackTable) seg(ch int) []int {
	return t.ids[t.starts[ch]:t.starts[ch+1]]
}

// channelTracks count-then-fills the per-channel track-id segments of one
// direction's track table from its channel edges and the matching segments
// of the bent edges (vertical ones when isCol).
func channelTracks(s *BuildScratch, nCh int, edges []ChannelEdge, bent []BentEdge, isCol bool) *trackTable {
	counts := s.ints.take(nCh, true)
	for _, e := range edges {
		counts[e.Index]++
	}
	for _, e := range bent {
		ch, _ := bentTrack(e, isCol)
		counts[ch]++
	}
	t := &trackTable{
		starts:  s.i32.take(nCh+1, false),
		uniqLen: s.i32.take(nCh, false),
	}
	total := 0
	for ch, c := range counts {
		t.starts[ch] = int32(total)
		total += c
	}
	t.starts[nCh] = int32(total)
	t.ids = s.ints.take(total, false)
	t.as = s.assigns.take(total, false)
	for ch := range counts {
		counts[ch] = int(t.starts[ch]) // reuse as fill cursors
	}
	for _, e := range edges {
		t.ids[counts[e.Index]] = e.Track
		counts[e.Index]++
	}
	for _, e := range bent {
		ch, tr := bentTrack(e, isCol)
		t.ids[counts[ch]] = tr
		counts[ch]++
	}
	return t
}

// bentTrack returns the channel and track id of bent edge e's horizontal
// segment, or of its vertical one when isCol.
func bentTrack(e BentEdge, isCol bool) (ch, track int) {
	if isCol {
		return e.VCol, e.VTrack
	}
	return e.URow, e.HTrack
}

// sortUniq sorts a channel's track ids in place and compacts duplicates,
// returning the unique prefix.
func sortUniq(tracks []int) []int {
	sort.Ints(tracks)
	uniq := tracks[:0]
	prev := 0
	for i, t := range tracks {
		if i == 0 || t != prev {
			uniq = append(uniq, t)
		}
		prev = t
	}
	return uniq
}

// lightest returns the index of the least-loaded group (first wins ties).
func lightest(load []int) int {
	g := 0
	for i := 1; i < len(load); i++ {
		if load[i] < load[g] {
			g = i
		}
	}
	return g
}

// placeChannel assigns one channel's sorted unique tracks to layer groups:
// pinned (bent) tracks first in track order, then free tracks onto the
// lightest group. free is a reusable index buffer threaded through the
// caller's loop; the returned max per-group load is the channel's slot
// count.
func placeChannel(tab *trackTable, isCol bool, ch int, uniq []int, groups int, pin pinFunc, load, free []int) (int, []int) {
	clear(load)
	if pin == nil {
		for i := range uniq {
			g := lightest(load)
			tab.set(ch, i, trackAssign{group: g, slot: load[g]})
			load[g]++
		}
	} else {
		free = free[:0]
		for i, t := range uniq {
			if g, ok := pin(isCol, ch, t); ok {
				tab.set(ch, i, trackAssign{group: g, slot: load[g]})
				load[g]++
			} else {
				free = append(free, i)
			}
		}
		for _, i := range free {
			g := lightest(load)
			tab.set(ch, i, trackAssign{group: g, slot: load[g]})
			load[g]++
		}
	}
	max := 0
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	return max, free
}

func checkLabels(spec Spec, label func(int, int) int, n int, s *BuildScratch) error {
	seen := s.bools.take(n, true)
	for r := 0; r < spec.Rows; r++ {
		for c := 0; c < spec.Cols; c++ {
			l := label(r, c)
			if l < 0 || l >= n || seen[l] {
				return fmt.Errorf("%s: Label is not a bijection at (%d,%d) -> %d", spec.Name, r, c, l)
			}
			seen[l] = true
		}
	}
	return nil
}

// checkEdges validates edge coordinate ranges in declaration order — row
// edges, column edges, bent edges — and then per-(channel, track) interval
// disjointness. Intervals are measured in half-positions so that bent-edge
// segments, which end inside a channel rather than at a node, can share
// tracks with channel edges safely: position p maps to 2p (node) and the
// channel right of / above p maps to 2p+1. Each direction's intervals go
// into one flat tuple slab, sorted by (channel, track, u, v), so the overlap
// reported is always the one in the lowest (channel, track).
func checkEdges(spec *Spec, s *BuildScratch) error {
	for i, e := range spec.RowEdges {
		if e.Index < 0 || e.Index >= spec.Rows {
			return fmt.Errorf("%s: row edge %d channel %d out of range", spec.Name, i, e.Index)
		}
		if e.U < 0 || e.V >= spec.Cols || e.U >= e.V {
			return fmt.Errorf("%s: row edge %d interval [%d,%d] invalid", spec.Name, i, e.U, e.V)
		}
	}
	for i, e := range spec.ColEdges {
		if e.Index < 0 || e.Index >= spec.Cols {
			return fmt.Errorf("%s: column edge %d channel %d out of range", spec.Name, i, e.Index)
		}
		if e.U < 0 || e.V >= spec.Rows || e.U >= e.V {
			return fmt.Errorf("%s: column edge %d interval [%d,%d] invalid", spec.Name, i, e.U, e.V)
		}
	}
	for i, e := range spec.Bent {
		if e.URow < 0 || e.URow >= spec.Rows || e.VRow < 0 || e.VRow >= spec.Rows ||
			e.UCol < 0 || e.UCol >= spec.Cols || e.VCol < 0 || e.VCol >= spec.Cols {
			return fmt.Errorf("%s: bent edge %d out of range", spec.Name, i)
		}
		if e.URow == e.VRow && e.UCol == e.VCol {
			return fmt.Errorf("%s: bent edge %d is a self-loop", spec.Name, i)
		}
	}

	rows := s.ivs.take(len(spec.RowEdges)+len(spec.Bent), false)
	k := 0
	for _, e := range spec.RowEdges {
		rows[k] = ivRec{ch: e.Index, track: e.Track, u: 2 * e.U, v: 2 * e.V}
		k++
	}
	for _, e := range spec.Bent {
		hu, hv, _, _ := bentHalfIntervals(e)
		rows[k] = ivRec{ch: e.URow, track: e.HTrack, u: hu, v: hv}
		k++
	}
	if err := scanOverlaps(spec.Name, "row", rows); err != nil {
		return err
	}
	cols := s.ivs.take(len(spec.ColEdges)+len(spec.Bent), false)
	k = 0
	for _, e := range spec.ColEdges {
		cols[k] = ivRec{ch: e.Index, track: e.Track, u: 2 * e.U, v: 2 * e.V}
		k++
	}
	for _, e := range spec.Bent {
		_, _, vu, vv := bentHalfIntervals(e)
		cols[k] = ivRec{ch: e.VCol, track: e.VTrack, u: vu, v: vv}
		k++
	}
	return scanOverlaps(spec.Name, "column", cols)
}

// bentHalfIntervals returns a bent edge's two half-position intervals: the
// horizontal segment from the U port (2·UCol) to the trunk channel
// (2·VCol+1), and the vertical segment from URow's channel (2·URow+1) to
// the V port (2·VRow), each normalized to u <= v.
func bentHalfIntervals(e BentEdge) (hu, hv, vu, vv int) {
	hu, hv = 2*e.UCol, 2*e.VCol+1
	if hu > hv {
		hu, hv = hv, hu
	}
	vu, vv = 2*e.URow+1, 2*e.VRow
	if vu > vv {
		vu, vv = vv, vu
	}
	return
}

// scanOverlaps sorts one direction's intervals and scans same-track runs.
// Touching at a node (even half-position) is safe: distinct ports order the
// realized endpoints. Touching inside a channel (odd half-position) is not,
// since both segments end at track-slot coordinates that need not be
// ordered.
func scanOverlaps(name, what string, ivs []ivRec) error {
	slices.SortFunc(ivs, func(a, b ivRec) int {
		if a.ch != b.ch {
			return a.ch - b.ch
		}
		if a.track != b.track {
			return a.track - b.track
		}
		if a.u != b.u {
			return a.u - b.u
		}
		return a.v - b.v
	})
	for i := 1; i < len(ivs); i++ {
		p, c := ivs[i-1], ivs[i]
		if p.ch != c.ch || p.track != c.track {
			continue
		}
		if c.u < p.v || (c.u == p.v && c.u%2 == 1) {
			return fmt.Errorf("%s: %s channel %d track %d intervals [%d,%d] and [%d,%d] overlap (half-position units)",
				name, what, c.ch, c.track, p.u, p.v, c.u, c.v)
		}
	}
	return nil
}
