// Package stack implements the paper's multilayer 3-D grid model (§2.2):
// network nodes occupy L_A active layers ("boards") instead of one, with
// each board carrying a 2-D multilayer layout and the board-direction
// factor of a product network routed as vertical "elevator" columns through
// the stack. This realizes the paper's observation that the 2-D model is
// the special case L_A = 1, and lets experiments compare footprint area,
// volume, and wire length across the two models.
//
// Geometry: board b occupies the z-band [b·(L+1), b·(L+1)+L] — one active
// layer plus L wiring layers — with identical planar geometry on every
// board. A board-direction link between boards b1 < b2 is a single z-run
// (an inter-board via column) through the intervening bands at a planar
// coordinate inside its node's rectangle; elevator columns are allocated
// two per board-factor track (alternating between touching intervals) so
// distinct links never share a grid edge or a terminal point.
package stack

import (
	"context"
	"fmt"

	"mlvlsi/internal/core"
	"mlvlsi/internal/grid"
	"mlvlsi/internal/layout"
	"mlvlsi/internal/obs"
	"mlvlsi/internal/par"
	"mlvlsi/internal/track"
)

// Spec describes a stacked layout: a 2-D board spec replicated over the
// positions of a board-direction collinear factor.
type Spec struct {
	Name string
	// Board is the per-board 2-D spec. Its Label gives in-board labels;
	// its NodeSide is raised automatically to fit elevator columns.
	Board core.Spec
	// BoardFac is the collinear layout of the board-direction factor; its
	// N is the number of boards and its tracks allocate elevator columns.
	BoardFac *track.Collinear
	// Label combines a board-factor label and an in-board label into the
	// global node label. Nil means boardLabel·boardNodes + inBoard.
	Label func(boardLabel, inBoard int) int
}

// Knobs carries the cross-cutting build options of the 3-D constructors —
// the same set the 2-D engines take, interpreted stack-wide.
type Knobs struct {
	// NodeSide fixes the node square side (0 = minimal). An explicit side
	// too small for the stack's elevator columns is a *SideError; zero is
	// raised automatically as before.
	NodeSide int
	// Workers bounds the board realization fan-out (0 = GOMAXPROCS); the
	// realized stack is identical for every value.
	Workers int
	// Ctx cancels the build cooperatively (error wraps par.ErrCanceled);
	// replication and elevator allocation poll it between boards.
	Ctx context.Context
	// MaxCells bounds the planned grid occupancy of the WHOLE stack —
	// (width+1)·(height+1)·boards·(L+1) — not of a single board; overruns
	// return a *layout.BudgetError before any wire is realized.
	MaxCells int
	// Obs receives a "stack" span with replicate/elevators children plus
	// the board engine's build spans and counters; nil disables observation.
	Obs *obs.Observer
}

// apply copies the knobs onto a board spec. Build reinterprets the board
// spec's MaxCells as the stack-wide budget and enforces it against the
// whole-stack cell count, clearing it before the per-board engine runs.
func (k Knobs) apply(s core.Spec) core.Spec {
	s.NodeSide = k.NodeSide
	s.Workers = k.Workers
	s.Ctx = k.Ctx
	s.MaxCells = k.MaxCells
	s.Obs = k.Obs
	return s
}

// SideError reports an explicit node side too small to host the stack's
// elevator columns. Got is the requested side; Need is the minimum side
// whose square fits the elevator block.
type SideError struct {
	Name      string
	Got, Need int
}

func (e *SideError) Error() string {
	return fmt.Sprintf("stack %s: node side %d cannot host the elevator columns, needs >= %d", e.Name, e.Got, e.Need)
}

// Layout3D is a realized stacked layout.
type Layout3D struct {
	Name string
	// Boards is the number of active layers (the paper's L_A).
	Boards int
	// LayersPerBoard is the wiring-layer count L of each board.
	LayersPerBoard int
	// TotalLayers is the full z-extent: Boards·(L+1) grid layers.
	TotalLayers int
	// Nodes holds the planar rectangle and board of every node, indexed by
	// global label.
	Nodes []BoardRect
	// Wires holds all realized wires in global z coordinates.
	Wires []grid.Wire
	// boardWireCount is the number of wires per board (prefix of Wires,
	// Boards consecutive groups); the rest are elevators.
	boardWireCount int
}

// BoardRect locates a node: planar rectangle plus board index.
type BoardRect struct {
	grid.Rect
	Board int
}

// bandBase returns the z of board b's active layer.
func bandBase(b, layersPerBoard int) int { return b * (layersPerBoard + 1) }

// Build realizes the stacked layout. The board spec's MaxCells, if set, is
// the budget for the WHOLE stack (see Knobs.MaxCells); its Ctx is polled
// between boards during replication and elevator allocation; its Obs gets a
// "stack" span with replicate/elevators children alongside the board
// engine's own build span.
func Build(spec Spec) (*Layout3D, error) {
	boards := spec.BoardFac.N
	if boards < 1 {
		return nil, fmt.Errorf("%s: board factor has no positions", spec.Name)
	}
	if spec.Board.L < 2 {
		return nil, fmt.Errorf("%s: board spec needs L >= 2", spec.Name)
	}
	ob := spec.Board.Obs
	root := ob.StartSpan("stack")
	root.SetAttr("boards", int64(boards))
	defer root.End()
	// Elevator capacity: two columns per board-factor track, arranged in a
	// square block inside each node; the node side must fit the block and
	// the board spec's own ports.
	elevCols := 2 * spec.BoardFac.Tracks
	sideNeed := 1
	for sideNeed*sideNeed < elevCols {
		sideNeed++
	}
	boardSpec := spec.Board
	budget := boardSpec.MaxCells
	boardSpec.MaxCells = 0 // enforced stack-wide below, not per board
	if boardSpec.NodeSide > 0 && boardSpec.NodeSide < sideNeed {
		return nil, &SideError{Name: spec.Name, Got: boardSpec.NodeSide, Need: sideNeed}
	}
	// Planning passes run unobserved: only the realizing build below should
	// contribute spans and counters.
	planSpec := boardSpec
	planSpec.Obs = nil
	if boardSpec.NodeSide < sideNeed {
		// Let the board spec recompute with at least the elevator demand;
		// Plan tells us the port-driven minimum.
		geom, err := core.Plan(planSpec)
		if err != nil {
			return nil, err
		}
		if geom.Side > sideNeed {
			sideNeed = geom.Side
		}
		boardSpec.NodeSide = sideNeed
		planSpec.NodeSide = sideNeed
	}
	if budget > 0 {
		geom, err := core.Plan(planSpec)
		if err != nil {
			return nil, err
		}
		cells := (geom.Width + 1) * (geom.Height + 1) * boards * (spec.Board.L + 1)
		ob.Set(obs.BudgetHeadroom, int64(budget-cells))
		if cells > budget {
			return nil, &layout.BudgetError{Name: spec.Name, Cells: cells, Budget: budget}
		}
	}
	boardLay, err := core.Build(boardSpec)
	if err != nil {
		return nil, err
	}
	inBoardN := len(boardLay.Nodes)
	label := spec.Label
	if label == nil {
		label = func(bl, in int) int { return bl*inBoardN + in }
	}

	l := spec.Board.L
	out := &Layout3D{
		Name:           spec.Name,
		Boards:         boards,
		LayersPerBoard: l,
		TotalLayers:    boards*(l+1) - 1,
	}
	out.Nodes = make([]BoardRect, boards*inBoardN)
	for b := 0; b < boards; b++ {
		bl := spec.BoardFac.Label(b)
		for in, r := range boardLay.Nodes {
			out.Nodes[label(bl, in)] = BoardRect{Rect: r, Board: b}
		}
	}

	// Replicate board wires into each band.
	rep := root.Child("replicate")
	wireID := 0
	for b := 0; b < boards; b++ {
		if err := par.Canceled(boardSpec.Ctx); err != nil {
			return nil, err
		}
		base := bandBase(b, l)
		bl := spec.BoardFac.Label(b)
		for i := range boardLay.Wires {
			src := &boardLay.Wires[i]
			w := grid.Wire{
				ID: wireID,
				U:  label(bl, src.U),
				V:  label(bl, src.V),
			}
			wireID++
			w.Path = make([]grid.Point, len(src.Path))
			for j, p := range src.Path {
				w.Path[j] = grid.Point{X: p.X, Y: p.Y, Z: p.Z + base}
			}
			out.Wires = append(out.Wires, w)
		}
	}
	out.boardWireCount = len(out.Wires)
	rep.SetAttr("wires", int64(out.boardWireCount)).End()

	// Elevators: allocate per-track column pairs; edges on one track are
	// interval-disjoint, and alternating columns keep touching intervals
	// off each other's terminal points.
	elev := root.Child("elevators")
	side := boardLay.Nodes[0].W
	perTrackIdx := make(map[int]int) // track -> next alternation bit
	type colKey struct{ track, alt int }
	colOf := make(map[colKey]int)
	nextCol := 0
	for _, e := range spec.BoardFac.Edges {
		if err := par.Canceled(boardSpec.Ctx); err != nil {
			return nil, err
		}
		alt := perTrackIdx[e.Track] % 2
		perTrackIdx[e.Track]++
		k := colKey{e.Track, alt}
		col, ok := colOf[k]
		if !ok {
			col = nextCol
			nextCol++
			colOf[k] = col
		}
		ex, ey := col%side, col/side
		if ey >= side {
			return nil, fmt.Errorf("%s: node side %d cannot host %d elevator columns", spec.Name, side, nextCol)
		}
		zu := bandBase(e.U, l)
		zv := bandBase(e.V, l)
		lu, lv := spec.BoardFac.Label(e.U), spec.BoardFac.Label(e.V)
		for in, r := range boardLay.Nodes {
			w := grid.Wire{
				ID: wireID,
				U:  label(lu, in),
				V:  label(lv, in),
				Path: []grid.Point{
					{X: r.X + ex, Y: r.Y + ey, Z: zu},
					{X: r.X + ex, Y: r.Y + ey, Z: zv},
				},
			}
			wireID++
			out.Wires = append(out.Wires, w)
		}
	}
	elev.SetAttr("wires", int64(len(out.Wires)-out.boardWireCount)).End()
	// The board engine counted one board's worth; top up so the total
	// matches the wires the stack actually realized.
	ob.Add(obs.WiresRealized, int64(len(out.Wires)-len(boardLay.Wires)))
	return out, nil
}

// Area is the planar footprint (identical across boards). Wire z-extents
// don't matter here: BoundingBox.Area is width x height only.
func (s *Layout3D) Area() int {
	b := grid.Wires(s.Wires).Bounds()
	for _, n := range s.Nodes {
		b.AddRect(n.Rect, 0)
	}
	return b.Area()
}

// Volume is total layers × footprint area.
func (s *Layout3D) Volume() int {
	return (s.TotalLayers + 1) * s.Area()
}

// MaxWireLength is the longest planar wire length (elevators have zero
// planar length; their cost shows up in Volume and TotalLayers).
func (s *Layout3D) MaxWireLength() int {
	m := 0
	for i := range s.Wires {
		if n := s.Wires[i].PlanarLength(); n > m {
			m = n
		}
	}
	return m
}

// Verify checks the stacked layout: global edge-disjointness over all
// wires, plus per-board legality (direction discipline and terminals) of
// the in-board wiring after shifting each band back to z = 0.
func (s *Layout3D) Verify() []grid.Violation {
	// Global pass: pure edge-disjointness.
	if v, _ := grid.Verify(nil, s.Wires, grid.CheckOptions{}); len(v) > 0 {
		return v
	}
	// Per-board pass: discipline within the band.
	perBoard := s.boardWireCount / s.Boards
	for b := 0; b < s.Boards; b++ {
		base := bandBase(b, s.LayersPerBoard)
		var shifted []grid.Wire
		for i := b * perBoard; i < (b+1)*perBoard; i++ {
			src := s.Wires[i]
			w := grid.Wire{ID: src.ID, U: src.U, V: src.V}
			for _, p := range src.Path {
				w.Path = append(w.Path, grid.Point{X: p.X, Y: p.Y, Z: p.Z - base})
			}
			shifted = append(shifted, w)
		}
		if v, _ := grid.Verify(nil, shifted, grid.CheckOptions{Layers: s.LayersPerBoard, Discipline: true}); len(v) > 0 {
			return v
		}
	}
	return nil
}

// Stats summarizes the stacked layout.
type Stats struct {
	Name        string
	N           int
	Boards      int
	TotalLayers int
	Area        int
	Volume      int
	MaxWire     int
}

func (s *Layout3D) Stats() Stats {
	return Stats{
		Name:        s.Name,
		N:           len(s.Nodes),
		Boards:      s.Boards,
		TotalLayers: s.TotalLayers + 1,
		Area:        s.Area(),
		Volume:      s.Volume(),
		MaxWire:     s.MaxWireLength(),
	}
}

func (st Stats) String() string {
	return fmt.Sprintf("%s: N=%d boards=%d layers=%d area=%d volume=%d maxwire=%d",
		st.Name, st.N, st.Boards, st.TotalLayers, st.Area, st.Volume, st.MaxWire)
}

// KAryNCube3D lays out a k-ary n-cube in the 3-D model: nz dimensions run
// across boards (k^nz boards), the rest split over the per-board 2-D
// layout. Node labels match topology.KAryNCube: the board digits are the
// most significant. The knobs thread the cross-cutting build options
// through the board engine; Knobs{} reproduces the default build.
func KAryNCube3D(k, n, nz, l int, folded bool, kn Knobs) (*Layout3D, error) {
	if nz < 1 || nz >= n {
		return nil, fmt.Errorf("KAryNCube3D: need 1 <= nz < n")
	}
	planar := n - nz
	rowFac := track.KAryNCube(k, planar/2, folded)
	if planar/2 == 0 {
		rowFac = &track.Collinear{Name: "trivial", N: 1}
	}
	colFac := track.KAryNCube(k, (planar+1)/2, folded)
	boardFac := track.KAryNCube(k, nz, folded)
	boardSpec := kn.apply(core.FromFactors("board", rowFac, colFac, l, 0))
	inBoard := rowFac.N * colFac.N
	return Build(Spec{
		Name:     fmt.Sprintf("%d-ary %d-cube 3D(nz=%d) L=%d", k, n, nz, l),
		Board:    boardSpec,
		BoardFac: boardFac,
		Label: func(bl, in int) int {
			return bl*inBoard + in
		},
	})
}

// Hypercube3D lays out the binary n-cube with nz dimensions across boards.
// The knobs thread the cross-cutting build options through the board
// engine; Knobs{} reproduces the default build.
func Hypercube3D(n, nz, l int, kn Knobs) (*Layout3D, error) {
	if nz < 1 || nz >= n {
		return nil, fmt.Errorf("Hypercube3D: need 1 <= nz < n")
	}
	planar := n - nz
	rowFac := track.Hypercube(planar / 2)
	colFac := track.Hypercube((planar + 1) / 2)
	boardFac := track.Hypercube(nz)
	boardSpec := kn.apply(core.FromFactors("board", rowFac, colFac, l, 0))
	inBoard := rowFac.N * colFac.N
	return Build(Spec{
		Name:     fmt.Sprintf("%d-cube 3D(nz=%d) L=%d", n, nz, l),
		Board:    boardSpec,
		BoardFac: boardFac,
		Label: func(bl, in int) int {
			return bl*inBoard + in
		},
	})
}
