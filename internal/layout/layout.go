// Package layout defines the realized multilayer layout produced by the
// engines in this module: concrete node rectangles on the active layer and
// concrete rectilinear wire paths through L wiring layers, plus the cost
// measures the paper reports (area, volume, maximum wire length) and a
// legality verifier.
package layout

import (
	"context"
	"fmt"
	"sort"
	"unsafe"

	"mlvlsi/internal/grid"
	"mlvlsi/internal/obs"
)

// BudgetError reports a build abandoned because the planned layout would
// exceed the caller's cell budget (see Options.MaxCells at the module root).
// It is returned before any wire is realized, so a budget overrun costs
// geometry planning only, not memory proportional to the layout.
type BudgetError struct {
	// Name is the layout (family instance) whose plan overran the budget.
	Name string
	// Cells is the planned occupancy: grid vertices per layer times the
	// number of layers (0..L inclusive).
	Cells int
	// Budget is the configured maximum.
	Budget int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("layout %s needs %d grid cells, over the budget of %d", e.Name, e.Cells, e.Budget)
}

// Layout is a fully realized multilayer layout.
type Layout struct {
	Name string
	// L is the number of wiring layers (Z = 1..L); nodes sit on Z = 0.
	L int
	// Nodes holds one rectangle per node, indexed by node label.
	Nodes []grid.Rect
	// Wires holds one realized path per network link; Wire.U/V are node
	// labels.
	Wires []grid.Wire
}

// MemBytes estimates the bytes the layout retains on the heap: the node and
// wire slice backing arrays plus every wire's path vertices (counted at
// capacity, since that is what the allocator holds). The serving cache uses
// it as the unit of its byte budget, so the estimate leans exact for the
// dominant term — path vertices — and flat for the fixed-size headers.
func (l *Layout) MemBytes() int64 {
	const (
		pointSize  = int64(unsafe.Sizeof(grid.Point{}))
		rectSize   = int64(unsafe.Sizeof(grid.Rect{}))
		wireSize   = int64(unsafe.Sizeof(grid.Wire{}))
		layoutSize = int64(unsafe.Sizeof(Layout{}))
	)
	b := layoutSize + int64(len(l.Name))
	b += int64(cap(l.Nodes)) * rectSize
	b += int64(cap(l.Wires)) * wireSize
	for i := range l.Wires {
		b += int64(cap(l.Wires[i].Path)) * pointSize
	}
	return b
}

// Bounds returns the smallest upright box containing all nodes and wires.
func (l *Layout) Bounds() grid.BoundingBox {
	b := grid.Wires(l.Wires).Bounds()
	for _, r := range l.Nodes {
		b.AddRect(r, 0)
	}
	return b
}

// Area is the paper's layout area: the planar area of the bounding
// rectangle over all layers.
func (l *Layout) Area() int {
	b := l.Bounds()
	return b.Area()
}

// Volume is the paper's layout volume: L times the area.
func (l *Layout) Volume() int {
	return l.L * l.Area()
}

// Width and Height are the planar extents of the bounding rectangle.
func (l *Layout) Width() int {
	b := l.Bounds()
	return b.Width()
}

func (l *Layout) Height() int {
	b := l.Bounds()
	return b.Height()
}

// MaxWireLength returns the length of the longest wire, counting X and Y
// runs only (vias are inter-layer connectors, not tracks).
func (l *Layout) MaxWireLength() int {
	m := 0
	for i := range l.Wires {
		if n := l.Wires[i].PlanarLength(); n > m {
			m = n
		}
	}
	return m
}

// TotalWireLength returns the summed planar length of all wires.
func (l *Layout) TotalWireLength() int {
	t := 0
	for i := range l.Wires {
		t += l.Wires[i].PlanarLength()
	}
	return t
}

// WireLengths returns, for each link, its endpoints and planar length.
// Parallel links appear once each.
func (l *Layout) WireLengths() []WireLength {
	out := make([]WireLength, len(l.Wires))
	for i := range l.Wires {
		out[i] = WireLength{
			U:      l.Wires[i].U,
			V:      l.Wires[i].V,
			Length: l.Wires[i].PlanarLength(),
		}
	}
	return out
}

// WireLength records the realized length of one link.
type WireLength struct {
	U, V, Length int
}

// VerifyOpts checks the layout's legality under the multilayer grid model
// — wires are rectilinear, pairwise edge-disjoint, within layers 0..L, obey
// the direction discipline, and terminate on their endpoint nodes. The
// layout's geometry (layers, discipline, node rectangles) overrides the
// corresponding option fields; everything else — the worker fan-out, the
// memory ceiling (TileBytes), and instrumentation — comes from opts. When
// opts.Span is nil the check is rooted as a "verify" span on opts.Observer
// (which may itself be nil, disabling observation at zero cost); a
// caller-supplied span is used as-is, exactly as grid.Verify documents.
func (l *Layout) VerifyOpts(ctx context.Context, opts grid.CheckOptions) ([]grid.Violation, error) {
	opts.Layers = l.L
	opts.Discipline = true
	opts.Nodes = l.Nodes
	var sp *obs.Span
	if opts.Span == nil {
		sp = opts.Observer.StartSpan("verify")
		sp.SetAttr("wires", int64(len(l.Wires)))
		opts.Span = sp
	}
	vs, err := grid.Verify(ctx, l.Wires, opts)
	sp.SetAttr("violations", int64(len(vs))).End()
	return vs, err
}

// VerifyStrict performs VerifyOpts with default options plus the
// Thompson-strict clearance check: no planar wire segment may pass through
// the interior of a foreign node rectangle. The multilayer model permits
// such crossings; the engines in this module never produce them, and strict
// verification certifies that.
func (l *Layout) VerifyStrict() []grid.Violation {
	if v, _ := l.VerifyOpts(nil, grid.CheckOptions{}); len(v) > 0 {
		return v
	}
	return grid.CheckClearance(l.Wires, l.Nodes)
}

// MustVerify panics with a descriptive message if the layout is illegal;
// intended for construction-time assertions in examples and benchmarks.
func (l *Layout) MustVerify() {
	if v, _ := l.VerifyOpts(nil, grid.CheckOptions{}); len(v) > 0 {
		panic(fmt.Sprintf("layout %s is illegal: %v (and %d more)", l.Name, v[0], len(v)-1))
	}
}

// Stats bundles the cost measures of a layout for reporting.
type Stats struct {
	Name          string
	N             int // number of nodes
	Links         int // number of wires
	L             int // wiring layers
	Width, Height int
	Area          int
	Volume        int
	MaxWire       int
	TotalWire     int
}

// Stats computes the full cost summary.
func (l *Layout) Stats() Stats {
	b := l.Bounds()
	return Stats{
		Name:      l.Name,
		N:         len(l.Nodes),
		Links:     len(l.Wires),
		L:         l.L,
		Width:     b.Width(),
		Height:    b.Height(),
		Area:      b.Area(),
		Volume:    l.L * b.Area(),
		MaxWire:   l.MaxWireLength(),
		TotalWire: l.TotalWireLength(),
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("%s: N=%d links=%d L=%d %dx%d area=%d volume=%d maxwire=%d",
		s.Name, s.N, s.Links, s.L, s.Width, s.Height, s.Area, s.Volume, s.MaxWire)
}

// Distribution summarizes the planar wire-length distribution of a layout.
type Distribution struct {
	Count         int
	Min, Max      int
	Mean          float64
	P50, P90, P99 int
}

// WireDistribution computes planar wire-length statistics over all wires.
func (l *Layout) WireDistribution() Distribution {
	if len(l.Wires) == 0 {
		return Distribution{}
	}
	lengths := make([]int, len(l.Wires))
	total := 0
	for i := range l.Wires {
		lengths[i] = l.Wires[i].PlanarLength()
		total += lengths[i]
	}
	sort.Ints(lengths)
	pick := func(q float64) int {
		idx := int(q * float64(len(lengths)-1))
		return lengths[idx]
	}
	return Distribution{
		Count: len(lengths),
		Min:   lengths[0],
		Max:   lengths[len(lengths)-1],
		Mean:  float64(total) / float64(len(lengths)),
		P50:   pick(0.50),
		P90:   pick(0.90),
		P99:   pick(0.99),
	}
}

func (d Distribution) String() string {
	return fmt.Sprintf("wires=%d min=%d p50=%d p90=%d p99=%d max=%d mean=%.1f",
		d.Count, d.Min, d.P50, d.P90, d.P99, d.Max, d.Mean)
}

// LayerUsage returns, for each wiring layer z = 1..L, the total planar wire
// length routed on it (index 0 corresponds to layer 1). A well-grouped
// multilayer layout spreads trunk wirelength across its odd (horizontal)
// and even (vertical) layers.
func (l *Layout) LayerUsage() []int {
	usage := make([]int, l.L)
	for i := range l.Wires {
		w := &l.Wires[i]
		w.Segments(func(start grid.Point, axis grid.Axis, length int) {
			if axis == grid.AxisZ || start.Z < 1 || start.Z > l.L {
				return
			}
			n := length
			if n < 0 {
				n = -n
			}
			usage[start.Z-1] += n
		})
	}
	return usage
}
