// Package fold implements the baselines the paper compares against in §2.2:
//
//   - Fold: accordion-folding a finished 2-layer (Thompson) layout into L
//     layers. The fold divides the area by about L/2 but leaves the volume
//     and the wire lengths essentially unchanged — which is exactly why the
//     paper designs layouts directly for the multilayer model instead.
//   - StackedCollinear: the multilayer extension of the collinear layout
//     model, whose area shrinks by at most L/2 with volume unchanged.
//
// The fold is a real coordinate transformation, not an estimate: every wire
// path is rewritten strip by strip, fold crossings are routed through
// dedicated gutter columns with inter-layer vias, and the result is checked
// for edge-disjointness by the same verifier as engine-built layouts. Nodes
// of folded strips land on raised active layers (the multilayer 3-D grid
// model with L_A = L/2 active layers, as §2.2 requires for folding), so the
// folded layout carries no node rectangles and skips terminal verification.
package fold

import (
	"context"
	"fmt"

	"mlvlsi/internal/grid"
	"mlvlsi/internal/layout"
	"mlvlsi/internal/obs"
	"mlvlsi/internal/track"
)

// Fold accordion-folds a 2-layer layout into l layers (l even, >= 2).
// Strip s of the original x-range lands on layers 2s+1 and 2s+2; wires
// crossing a fold boundary detour through a gutter column and change layer
// pairs through a via.
func Fold(lay *layout.Layout, l int) (*layout.Layout, error) {
	if lay.L != 2 {
		return nil, fmt.Errorf("fold: input must be a 2-layer layout, has %d", lay.L)
	}
	if l < 2 || l%2 != 0 {
		return nil, fmt.Errorf("fold: target layer count %d must be even and >= 2", l)
	}
	strips := l / 2
	b := lay.Bounds()
	if b.Empty() {
		return &layout.Layout{Name: lay.Name + "/folded", L: l}, nil
	}
	total := b.Width() + 1 // number of distinct x coordinates
	stripW := (total + strips - 1) / strips
	if stripW < 2 {
		stripW = 2
	}
	f := folder{minX: b.MinX, stripW: stripW}

	out := &layout.Layout{Name: fmt.Sprintf("%s/folded-L%d", lay.Name, l), L: l}
	for i := range lay.Wires {
		w := &lay.Wires[i]
		nw := grid.Wire{ID: w.ID, U: w.U, V: w.V}
		nw.Path = f.mapPath(w.Path)
		out.Wires = append(out.Wires, nw)
	}
	return out, nil
}

type folder struct {
	minX   int
	stripW int
}

// strip returns the strip index and the folded x coordinate of x.
func (f *folder) strip(x int) (int, int) {
	rel := x - f.minX
	s := rel / f.stripW
	off := rel - s*f.stripW
	if s%2 == 1 {
		off = f.stripW - 1 - off
	}
	return s, off
}

// mapZ lifts an original layer z in {0, 1, 2} into strip s's layer pair.
func mapZ(s, z int) int { return 2*s + z }

func (f *folder) mapPoint(p grid.Point) grid.Point {
	s, x := f.strip(p.X)
	return grid.Point{X: x, Y: p.Y, Z: mapZ(s, p.Z)}
}

// mapPath rewrites one rectilinear path. Y- and Z-segments stay within
// their strip; X-segments are split at fold boundaries with a gutter detour:
// step into the gutter column just outside the strip edge, via to the next
// strip's layer pair, and step back in.
func (f *folder) mapPath(path []grid.Point) []grid.Point {
	out := []grid.Point{f.mapPoint(path[0])}
	appendPt := func(p grid.Point) {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	for i := 1; i < len(path); i++ {
		a, b := path[i-1], path[i]
		if b.X == a.X {
			appendPt(f.mapPoint(b))
			continue
		}
		dir := 1
		if b.X < a.X {
			dir = -1
		}
		x := a.X
		for x != b.X {
			sHere, _ := f.strip(x)
			sNext, _ := f.strip(x + dir)
			if sNext == sHere {
				x += dir
				continue
			}
			// Crossing a fold boundary: walk to the strip edge, detour
			// through the gutter, and re-enter at the mirrored position.
			edgeS, edgeX := f.strip(x)
			z := mapZ(edgeS, a.Z)
			gutter := gutterX(edgeX)
			appendPt(grid.Point{X: edgeX, Y: a.Y, Z: z})
			appendPt(grid.Point{X: gutter, Y: a.Y, Z: z})
			zNext := mapZ(sNext, a.Z)
			appendPt(grid.Point{X: gutter, Y: a.Y, Z: zNext})
			appendPt(grid.Point{X: edgeX, Y: a.Y, Z: zNext})
			x += dir
			// The re-entry x equals edgeX by the accordion mirror; continue
			// the walk from there.
		}
		appendPt(f.mapPoint(b))
	}
	return out
}

// gutterX returns the gutter column adjacent to a strip edge: edges at
// offset 0 use column -1, edges at the right edge use column stripW.
func gutterX(edgeX int) int {
	if edgeX == 0 {
		return -1
	}
	return edgeX + 1
}

// VerifyOpts checks a folded layout for rectilinearity, edge-disjointness
// and the direction discipline. Terminal checks are skipped — folded nodes
// live on raised active layers, so opts.Nodes is cleared — while the
// fan-out, memory-ceiling, and instrumentation knobs pass through to
// grid.Verify exactly as Layout.VerifyOpts does for engine-built layouts
// (including rooting a "verify" span on opts.Observer when opts.Span is
// nil).
func VerifyOpts(ctx context.Context, lay *layout.Layout, opts grid.CheckOptions) ([]grid.Violation, error) {
	opts.Layers = lay.L
	opts.Discipline = true
	opts.Nodes = nil
	var sp *obs.Span
	if opts.Span == nil {
		sp = opts.Observer.StartSpan("verify")
		sp.SetAttr("wires", int64(len(lay.Wires)))
		opts.Span = sp
	}
	vs, err := grid.Verify(ctx, lay.Wires, opts)
	sp.SetAttr("violations", int64(len(vs))).End()
	return vs, err
}

// Stats summarizes a folded layout against its source, the comparison §2.2
// draws: area shrinks by ≈ L/2, volume and max wire length stay put.
type Stats struct {
	L                  int
	Area, Volume       int
	MaxWire, TotalWire int
}

// Measure computes the folded layout's cost measures from its wires.
func Measure(lay *layout.Layout) Stats {
	b := grid.Wires(lay.Wires).Bounds()
	s := Stats{L: lay.L, Area: b.Area(), Volume: lay.L * b.Area()}
	for i := range lay.Wires {
		n := lay.Wires[i].PlanarLength()
		s.TotalWire += n
		if n > s.MaxWire {
			s.MaxWire = n
		}
	}
	return s
}

// StackedCollinear predicts the cost of extending a collinear layout to L
// layers (the "multilayer collinear model" baseline of §2.2): the track
// bundle splits across ⌊L/2⌋ layer pairs, so the height shrinks by at most
// L/2 while the length — and hence the volume and the maximum wire length —
// do not improve.
func StackedCollinear(c *track.Collinear, l int) Stats {
	pairs := l / 2
	if pairs < 1 {
		pairs = 1
	}
	perLayer := (c.Tracks + pairs - 1) / pairs
	// One unit of width per node plus the track bundle height.
	area := c.N * (perLayer + 1)
	return Stats{
		L:       l,
		Area:    area,
		Volume:  l * area,
		MaxWire: c.MaxSpan(),
	}
}
