package core

import (
	"mlvlsi/internal/grid"
	"testing"
	"testing/quick"

	"mlvlsi/internal/layout"
)

// specGen builds pseudo-random but spec-valid layouts: random grids, random
// interval sets packed onto tracks by first-fit, random bent edges on
// dedicated or shared tracks. Every generated spec must Build and Verify.
type specGen struct {
	s uint64
}

func newSpecGen(seed int64) *specGen {
	return &specGen{s: uint64(seed)*0x9E3779B97F4A7C15 + 1}
}

func (g *specGen) next(n int) int {
	g.s ^= g.s << 13
	g.s ^= g.s >> 7
	g.s ^= g.s << 17
	if n <= 0 {
		return 0
	}
	return int(g.s % uint64(n))
}

// randChannelEdges fills channels with random interior-disjoint intervals:
// for each channel and track, walk left to right placing intervals with
// random gaps. Tracks where a bent edge will end (odd half-positions) are
// avoided by construction since bent edges get their own track ids here.
func (g *specGen) randChannelEdges(channels, positions, maxTracks, density int) []ChannelEdge {
	var out []ChannelEdge
	for ch := 0; ch < channels; ch++ {
		tracks := 1 + g.next(maxTracks)
		for tr := 0; tr < tracks; tr++ {
			pos := 0
			for pos+1 < positions {
				if g.next(100) >= density {
					pos++
					continue
				}
				span := 1 + g.next(positions-pos-1)
				out = append(out, ChannelEdge{Index: ch, U: pos, V: pos + span, Track: tr})
				pos += span // touching at nodes is legal
			}
		}
	}
	return out
}

func buildRandomSpec(seed int64) Spec {
	g := newSpecGen(seed)
	rows := 2 + g.next(5)
	cols := 2 + g.next(5)
	l := 2 + g.next(7)
	spec := Spec{
		Name: "fuzz", Rows: rows, Cols: cols, L: l,
		RowEdges: g.randChannelEdges(rows, cols, 3, 40),
		ColEdges: g.randChannelEdges(cols, rows, 3, 40),
	}
	// A few bent edges on dedicated tracks.
	for i := 0; i < g.next(6); i++ {
		ur, uc := g.next(rows), g.next(cols)
		vr, vc := g.next(rows), g.next(cols)
		if ur == vr && uc == vc {
			continue
		}
		spec.AddDedicatedBent(ur, uc, vr, vc)
	}
	return spec
}

// Property: every structurally valid random spec builds into a verified
// layout whose wire count equals the edge count.
func TestEngineFuzzRandomSpecs(t *testing.T) {
	f := func(seed int64) bool {
		spec := buildRandomSpec(seed)
		lay, err := Build(spec)
		if err != nil {
			t.Logf("seed %d: build error: %v", seed, err)
			return false
		}
		if v, _ := lay.VerifyOpts(nil, grid.CheckOptions{}); len(v) > 0 {
			t.Logf("seed %d: %d violations, first: %v", seed, len(v), v[0])
			return false
		}
		want := len(spec.RowEdges) + len(spec.ColEdges) + len(spec.Bent)
		return len(lay.Wires) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: Plan and Build agree on geometry (width/height equal the
// realized bounding box when node rectangles anchor the origin).
func TestEnginePlanMatchesBuild(t *testing.T) {
	f := func(seed int64) bool {
		spec := buildRandomSpec(seed)
		geom, err := Plan(spec)
		if err != nil {
			return false
		}
		lay, err := Build(spec)
		if err != nil {
			return false
		}
		b := lay.Bounds()
		// The plan's extents bound the realization (trailing empty channels
		// may leave the realized box smaller).
		return b.Width() <= geom.Width && b.Height() <= geom.Height &&
			geom.Side == lay.Nodes[0].W
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: node-side monotonicity — forcing a larger node side preserves
// legality and can only grow the area.
func TestEngineSideMonotone(t *testing.T) {
	f := func(seed int64) bool {
		spec := buildRandomSpec(seed)
		lay, err := Build(spec)
		if err != nil {
			return false
		}
		side := lay.Nodes[0].W
		spec.NodeSide = side + 1 + int(uint(seed)%3)
		bigger, err := Build(spec)
		if err != nil {
			return false
		}
		if v, _ := bigger.VerifyOpts(nil, grid.CheckOptions{}); len(v) > 0 {
			return false
		}
		return bigger.Area() >= lay.Area()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: adding wiring layers never makes the planned channel area
// larger.
func TestEngineLayersMonotone(t *testing.T) {
	f := func(seed int64) bool {
		spec := buildRandomSpec(seed)
		spec.L = 2
		g2, err := Plan(spec)
		if err != nil {
			return false
		}
		spec.L = 8
		g8, err := Plan(spec)
		if err != nil {
			return false
		}
		return g8.ChannelArea() <= g2.ChannelArea()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: every engine output is Thompson-strict — no planar run crosses
// a foreign node's interior (the engines keep all trunks in channels and
// all stubs over their own node).
func TestEngineOutputsAreClearanceClean(t *testing.T) {
	f := func(seed int64) bool {
		lay, err := Build(buildRandomSpec(seed))
		if err != nil {
			return false
		}
		if v := lay.VerifyStrict(); len(v) > 0 {
			t.Logf("seed %d: %v", seed, v[0])
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNamedFamiliesClearanceClean(t *testing.T) {
	lays := []func() (*layout.Layout, error){
		func() (*layout.Layout, error) { return Hypercube(6, 4, 0, 0) },
		func() (*layout.Layout, error) { return KAryNCube(4, 2, 4, true, 0, 0) },
		func() (*layout.Layout, error) { return GeneralizedHypercube([]int{4, 4}, 3, 0, 0) },
	}
	for _, mk := range lays {
		lay, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if v := lay.VerifyStrict(); len(v) > 0 {
			t.Errorf("%s: %v", lay.Name, v[0])
		}
	}
}

// Layer grouping sanity: a large-L hypercube layout must actually use every
// wiring layer, with horizontal trunk length concentrated on odd layers and
// vertical on even.
func TestLayerUsageBalanced(t *testing.T) {
	lay, err := Hypercube(8, 8, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	usage := lay.LayerUsage()
	if len(usage) != 8 {
		t.Fatalf("usage has %d layers, want 8", len(usage))
	}
	for z, u := range usage {
		if u == 0 {
			t.Errorf("layer %d carries no wire length — grouping broken", z+1)
		}
	}
	// Odd (trunk H) layers should each carry a comparable share: no layer
	// more than 4x another within its parity class.
	for _, parity := range []int{0, 1} {
		min, max := int(^uint(0)>>1), 0
		for z := parity; z < 8; z += 2 {
			if usage[z] < min {
				min = usage[z]
			}
			if usage[z] > max {
				max = usage[z]
			}
		}
		if max > 4*min {
			t.Errorf("parity %d layers unbalanced: min %d max %d (usage %v)", parity, min, max, usage)
		}
	}
}
