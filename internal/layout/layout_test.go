package layout

import (
	"strings"
	"testing"

	"mlvlsi/internal/grid"
)

// tiny builds a 2-node layout with one legal wire.
func tiny() *Layout {
	return &Layout{
		Name: "tiny",
		L:    2,
		Nodes: []grid.Rect{
			{X: 0, Y: 0, W: 2, H: 2},
			{X: 10, Y: 0, W: 2, H: 2},
		},
		Wires: []grid.Wire{{
			ID: 0, U: 0, V: 1,
			Path: []grid.Point{
				{X: 1, Y: 2, Z: 0},
				{X: 1, Y: 2, Z: 2},
				{X: 1, Y: 4, Z: 2},
				{X: 1, Y: 4, Z: 1},
				{X: 11, Y: 4, Z: 1},
				{X: 11, Y: 4, Z: 2},
				{X: 11, Y: 2, Z: 2},
				{X: 11, Y: 2, Z: 0},
			},
		}},
	}
}

func TestMetrics(t *testing.T) {
	lay := tiny()
	b := lay.Bounds()
	if b.MinX != 0 || b.MaxX != 12 || b.MinY != 0 || b.MaxY != 4 {
		t.Errorf("bounds = %+v", b)
	}
	if lay.Width() != 12 || lay.Height() != 4 {
		t.Errorf("width/height = %d/%d, want 12/4", lay.Width(), lay.Height())
	}
	if lay.Area() != 48 || lay.Volume() != 96 {
		t.Errorf("area=%d volume=%d, want 48 and 96", lay.Area(), lay.Volume())
	}
	// Planar wire length: 2 up + 10 across + 2 down = 14.
	if lay.MaxWireLength() != 14 || lay.TotalWireLength() != 14 {
		t.Errorf("maxwire=%d total=%d, want 14", lay.MaxWireLength(), lay.TotalWireLength())
	}
	wl := lay.WireLengths()
	if len(wl) != 1 || wl[0].U != 0 || wl[0].V != 1 || wl[0].Length != 14 {
		t.Errorf("WireLengths = %+v", wl)
	}
}

func TestVerifyAndStats(t *testing.T) {
	lay := tiny()
	if v, _ := lay.VerifyOpts(nil, grid.CheckOptions{}); len(v) != 0 {
		t.Fatalf("legal layout flagged: %v", v)
	}
	s := lay.Stats()
	if s.N != 2 || s.Links != 1 || s.L != 2 || s.Area != 48 || s.MaxWire != 14 {
		t.Errorf("stats = %+v", s)
	}
	if !strings.Contains(s.String(), "tiny") || !strings.Contains(s.String(), "area=48") {
		t.Errorf("stats string = %q", s.String())
	}
}

func TestVerifyCatchesIllegal(t *testing.T) {
	lay := tiny()
	// Duplicate the wire: overlapping paths must be flagged.
	dup := lay.Wires[0]
	dup.ID = 1
	lay.Wires = append(lay.Wires, dup)
	if v, _ := lay.VerifyOpts(nil, grid.CheckOptions{}); len(v) == 0 {
		t.Error("duplicated wire not flagged")
	}
}

func TestMustVerifyPanics(t *testing.T) {
	lay := tiny()
	lay.Wires[0].Path[0].X = 100 // terminal off the node
	defer func() {
		if recover() == nil {
			t.Error("MustVerify did not panic on illegal layout")
		}
	}()
	lay.MustVerify()
}

func TestEmptyLayout(t *testing.T) {
	lay := &Layout{Name: "empty", L: 4}
	if lay.Area() != 0 || lay.Volume() != 0 || lay.MaxWireLength() != 0 {
		t.Error("empty layout should have zero metrics")
	}
	if v, _ := lay.VerifyOpts(nil, grid.CheckOptions{}); len(v) != 0 {
		t.Errorf("empty layout flagged: %v", v)
	}
}

func TestWireDistribution(t *testing.T) {
	lay := &Layout{Name: "dist", L: 2}
	lay.Nodes = []grid.Rect{{W: 1, H: 1}}
	for i, ln := range []int{2, 4, 4, 6, 10} {
		lay.Wires = append(lay.Wires, grid.Wire{
			ID: i, U: 0, V: 0,
			Path: []grid.Point{{X: 0, Y: i, Z: 1}, {X: ln, Y: i, Z: 1}},
		})
	}
	d := lay.WireDistribution()
	if d.Count != 5 || d.Min != 2 || d.Max != 10 || d.P50 != 4 {
		t.Errorf("distribution = %+v", d)
	}
	if d.Mean != 26.0/5 {
		t.Errorf("mean = %v, want 5.2", d.Mean)
	}
	if d.String() == "" {
		t.Error("empty String")
	}
	var empty Layout
	if empty.WireDistribution().Count != 0 {
		t.Error("empty layout distribution should be zero")
	}
}

func TestLayerUsage(t *testing.T) {
	lay := tiny()
	u := lay.LayerUsage()
	// The tiny wire runs 10 on layer 1 (x) and 4 on layer 2 (y stubs).
	if len(u) != 2 || u[0] != 10 || u[1] != 4 {
		t.Errorf("layer usage = %v, want [10 4]", u)
	}
}

func TestMemBytes(t *testing.T) {
	empty := &Layout{Name: "e", L: 2}
	if b := empty.MemBytes(); b <= 0 {
		t.Fatalf("empty MemBytes = %d, want > 0 (the struct itself retains memory)", b)
	}
	lay := &Layout{
		Name:  "m",
		L:     2,
		Nodes: []grid.Rect{{X: 0, Y: 0, W: 1, H: 1}, {X: 4, Y: 0, W: 1, H: 1}},
		Wires: []grid.Wire{{ID: 0, U: 0, V: 1, Path: []grid.Point{{X: 1, Y: 0, Z: 1}, {X: 4, Y: 0, Z: 1}}}},
	}
	small := lay.MemBytes()
	if small <= empty.MemBytes() {
		t.Fatalf("MemBytes = %d not above the empty layout's", small)
	}
	// Growing the geometry must grow the estimate: path vertices dominate.
	big := &Layout{Name: "m", L: 2, Nodes: lay.Nodes}
	for i := 0; i < 100; i++ {
		big.Wires = append(big.Wires, grid.Wire{ID: i, U: 0, V: 1,
			Path: make([]grid.Point, 50)})
	}
	if bb := big.MemBytes(); bb < small+100*50*24 {
		t.Fatalf("big MemBytes = %d, want at least %d more than %d for the added vertices", bb, 100*50*24, small)
	}
}
