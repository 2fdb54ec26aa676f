package generic

import (
	"mlvlsi/internal/grid"
	"sort"
	"testing"

	"mlvlsi/internal/core"
	"mlvlsi/internal/layout"
	"mlvlsi/internal/topology"
)

func build(t *testing.T, g *topology.Graph, l int) *layout.Layout {
	t.Helper()
	lay, err := Layout(g, Config{L: l})
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	if v, _ := lay.VerifyOpts(nil, grid.CheckOptions{}); len(v) > 0 {
		t.Fatalf("%s: %d violations, first: %v", lay.Name, len(v), v[0])
	}
	return lay
}

func sameGraph(t *testing.T, lay *layout.Layout, g *topology.Graph) {
	t.Helper()
	if len(lay.Wires) != len(g.Links) {
		t.Fatalf("%s: %d wires, want %d", lay.Name, len(lay.Wires), len(g.Links))
	}
	got := make([]topology.Link, 0, len(lay.Wires))
	for i := range lay.Wires {
		u, v := lay.Wires[i].U, lay.Wires[i].V
		if u > v {
			u, v = v, u
		}
		got = append(got, topology.Link{U: u, V: v})
	}
	sort.Slice(got, func(i, j int) bool {
		if got[i].U != got[j].U {
			return got[i].U < got[j].U
		}
		return got[i].V < got[j].V
	})
	want := g.LinkSet()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: wires differ at %d: got %v want %v", lay.Name, i, got[i], want[i])
		}
	}
}

func TestGenericLaysOutAnything(t *testing.T) {
	graphs := []*topology.Graph{
		topology.Hypercube(5),
		topology.KAryNCube(3, 3),
		topology.DeBruijn(5),
		topology.ShuffleExchange(5),
		topology.Star(4),
		topology.CCC(3),
		topology.Complete(9), // non-square N with padding
	}
	for _, g := range graphs {
		for _, l := range []int{2, 4, 8} {
			lay := build(t, g, l)
			sameGraph(t, lay, g)
		}
	}
}

func TestGenericMultilayerShrinks(t *testing.T) {
	g := topology.DeBruijn(7)
	a2 := build(t, g, 2).Area()
	a8 := build(t, g, 8).Area()
	if a8 >= a2 {
		t.Fatalf("generic layout area did not shrink with L: %d -> %d", a2, a8)
	}
	if r := float64(a2) / float64(a8); r < 1.5 {
		t.Errorf("generic L-gain %.2f too small; pool grouping is not engaging", r)
	}
}

func TestGenericVsSpecializedPremium(t *testing.T) {
	// The structured hypercube layout must beat the generic router; the
	// premium is what E18 reports.
	g := topology.Hypercube(7)
	gen := build(t, g, 4)
	spec, err := core.Hypercube(7, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Area() <= spec.Area() {
		t.Errorf("generic area %d not above specialized %d — suspicious", gen.Area(), spec.Area())
	}
	if gen.Area() > 40*spec.Area() {
		t.Errorf("generic premium %.1fx implausibly large", float64(gen.Area())/float64(spec.Area()))
	}
}

func TestGenericCustomPlacement(t *testing.T) {
	// Gray-code snake placement of a ring keeps links short.
	g := topology.KAryNCube(16, 1) // 16-node ring
	rowMajor := build(t, g, 2)
	snake, err := Layout(g, Config{L: 2, Place: func(label, rows, cols int) (int, int) {
		r := label / cols
		c := label % cols
		if r%2 == 1 {
			c = cols - 1 - c
		}
		return r, c
	}})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := snake.VerifyOpts(nil, grid.CheckOptions{}); len(v) > 0 {
		t.Fatal(v[0])
	}
	if snake.MaxWireLength() > rowMajor.MaxWireLength() {
		t.Errorf("snake placement lengthened ring wires: %d vs %d",
			snake.MaxWireLength(), rowMajor.MaxWireLength())
	}
}

func TestGenericValidation(t *testing.T) {
	g := topology.Hypercube(3)
	if _, err := Layout(g, Config{L: 1}); err == nil {
		t.Error("L=1 accepted")
	}
	if _, err := Layout(g, Config{L: 2, Rows: 2, Cols: 2}); err == nil {
		t.Error("undersized grid accepted")
	}
	if _, err := Layout(g, Config{L: 2, Place: func(int, int, int) (int, int) { return 0, 0 }}); err == nil {
		t.Error("colliding placement accepted")
	}
}

func TestGenericClearanceClean(t *testing.T) {
	lay := build(t, topology.ShuffleExchange(4), 4)
	if v := lay.VerifyStrict(); len(v) > 0 {
		t.Errorf("generic layout not clearance-clean: %v", v[0])
	}
}

// Fuzz: random graphs of random density route legally at random L.
func TestGenericFuzzRandomGraphs(t *testing.T) {
	s := uint64(12345)
	next := func(n int) int {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return int(s % uint64(n))
	}
	for trial := 0; trial < 25; trial++ {
		n := 4 + next(40)
		g := topology.New("rand", n)
		seen := map[[2]int]bool{}
		edges := 1 + next(3*n)
		for i := 0; i < edges; i++ {
			u, v := next(n), next(n)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if seen[[2]int{u, v}] {
				continue
			}
			seen[[2]int{u, v}] = true
			g.AddLink(u, v)
		}
		l := 2 + next(7)
		lay, err := Layout(g, Config{L: l})
		if err != nil {
			t.Fatalf("trial %d (n=%d l=%d): %v", trial, n, l, err)
		}
		if v, _ := lay.VerifyOpts(nil, grid.CheckOptions{}); len(v) > 0 {
			t.Fatalf("trial %d (n=%d l=%d): %v", trial, n, l, v[0])
		}
		if len(lay.Wires) != len(g.Links) {
			t.Fatalf("trial %d: wires %d != links %d", trial, len(lay.Wires), len(g.Links))
		}
	}
}

// Parallel links through the generic router.
func TestGenericParallelLinks(t *testing.T) {
	g := topology.New("multi", 4)
	g.AddLink(0, 3)
	g.AddLink(0, 3)
	g.AddLink(0, 3)
	g.AddLink(1, 2)
	lay, err := Layout(g, Config{L: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := lay.VerifyOpts(nil, grid.CheckOptions{}); len(v) > 0 {
		t.Fatal(v[0])
	}
	if len(lay.Wires) != 4 {
		t.Errorf("wires = %d, want 4", len(lay.Wires))
	}
}

// The macro-star network — the last family the paper names (§4.3) — lays
// out via the generally-applicable router.
func TestGenericMacroStar(t *testing.T) {
	g := topology.MacroStar(2, 2)
	for _, l := range []int{2, 4} {
		lay, err := Layout(g, Config{L: l})
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := lay.VerifyOpts(nil, grid.CheckOptions{}); len(v) > 0 {
			t.Fatalf("L=%d: %v", l, v[0])
		}
		sameGraph(t, lay, g)
	}
}
