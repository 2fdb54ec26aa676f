package mlvlsi_test

import (
	"fmt"
	"strings"
	"testing"

	"mlvlsi"
)

func build(t *testing.T) func(*mlvlsi.Layout, error) *mlvlsi.Layout {
	return func(lay *mlvlsi.Layout, err error) *mlvlsi.Layout {
		t.Helper()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		if v, _ := mlvlsi.VerifyLayout(lay, mlvlsi.Options{}); len(v) > 0 {
			t.Fatalf("%s: illegal layout: %v", lay.Name, v[0])
		}
		return lay
	}
}

func TestPublicAPIAllFamilies(t *testing.T) {
	o := mlvlsi.Options{Layers: 4}
	families := []struct {
		name string
		lay  *mlvlsi.Layout
	}{
		{"kary", build(t)(mlvlsi.KAryNCube(4, 2, o))},
		{"hypercube", build(t)(mlvlsi.Hypercube(5, o))},
		{"ghc", build(t)(mlvlsi.GeneralizedHypercube([]int{3, 4}, o))},
		{"folded", build(t)(mlvlsi.FoldedHypercube(4, o))},
		{"enhanced", build(t)(mlvlsi.EnhancedCube(4, 7, o))},
		{"ccc", build(t)(mlvlsi.CCC(3, o))},
		{"rh", build(t)(mlvlsi.ReducedHypercube(4, o))},
		{"hsn", build(t)(mlvlsi.HSN(3, 3, o))},
		{"hhn", build(t)(mlvlsi.HHN(2, 2, o))},
		{"butterfly", build(t)(mlvlsi.Butterfly(3, o))},
		{"isn", build(t)(mlvlsi.ISN(3, o))},
		{"cluster-c", build(t)(mlvlsi.KAryClusterC(3, 2, 2, o))},
		{"star", build(t)(mlvlsi.Star(4, o))},
		{"pancake", build(t)(mlvlsi.Pancake(4, o))},
		{"bubblesort", build(t)(mlvlsi.BubbleSort(4, o))},
		{"transposition", build(t)(mlvlsi.Transposition(4, o))},
		{"scc", build(t)(mlvlsi.SCC(4, o))},
		{"mesh", build(t)(mlvlsi.Mesh([]int{4, 4}, o))},
	}
	for _, f := range families {
		s := f.lay.Stats()
		if s.Area <= 0 || s.Volume != s.Area*s.L || s.MaxWire <= 0 {
			t.Errorf("%s: inconsistent stats %+v", f.name, s)
		}
	}
}

func TestDefaultLayersIsThompson(t *testing.T) {
	lay := build(t)(mlvlsi.Hypercube(4, mlvlsi.Options{}))
	if lay.L != 2 {
		t.Errorf("default layers = %d, want 2 (Thompson model)", lay.L)
	}
}

func TestProductAndCombinators(t *testing.T) {
	g := mlvlsi.CombineFactors(mlvlsi.Ring(3), mlvlsi.CompleteGraph(3))
	if g.N != 9 {
		t.Fatalf("combined factor N = %d, want 9", g.N)
	}
	lay := build(t)(mlvlsi.Product("custom", g, mlvlsi.PathGraph(4), mlvlsi.Options{Layers: 2}))
	if len(lay.Nodes) != 36 {
		t.Errorf("product layout has %d nodes, want 36", len(lay.Nodes))
	}
}

func TestFoldBaselineRoundTrip(t *testing.T) {
	lay := build(t)(mlvlsi.Hypercube(6, mlvlsi.Options{Layers: 2}))
	folded, err := mlvlsi.Fold(lay, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := mlvlsi.VerifyFolded(folded); err != nil {
		t.Fatal(err)
	}
	fs := mlvlsi.FoldStats(folded)
	if fs.Area >= lay.Area() {
		t.Errorf("fold did not shrink area: %d -> %d", lay.Area(), fs.Area)
	}
}

func TestSimulateAndRoute(t *testing.T) {
	lay := build(t)(mlvlsi.Hypercube(5, mlvlsi.Options{Layers: 2}))
	res := mlvlsi.Simulate(lay, mlvlsi.SimConfig{Pattern: mlvlsi.Permutation, Velocity: 2, Seed: 1})
	if res.Delivered == 0 {
		t.Error("simulation delivered nothing")
	}
	if mlvlsi.MaxPathWire(lay, 4) <= 0 {
		t.Error("MaxPathWire returned nothing")
	}
	if mlvlsi.AveragePathWire(lay, 4) <= 0 {
		t.Error("AveragePathWire returned nothing")
	}
}

func TestRenderers(t *testing.T) {
	if !strings.Contains(mlvlsi.RenderCollinear(mlvlsi.HypercubeCollinear(4), 4), "tracks=10") {
		t.Error("collinear renderer broken")
	}
	lay := build(t)(mlvlsi.KAryNCube(3, 2, mlvlsi.Options{}))
	if !strings.HasPrefix(mlvlsi.RenderSVG(lay, 4), "<svg") {
		t.Error("SVG renderer broken")
	}
	if !strings.Contains(mlvlsi.RenderRecursiveGrid(2, 2), "block") {
		t.Error("schematic renderer broken")
	}
}

func ExampleHypercube() {
	lay, _ := mlvlsi.Hypercube(6, mlvlsi.Options{Layers: 4})
	v, _ := mlvlsi.VerifyLayout(lay, mlvlsi.Options{})
	fmt.Println(len(lay.Nodes), len(lay.Wires) > 0, len(v) == 0)
	// Output: 64 true true
}

func ExampleKAryNCube() {
	l2, _ := mlvlsi.KAryNCube(4, 3, mlvlsi.Options{Layers: 2})
	l8, _ := mlvlsi.KAryNCube(4, 3, mlvlsi.Options{Layers: 8})
	fmt.Println(l2.Area() > l8.Area())
	// Output: true
}

func TestGenericLayoutAPI(t *testing.T) {
	g := mlvlsi.NewGraph("triangle-chain", 6)
	for i := 0; i+1 < 6; i++ {
		g.AddLink(i, i+1)
	}
	g.AddLink(0, 5)
	g.AddLink(1, 4)
	lay, err := mlvlsi.GenericLayout(g, mlvlsi.Options{Layers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := mlvlsi.VerifyLayout(lay, mlvlsi.Options{}); len(v) > 0 {
		t.Fatalf("generic layout illegal: %v", v[0])
	}
	if len(lay.Wires) != 7 {
		t.Errorf("wires = %d, want 7", len(lay.Wires))
	}
}

func TestHypercube3DAPI(t *testing.T) {
	s, err := mlvlsi.Hypercube3D(6, 2, mlvlsi.Options{Layers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if v := s.Verify(); len(v) > 0 {
		t.Fatalf("stacked layout illegal: %v", v[0])
	}
	if s.Boards != 4 {
		t.Errorf("boards = %d, want 4", s.Boards)
	}
	k, err := mlvlsi.KAryNCube3D(3, 3, 1, mlvlsi.Options{Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v := k.Verify(); len(v) > 0 {
		t.Fatalf("kary stacked layout illegal: %v", v[0])
	}
}

func ExampleGeneralizedHypercube() {
	lay, _ := mlvlsi.GeneralizedHypercube([]int{4, 4}, mlvlsi.Options{Layers: 4})
	v, _ := mlvlsi.VerifyLayout(lay, mlvlsi.Options{})
	fmt.Println(len(lay.Nodes), len(v) == 0)
	// Output: 16 true
}

func ExampleCCC() {
	lay, _ := mlvlsi.CCC(4, mlvlsi.Options{Layers: 2})
	// 16 cycles of 4 nodes (64 cycle links) plus 32 cube links.
	fmt.Println(len(lay.Nodes), len(lay.Wires))
	// Output: 64 96
}

func ExampleButterfly() {
	lay, _ := mlvlsi.Butterfly(4, mlvlsi.Options{Layers: 4})
	v, _ := mlvlsi.VerifyLayout(lay, mlvlsi.Options{})
	fmt.Println(len(lay.Nodes), len(v) == 0)
	// Output: 64 true
}

func ExampleFold() {
	base, _ := mlvlsi.Hypercube(6, mlvlsi.Options{Layers: 2})
	folded, _ := mlvlsi.Fold(base, 8)
	stats := mlvlsi.FoldStats(folded)
	fmt.Println(stats.Area < base.Area(), stats.MaxWire >= base.MaxWireLength())
	// Output: true true
}

func ExampleCombineFactors() {
	// The paper's product combinator: f(G×H) = N_H·f(G) + f(H).
	p := mlvlsi.CombineFactors(mlvlsi.Ring(5), mlvlsi.CompleteGraph(4))
	fmt.Println(p.N, p.Tracks)
	// Output: 20 12
}

func ExampleSimulate() {
	lay, _ := mlvlsi.Hypercube(5, mlvlsi.Options{Layers: 4})
	res := mlvlsi.Simulate(lay, mlvlsi.SimConfig{
		Pattern: mlvlsi.BitComplement, Velocity: 1, Seed: 1,
	})
	fmt.Println(res.Delivered)
	// Output: 32
}

func ExampleGenericLayout() {
	g := mlvlsi.NewGraph("ring5", 5)
	for i := 0; i < 5; i++ {
		g.AddLink(i, (i+1)%5)
	}
	lay, _ := mlvlsi.GenericLayout(g, mlvlsi.Options{Layers: 2})
	v, _ := mlvlsi.VerifyLayout(lay, mlvlsi.Options{})
	fmt.Println(len(lay.Wires), len(v) == 0)
	// Output: 5 true
}

func ExampleHypercube3D() {
	s, _ := mlvlsi.Hypercube3D(6, 2, mlvlsi.Options{Layers: 2})
	fmt.Println(s.Boards, len(s.Nodes), len(s.Verify()) == 0)
	// Output: 4 64 true
}

func ExampleStar() {
	lay, _ := mlvlsi.Star(4, mlvlsi.Options{Layers: 2})
	fmt.Println(len(lay.Nodes), len(lay.Wires))
	// Output: 24 36
}

func ExampleMesh() {
	lay, _ := mlvlsi.Mesh([]int{4, 6}, mlvlsi.Options{Layers: 2})
	v, _ := mlvlsi.VerifyLayout(lay, mlvlsi.Options{})
	fmt.Println(len(lay.Nodes), len(v) == 0)
	// Output: 24 true
}

func ExampleMaxPathWire() {
	l2, _ := mlvlsi.Hypercube(6, mlvlsi.Options{Layers: 2})
	l8, _ := mlvlsi.Hypercube(6, mlvlsi.Options{Layers: 8})
	fmt.Println(mlvlsi.MaxPathWire(l8, 0) < mlvlsi.MaxPathWire(l2, 0))
	// Output: true
}
