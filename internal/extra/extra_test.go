package extra

import (
	"mlvlsi/internal/grid"
	"sort"
	"testing"

	"mlvlsi/internal/core"
	"mlvlsi/internal/layout"
	"mlvlsi/internal/topology"
)

func mustBuild(t *testing.T) func(*layout.Layout, error) *layout.Layout {
	return func(lay *layout.Layout, err error) *layout.Layout {
		t.Helper()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		if v, _ := lay.VerifyOpts(nil, grid.CheckOptions{}); len(v) > 0 {
			t.Fatalf("%s: %d violations, first: %v", lay.Name, len(v), v[0])
		}
		return lay
	}
}

func sameGraph(t *testing.T, lay *layout.Layout, g *topology.Graph) {
	t.Helper()
	if len(lay.Wires) != len(g.Links) {
		t.Fatalf("%s: %d wires, topology has %d links", lay.Name, len(lay.Wires), len(g.Links))
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
			t.Fatalf("%s: wire multiset differs at %d: got %v want %v", lay.Name, i, got[i], want[i])
		}
	}
}

func TestFoldedHypercubeLayout(t *testing.T) {
	for _, tc := range []struct{ n, l int }{
		{2, 2}, {3, 2}, {4, 2}, {5, 4}, {6, 4}, {5, 3},
	} {
		lay := mustBuild(t)(FoldedHypercube(tc.n, tc.l, 0, 0))
		sameGraph(t, lay, topology.FoldedHypercube(tc.n))
	}
}

func TestEnhancedCubeLayout(t *testing.T) {
	for _, tc := range []struct {
		n, l int
		seed uint64
	}{
		{3, 2, 1}, {4, 2, 42}, {5, 4, 7}, {6, 8, 99},
	} {
		lay := mustBuild(t)(EnhancedCube(tc.n, tc.seed, tc.l, 0, 0))
		sameGraph(t, lay, topology.EnhancedCube(tc.n, tc.seed))
	}
}

func TestFoldedAreaOverheadMatchesPaperShape(t *testing.T) {
	// §5.3 predicts folded-hypercube area (7N/3L)² versus hypercube
	// (4N/3L)²: overhead factor (7/4)² ≈ 3.06 in the track-dominated
	// regime. Require the measured overhead to be in a sane band.
	cube := mustBuild(t)(core.Hypercube(8, 2, 0, 0))
	folded := mustBuild(t)(FoldedHypercube(8, 2, 0, 0))
	ratio := float64(folded.Area()) / float64(cube.Area())
	if ratio < 1.3 || ratio > 4.5 {
		t.Errorf("folded/plain area ratio = %.2f, want ≈ 3 (paper's (7/4)²)", ratio)
	}
	// The enhanced cube has twice the extra links and should cost more.
	enhanced := mustBuild(t)(EnhancedCube(8, 5, 2, 0, 0))
	if enhanced.Area() <= folded.Area() {
		t.Errorf("enhanced area %d not above folded area %d", enhanced.Area(), folded.Area())
	}
}

func TestFoldedMultilayerScaling(t *testing.T) {
	a2 := mustBuild(t)(FoldedHypercube(7, 2, 0, 0)).Area()
	a4 := mustBuild(t)(FoldedHypercube(7, 4, 0, 0)).Area()
	a8 := mustBuild(t)(FoldedHypercube(7, 8, 0, 0)).Area()
	if !(a8 < a4 && a4 < a2) {
		t.Errorf("folded hypercube area not monotone in L: %d, %d, %d", a2, a4, a8)
	}
}
