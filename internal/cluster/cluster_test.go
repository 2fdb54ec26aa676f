package cluster

import (
	"math/bits"
	"mlvlsi/internal/grid"
	"sort"
	"testing"

	"mlvlsi/internal/layout"
	"mlvlsi/internal/topology"
	"mlvlsi/internal/track"
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
	if len(lay.Nodes) != g.N {
		t.Fatalf("%s: %d nodes laid out, topology has %d", lay.Name, len(lay.Nodes), g.N)
	}
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

func TestCCCLayout(t *testing.T) {
	for _, tc := range []struct{ n, l int }{
		{2, 2}, {3, 2}, {3, 4}, {4, 2}, {4, 4}, {5, 8}, {4, 3},
	} {
		lay := mustBuild(t)(CCC(tc.n, tc.l, 0, 0))
		sameGraph(t, lay, topology.CCC(tc.n))
	}
}

func TestReducedHypercubeLayout(t *testing.T) {
	for _, tc := range []struct{ n, l int }{{2, 2}, {4, 2}, {4, 4}} {
		lay := mustBuild(t)(ReducedHypercube(tc.n, tc.l, 0, 0))
		sameGraph(t, lay, topology.ReducedHypercube(tc.n))
	}
}

func TestHSNLayout(t *testing.T) {
	for _, tc := range []struct{ lvl, r, l int }{
		{2, 3, 2}, {2, 4, 2}, {3, 3, 2}, {3, 3, 4}, {3, 4, 4}, {4, 3, 2},
	} {
		lay := mustBuild(t)(HSN(tc.lvl, tc.r, tc.l, 0, 0, nil))
		sameGraph(t, lay, topology.HSN(tc.lvl, tc.r, nil))
	}
}

func TestHHNLayout(t *testing.T) {
	for _, tc := range []struct{ lvl, m, l int }{{2, 2, 2}, {3, 2, 4}, {2, 3, 2}} {
		lay := mustBuild(t)(HHN(tc.lvl, tc.m, tc.l, 0, 0))
		sameGraph(t, lay, topology.HHN(tc.lvl, tc.m))
	}
}

func TestButterflyLayout(t *testing.T) {
	for _, tc := range []struct{ m, l int }{{3, 2}, {3, 4}, {4, 2}, {4, 4}, {5, 8}} {
		lay := mustBuild(t)(Butterfly(tc.m, tc.l, 0, 0))
		sameGraph(t, lay, topology.Butterfly(tc.m))
	}
}

func TestISNLayout(t *testing.T) {
	for _, tc := range []struct{ m, l int }{{3, 2}, {4, 4}, {5, 2}} {
		lay := mustBuild(t)(ISN(tc.m, tc.l, 0, 0))
		sameGraph(t, lay, topology.ISN(tc.m))
	}
}

func TestISNSmallerThanButterfly(t *testing.T) {
	// §4.3: the ISN lays out in about a quarter of the butterfly area and
	// half its wire length (same node count). The factor 4 is asymptotic —
	// at laptop sizes the escape/intra tracks (the paper's o(1) terms)
	// still dilute it — so assert the ratio exceeds a clear threshold and
	// grows with m.
	prev := 0.0
	for _, m := range []int{4, 5, 6, 7} {
		bf := mustBuild(t)(Butterfly(m, 4, 0, 0))
		isn := mustBuild(t)(ISN(m, 4, 0, 0))
		ra := float64(bf.Area()) / float64(isn.Area())
		if ra <= 1.0 {
			t.Errorf("m=%d: ISN not smaller than butterfly (ratio %.2f)", m, ra)
		}
		if ra+0.05 < prev {
			t.Errorf("m=%d: area ratio %.2f regressed from %.2f", m, ra, prev)
		}
		prev = ra
		if bf.MaxWireLength() <= isn.MaxWireLength() {
			t.Errorf("m=%d: ISN max wire %d not below butterfly %d",
				m, isn.MaxWireLength(), bf.MaxWireLength())
		}
	}
	if prev < 1.5 {
		t.Errorf("butterfly/ISN area ratio at m=7 is %.2f, want > 1.5 en route to 4", prev)
	}
}

func TestKAryClusterCLayout(t *testing.T) {
	for _, tc := range []struct{ k, n, c, l int }{
		{3, 2, 2, 2}, {4, 2, 4, 2}, {3, 3, 2, 4}, {4, 2, 2, 3},
	} {
		lay := mustBuild(t)(KAryClusterC(tc.k, tc.n, tc.c, tc.l, 0, 0))
		logc := bits.TrailingZeros(uint(tc.c))
		want := topology.PNClusterWithAttach(
			topology.KAryNCube(tc.k, tc.n), tc.c,
			func(int) *topology.Graph { return topology.Hypercube(logc) }, 1,
			func(u, v, _ int) (int, int) {
				d := 0
				for u%tc.k == v%tc.k {
					u /= tc.k
					v /= tc.k
					d++
				}
				return d % tc.c, d % tc.c
			})
		sameGraph(t, lay, want)
	}
}

func TestKAryClusterCAreaOverheadSmall(t *testing.T) {
	// §3.2: for c = o(k^{n/2-1}) the cluster-c network has asymptotically
	// the same area as the plain k-ary n-cube. With k=4, n=4, c=2 the
	// overhead must be modest.
	base := mustBuild(t)(kary(t, 4, 4, 2))
	clustered := mustBuild(t)(KAryClusterC(4, 4, 2, 2, 0, 0))
	ratio := float64(clustered.Area()) / float64(base.Area())
	if ratio > 3.0 {
		t.Errorf("cluster-2 area is %.2fx the quotient area, want modest overhead", ratio)
	}
}

func kary(t *testing.T, k, n, l int) (*layout.Layout, error) {
	t.Helper()
	cfg := Config{
		Name:      "plain-kary",
		RowFac:    track.KAryNCube(k, n/2, false),
		ColFac:    track.KAryNCube(k, (n+1)/2, false),
		C:         1,
		AttachRow: func(_, _, _ int) (int, int) { return 0, 0 },
		AttachCol: func(_, _, _ int) (int, int) { return 0, 0 },
		Label:     func(q, _ int) int { return q },
		L:         l,
	}
	return Build(cfg)
}

func TestBuildSpecValidation(t *testing.T) {
	base := Config{
		RowFac: track.Ring(3), ColFac: track.Ring(3),
		C: 2, L: 2,
		AttachRow: func(_, _, _ int) (int, int) { return 0, 0 },
		AttachCol: func(_, _, _ int) (int, int) { return 0, 0 },
		Label:     func(q, i int) int { return q*2 + i },
	}
	bad := base
	bad.C = 0
	if _, err := BuildSpec(bad); err == nil {
		t.Error("C=0 accepted")
	}
	bad = base
	bad.Intra = track.Ring(3) // wrong size
	if _, err := BuildSpec(bad); err == nil {
		t.Error("intra size mismatch accepted")
	}
	bad = base
	bad.Label = nil
	if _, err := BuildSpec(bad); err == nil {
		t.Error("missing Label accepted")
	}
	bad = base
	bad.AttachRow = func(_, _, _ int) (int, int) { return 5, 0 }
	if _, err := BuildSpec(bad); err == nil {
		t.Error("attach member out of range accepted")
	}
}

func TestColorIntervals(t *testing.T) {
	// Interval pairs touching at even (node) positions share a track;
	// touching at odd (channel) positions must not.
	ivs := []interval{
		{U: 0, V: 4, ID: 0},
		{U: 4, V: 8, ID: 1}, // touches at node 2 -> shares
		{U: 5, V: 9, ID: 2}, // overlaps 1 -> new track
	}
	tr, n := colorIntervals(ivs)
	if tr[0] != tr[1] {
		t.Errorf("intervals touching at an even position should share a track: %v", tr)
	}
	if tr[2] == tr[1] {
		t.Error("overlapping intervals share a track")
	}
	if n != 2 {
		t.Errorf("used %d tracks, want 2", n)
	}

	odd := []interval{
		{U: 1, V: 5, ID: 0},
		{U: 5, V: 9, ID: 1}, // touches at odd 5 -> must NOT share
	}
	trOdd, nOdd := colorIntervals(odd)
	if trOdd[0] == trOdd[1] || nOdd != 2 {
		t.Errorf("odd-position touch shared a track: %v", trOdd)
	}
}

func TestCCCAreaAdvantageOverPlainHypercubeOfSameSize(t *testing.T) {
	// §5.2: an N-node CCC lays out in Θ(N²/(L² log²N)) — much smaller than
	// an N-node hypercube's Θ(N²/L²). Compare CCC(4, 0) (64 nodes) to a
	// 6-cube (64 nodes).
	ccc := mustBuild(t)(CCC(4, 2, 0, 0))
	cube, err := coreHypercube(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ccc.Area() >= cube.Area() {
		t.Errorf("CCC area %d not below same-size hypercube area %d", ccc.Area(), cube.Area())
	}
}

func coreHypercube(n, l int) (*layout.Layout, error) {
	cfg := Config{
		Name:      "plain-cube",
		RowFac:    track.Hypercube(n / 2),
		ColFac:    track.Hypercube((n + 1) / 2),
		C:         1,
		AttachRow: func(_, _, _ int) (int, int) { return 0, 0 },
		AttachCol: func(_, _, _ int) (int, int) { return 0, 0 },
		Label:     func(q, _ int) int { return q },
		L:         l,
	}
	return Build(cfg)
}
