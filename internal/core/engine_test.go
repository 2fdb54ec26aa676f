package core

import (
	"mlvlsi/internal/grid"
	"sort"
	"testing"
	"testing/quick"

	"mlvlsi/internal/layout"
	"mlvlsi/internal/topology"
	"mlvlsi/internal/track"
)

// sameGraph checks that the realized wires' endpoint multiset equals the
// topology's link multiset.
func sameGraph(t *testing.T, lay *layout.Layout, g *topology.Graph) {
	t.Helper()
	if len(lay.Nodes) != g.N {
		t.Fatalf("%s: %d nodes laid out, topology has %d", lay.Name, len(lay.Nodes), g.N)
	}
	if len(lay.Wires) != len(g.Links) {
		t.Fatalf("%s: %d wires, topology has %d links", lay.Name, len(lay.Wires), len(g.Links))
	}
	var got []topology.Link
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
			t.Fatalf("%s: wire set differs at %d: got %v want %v", lay.Name, i, got[i], want[i])
		}
	}
}

// mustBuild returns a checker that fails the test unless the layout built
// without error and verifies as legal. Curried so call sites can splat the
// (layout, error) pair of a builder directly.
func mustBuild(t *testing.T) func(*layout.Layout, error) *layout.Layout {
	return func(lay *layout.Layout, err error) *layout.Layout {
		t.Helper()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if v, _ := lay.VerifyOpts(nil, grid.CheckOptions{}); len(v) > 0 {
			t.Fatalf("%s: %d violations, first: %v", lay.Name, len(v), v[0])
		}
		return lay
	}
}

func TestHypercubeLayoutLegalAndCorrect(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7} {
		for _, l := range []int{2, 3, 4, 6, 8} {
			lay := mustBuild(t)(Hypercube(n, l, 0, 0))
			sameGraph(t, lay, topology.Hypercube(n))
		}
	}
}

func TestKAryLayoutLegalAndCorrect(t *testing.T) {
	for _, tc := range []struct{ k, n, l int }{
		{3, 2, 2}, {3, 2, 4}, {4, 2, 2}, {4, 3, 4}, {5, 2, 3}, {3, 3, 8}, {4, 1, 2},
	} {
		lay := mustBuild(t)(KAryNCube(tc.k, tc.n, tc.l, false, 0, 0))
		sameGraph(t, lay, topology.KAryNCube(tc.k, tc.n))
	}
}

func TestKAryFoldedLayout(t *testing.T) {
	plain := mustBuild(t)(KAryNCube(8, 2, 2, false, 0, 0))
	folded := mustBuild(t)(KAryNCube(8, 2, 2, true, 0, 0))
	sameGraph(t, folded, topology.KAryNCube(8, 2))
	if folded.MaxWireLength() >= plain.MaxWireLength() {
		t.Errorf("folded maxwire %d not shorter than plain %d",
			folded.MaxWireLength(), plain.MaxWireLength())
	}
}

func TestGHCLayoutLegalAndCorrect(t *testing.T) {
	for _, radices := range [][]int{{3, 3}, {4, 4}, {3, 4, 5}, {5}, {2, 2, 2, 2}} {
		for _, l := range []int{2, 4, 5} {
			lay := mustBuild(t)(GeneralizedHypercube(radices, l, 0, 0))
			sameGraph(t, lay, topology.GeneralizedHypercube(radices))
		}
	}
}

func planHypercube(t *testing.T, n, l int) Geometry {
	t.Helper()
	spec := FromFactors("plan", track.Hypercube(n/2), track.Hypercube((n+1)/2), l, 0)
	g, err := Plan(spec)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	return g
}

func TestChannelAreaShrinksQuadratically(t *testing.T) {
	// §2.2 claim (1): using L=2t layers instead of 2 divides the area by
	// about t². The paper's formulas count wiring tracks (node squares are
	// the o(1) term), so the exact claim holds on the channel area, up to
	// per-channel ceiling slack.
	g2 := planHypercube(t, 10, 2)
	g8 := planHypercube(t, 10, 8)
	r := float64(g2.ChannelArea()) / float64(g8.ChannelArea())
	// Ideal 16; ⌈t/4⌉ ceilings only make the L=8 channels larger, so the
	// ratio can fall below but never above the ideal.
	if r < 11.0 || r > 16.5 {
		t.Errorf("channel area(L=2)/area(L=8) = %.2f, want ≈ 16", r)
	}
	// Full area must also shrink monotonically and substantially.
	a2 := mustBuild(t)(Hypercube(8, 2, 0, 0)).Area()
	a4 := mustBuild(t)(Hypercube(8, 4, 0, 0)).Area()
	a8 := mustBuild(t)(Hypercube(8, 8, 0, 0)).Area()
	if !(a8 < a4 && a4 < a2) {
		t.Errorf("full areas not monotone: %d, %d, %d", a2, a4, a8)
	}
}

func TestAreaRatioApproachesIdealWithN(t *testing.T) {
	// As N grows, node squares become negligible and the full-area ratio
	// area(L=2)/area(L=4) climbs toward 4.
	prev := 0.0
	for _, n := range []int{6, 8, 10, 12} {
		g2 := planHypercube(t, n, 2)
		g4 := planHypercube(t, n, 4)
		r := float64(g2.Area()) / float64(g4.Area())
		if r < prev {
			t.Errorf("n=%d: full-area ratio %.3f decreased (prev %.3f)", n, r, prev)
		}
		prev = r
	}
	if prev < 2.5 {
		t.Errorf("full-area ratio at n=12 is %.2f, expected > 2.5 en route to 4", prev)
	}
}

func TestVolumeShrinksLinearly(t *testing.T) {
	// §2.2 claim (2): volume shrinks by about t = L/2 (on the wiring-
	// dominated geometry; with a fixed 2-layer layout folding would leave
	// volume unchanged).
	g2 := planHypercube(t, 10, 2)
	g8 := planHypercube(t, 10, 8)
	v2 := 2 * g2.ChannelArea()
	v8 := 8 * g8.ChannelArea()
	r := float64(v2) / float64(v8)
	if r < 2.7 || r > 4.2 {
		t.Errorf("channel volume(L=2)/volume(L=8) = %.2f, want ≈ 4", r)
	}
}

func TestMaxWireShrinksLinearly(t *testing.T) {
	// §2.2 claim (3): maximum wire length shrinks by about L/2. On finite
	// instances node squares damp the ratio; require a clear decrease and
	// cross-check the trend.
	w2 := mustBuild(t)(Hypercube(8, 2, 0, 0)).MaxWireLength()
	w4 := mustBuild(t)(Hypercube(8, 4, 0, 0)).MaxWireLength()
	w8 := mustBuild(t)(Hypercube(8, 8, 0, 0)).MaxWireLength()
	if !(w8 < w4 && w4 < w2) {
		t.Fatalf("maxwire not monotone in L: %d, %d, %d", w2, w4, w8)
	}
	r := float64(w2) / float64(w8)
	if r < 1.7 {
		t.Errorf("maxwire(L=2)/maxwire(L=8) = %.2f, want approaching 4", r)
	}
}

func TestOddLayerLayouts(t *testing.T) {
	// Odd L uses (L+1)/2 horizontal and (L−1)/2 vertical groups; area lands
	// between the two adjacent even-L areas.
	a2 := mustBuild(t)(Hypercube(7, 2, 0, 0)).Area()
	a3 := mustBuild(t)(Hypercube(7, 3, 0, 0)).Area()
	a4 := mustBuild(t)(Hypercube(7, 4, 0, 0)).Area()
	if !(a4 <= a3 && a3 <= a2) {
		t.Errorf("areas not monotone in L: a2=%d a3=%d a4=%d", a2, a3, a4)
	}
}

func TestNodeSideScalability(t *testing.T) {
	// The paper's "optimally scalable" claim: growing the node side up to
	// o(width/N^(1/2)) leaves the leading constant unchanged. With side
	// doubled from minimal, area should grow by well under 2x on a large
	// instance.
	minimal := mustBuild(t)(Hypercube(10, 2, 0, 0))
	side := minimal.Nodes[0].W
	bigger := mustBuild(t)(Hypercube(10, 2, side*2, 0))
	sameGraph(t, bigger, topology.Hypercube(10))
	growth := float64(bigger.Area()) / float64(minimal.Area())
	if growth > 1.5 {
		t.Errorf("doubling node side grew area by %.2fx, want < 1.5x", growth)
	}
}

func TestBentEdgesLegal(t *testing.T) {
	// A 4x4 grid of isolated nodes joined only by bent edges on dedicated
	// tracks must verify.
	spec := Spec{Name: "bent-only", Rows: 4, Cols: 4, L: 4}
	for _, e := range [][4]int{
		{0, 0, 3, 3},
		{0, 3, 3, 0},
		{1, 1, 2, 2},
		{2, 0, 1, 3},
		{3, 1, 0, 2},
		{1, 0, 1, 2}, // same row
		{0, 1, 2, 1}, // same column
	} {
		spec.AddDedicatedBent(e[0], e[1], e[2], e[3])
	}
	lay, err := Build(spec)
	mustBuild(t)(lay, err)
	if len(lay.Wires) != len(spec.Bent) {
		t.Errorf("%d wires, want %d", len(lay.Wires), len(spec.Bent))
	}
}

func TestBentEdgesSharedTracks(t *testing.T) {
	// Bent edges with disjoint extents may share tracks; overlapping ones
	// must be rejected.
	ok := Spec{
		Name: "bent-shared", Rows: 4, Cols: 6, L: 2,
		Bent: []BentEdge{
			{URow: 0, UCol: 0, VRow: 3, VCol: 1, HTrack: 0, VTrack: 0},
			{URow: 0, UCol: 3, VRow: 3, VCol: 4, HTrack: 0, VTrack: 0}, // disjoint columns, same H track, V track in another channel
		},
	}
	lay, err := Build(ok)
	mustBuild(t)(lay, err)

	bad := Spec{
		Name: "bent-overlap", Rows: 4, Cols: 6, L: 2,
		Bent: []BentEdge{
			{URow: 0, UCol: 0, VRow: 3, VCol: 3, HTrack: 0, VTrack: 0},
			{URow: 0, UCol: 2, VRow: 3, VCol: 5, HTrack: 0, VTrack: 1},
		},
	}
	if _, err := Build(bad); err == nil {
		t.Error("overlapping bent H segments on one track accepted")
	}

	// Two bent edges whose segments touch inside a channel (odd
	// half-position) must be rejected even without interior overlap.
	touch := Spec{
		Name: "bent-touch", Rows: 4, Cols: 6, L: 2,
		Bent: []BentEdge{
			{URow: 0, UCol: 0, VRow: 3, VCol: 2, HTrack: 0, VTrack: 0},
			{URow: 0, UCol: 5, VRow: 3, VCol: 2, HTrack: 0, VTrack: 1},
		},
	}
	if _, err := Build(touch); err == nil {
		t.Error("bent H segments touching at a channel accepted")
	}
}

func TestBentWithChannelEdgesMixed(t *testing.T) {
	// Bent edges sharing a row track with row edges: the row edge occupies
	// columns [0,1]; the bent H segment runs from column 2 to the channel
	// right of column 4 on the same track.
	spec := Spec{
		Name: "mixed", Rows: 3, Cols: 5, L: 4,
		RowEdges: []ChannelEdge{{Index: 0, U: 0, V: 1, Track: 0}},
		ColEdges: []ChannelEdge{{Index: 4, U: 0, V: 2, Track: 0}},
		Bent: []BentEdge{
			{URow: 0, UCol: 2, VRow: 2, VCol: 4, HTrack: 0, VTrack: 1},
		},
	}
	lay, err := Build(spec)
	mustBuild(t)(lay, err)
	if len(lay.Wires) != 3 {
		t.Errorf("%d wires, want 3", len(lay.Wires))
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	cases := []Spec{
		{Name: "no layers", Rows: 2, Cols: 2, L: 1},
		{Name: "empty", Rows: 0, Cols: 2, L: 2},
		{Name: "bad label", Rows: 2, Cols: 2, L: 2,
			Label: func(r, c int) int { return 0 }},
		{Name: "edge range", Rows: 2, Cols: 2, L: 2,
			RowEdges: []ChannelEdge{{Index: 0, U: 0, V: 2, Track: 0}}},
		{Name: "edge order", Rows: 2, Cols: 3, L: 2,
			RowEdges: []ChannelEdge{{Index: 0, U: 1, V: 1, Track: 0}}},
		{Name: "track overlap", Rows: 1, Cols: 4, L: 2,
			RowEdges: []ChannelEdge{
				{Index: 0, U: 0, V: 2, Track: 0},
				{Index: 0, U: 1, V: 3, Track: 0},
			}},
		{Name: "bent range", Rows: 2, Cols: 2, L: 2,
			Bent: []BentEdge{{URow: 0, UCol: 0, VRow: 2, VCol: 0}}},
		{Name: "bent selfloop", Rows: 2, Cols: 2, L: 2,
			Bent: []BentEdge{{URow: 1, UCol: 1, VRow: 1, VCol: 1}}},
		{Name: "side too small", Rows: 1, Cols: 3, L: 2, NodeSide: 1,
			RowEdges: []ChannelEdge{
				{Index: 0, U: 0, V: 1, Track: 0},
				{Index: 0, U: 1, V: 2, Track: 1},
			}},
	}
	for _, spec := range cases {
		if _, err := Build(spec); err == nil {
			t.Errorf("%s: expected error", spec.Name)
		}
	}
}

// TestOverlapErrorDeterministic builds a spec with two overlapping track
// pairs, declared highest (channel, track) first, and requires every default
// build to report the same one: the lowest (channel, track) pair.
func TestOverlapErrorDeterministic(t *testing.T) {
	const want = "two-overlaps: row channel 0 track 5 intervals [0,4] and [2,6] overlap (half-position units)"
	for i := 0; i < 20; i++ {
		_, err := Build(Spec{
			Name: "two-overlaps", Rows: 2, Cols: 4, L: 2,
			RowEdges: []ChannelEdge{
				{Index: 1, U: 0, V: 2, Track: 0},
				{Index: 1, U: 1, V: 3, Track: 0},
				{Index: 0, U: 0, V: 2, Track: 5},
				{Index: 0, U: 1, V: 3, Track: 5},
			},
		})
		if err == nil || err.Error() != want {
			t.Fatalf("build %d: error %v, want %q", i, err, want)
		}
	}
}

func TestTouchingIntervalsSameTrack(t *testing.T) {
	// Two edges sharing an endpoint on the same track must realize with
	// interior-disjoint trunks thanks to port ordering.
	spec := Spec{
		Name: "touching", Rows: 1, Cols: 3, L: 2,
		RowEdges: []ChannelEdge{
			{Index: 0, U: 0, V: 1, Track: 0},
			{Index: 0, U: 1, V: 2, Track: 0},
		},
	}
	lay, err := Build(spec)
	mustBuild(t)(lay, err)
}

func TestTouchingIntervalsColumn(t *testing.T) {
	spec := Spec{
		Name: "touching-col", Rows: 3, Cols: 1, L: 2,
		ColEdges: []ChannelEdge{
			{Index: 0, U: 0, V: 1, Track: 0},
			{Index: 0, U: 1, V: 2, Track: 0},
		},
	}
	lay, err := Build(spec)
	mustBuild(t)(lay, err)
}

func TestFromFactorsLabels(t *testing.T) {
	// C4 row factor uses Gray-code labels; the composed labels must form
	// the 4-cube exactly.
	lay := mustBuild(t)(BuildProduct("cube4", track.Hypercube(2), track.Hypercube(2), 2, 0, 0))
	sameGraph(t, lay, topology.Hypercube(4))
}

// Property: random products of small factors build, verify, and realize
// the right graph sizes under random L (including odd).
func TestEnginePropertyRandomProducts(t *testing.T) {
	f := func(a, b, c uint8) bool {
		k1 := 2 + int(a%4)
		k2 := 2 + int(b%4)
		l := 2 + int(c%5)
		rowFac := track.Ring(k1)
		colFac := track.Complete(k2)
		lay, err := BuildProduct("prop", rowFac, colFac, l, 0, 0)
		if err != nil {
			return false
		}
		if v, _ := lay.VerifyOpts(nil, grid.CheckOptions{}); len(v) > 0 {
			return false
		}
		wantWires := k2*len(rowFac.Edges) + k1*len(colFac.Edges)
		return len(lay.Wires) == wantWires && len(lay.Nodes) == k1*k2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMeshLayout(t *testing.T) {
	for _, tc := range []struct {
		dims []int
		l    int
	}{
		{[]int{4, 4}, 2}, {[]int{3, 5}, 2}, {[]int{2, 3, 4}, 4},
		{[]int{8}, 2}, {[]int{2, 2, 2, 2}, 3},
	} {
		lay := mustBuild(t)(Mesh(tc.dims, tc.l, 0, 0))
		sameGraph(t, lay, topology.Mesh(tc.dims))
	}
}

func TestMeshCheaperThanTorus(t *testing.T) {
	// A mesh has no wraparound links: fewer tracks, less area than the
	// same-extent torus.
	mesh := mustBuild(t)(Mesh([]int{8, 8}, 2, 0, 0))
	torus := mustBuild(t)(KAryNCube(8, 2, 2, false, 0, 0))
	if mesh.Area() >= torus.Area() {
		t.Errorf("mesh area %d not below torus area %d", mesh.Area(), torus.Area())
	}
	if mesh.MaxWireLength() >= torus.MaxWireLength() {
		t.Errorf("mesh max wire %d not below torus %d", mesh.MaxWireLength(), torus.MaxWireLength())
	}
}
