package fold

import (
	"mlvlsi/internal/grid"
	"testing"

	"mlvlsi/internal/core"
	"mlvlsi/internal/layout"
	"mlvlsi/internal/track"
)

func buildHypercube2(t *testing.T, n int) *layout.Layout {
	t.Helper()
	lay, err := core.Hypercube(n, 2, 0, 0)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if v, _ := lay.VerifyOpts(nil, grid.CheckOptions{}); len(v) > 0 {
		t.Fatalf("source layout illegal: %v", v[0])
	}
	return lay
}

func TestFoldLegality(t *testing.T) {
	src := buildHypercube2(t, 6)
	for _, l := range []int{2, 4, 8, 16} {
		folded, err := Fold(src, l)
		if err != nil {
			t.Fatalf("Fold L=%d: %v", l, err)
		}
		if v, _ := VerifyOpts(nil, folded, grid.CheckOptions{}); len(v) > 0 {
			t.Fatalf("folded L=%d illegal: %d violations, first %v", l, len(v), v[0])
		}
		if len(folded.Wires) != len(src.Wires) {
			t.Errorf("L=%d: wire count changed %d -> %d", l, len(src.Wires), len(folded.Wires))
		}
	}
}

func TestFoldAreaShrinksVolumeDoesNot(t *testing.T) {
	src := buildHypercube2(t, 7)
	srcStats := Measure(src)
	folded, err := Fold(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := VerifyOpts(nil, folded, grid.CheckOptions{}); len(v) > 0 {
		t.Fatalf("illegal: %v", v[0])
	}
	f := Measure(folded)
	areaGain := float64(srcStats.Area) / float64(f.Area)
	// §2.2: folding into L=8 gains ≈ L/2 = 4 in area (gutters cost a bit).
	if areaGain < 3.0 || areaGain > 4.6 {
		t.Errorf("fold area gain = %.2f, want ≈ 4", areaGain)
	}
	volGain := float64(srcStats.Volume) / float64(f.Volume)
	// Volume is essentially unchanged (ratio ≈ 1).
	if volGain < 0.8 || volGain > 1.3 {
		t.Errorf("fold volume ratio = %.2f, want ≈ 1", volGain)
	}
	// Max wire length does not improve (gutter detours may lengthen a bit).
	if f.MaxWire < srcStats.MaxWire {
		t.Errorf("fold shortened max wire %d -> %d, expected no improvement",
			srcStats.MaxWire, f.MaxWire)
	}
	if f.MaxWire > srcStats.MaxWire*2 {
		t.Errorf("fold more than doubled max wire %d -> %d", srcStats.MaxWire, f.MaxWire)
	}
}

func TestFoldPreservesEndpointsAndLength(t *testing.T) {
	src := buildHypercube2(t, 5)
	folded, err := Fold(src, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range folded.Wires {
		fw, sw := &folded.Wires[i], &src.Wires[i]
		if fw.U != sw.U || fw.V != sw.V {
			t.Fatalf("wire %d endpoints changed", i)
		}
		if fw.PlanarLength() < sw.PlanarLength() {
			t.Errorf("wire %d planar length shrank %d -> %d (folding cannot shorten)",
				i, sw.PlanarLength(), fw.PlanarLength())
		}
		// Each fold crossing adds exactly 2 planar units (the gutter
		// detour); with 3 strips a wire crosses at most a few boundaries.
		if fw.PlanarLength() > sw.PlanarLength()+2*2*6 {
			t.Errorf("wire %d gained too much length: %d -> %d",
				i, sw.PlanarLength(), fw.PlanarLength())
		}
	}
}

func TestFoldRejectsBadInput(t *testing.T) {
	src := buildHypercube2(t, 3)
	if _, err := Fold(src, 5); err == nil {
		t.Error("odd L accepted")
	}
	if _, err := Fold(src, 0); err == nil {
		t.Error("L=0 accepted")
	}
	src.L = 4
	if _, err := Fold(src, 8); err == nil {
		t.Error("non-2-layer input accepted")
	}
}

func TestFoldIdentityAtL2(t *testing.T) {
	src := buildHypercube2(t, 4)
	folded, err := Fold(src, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, f := Measure(src), Measure(folded)
	if s.Area != f.Area || s.MaxWire != f.MaxWire {
		t.Errorf("L=2 fold changed metrics: %+v vs %+v", s, f)
	}
}

func TestStackedCollinear(t *testing.T) {
	c := track.Hypercube(8) // 256 nodes, 170 tracks
	s2 := StackedCollinear(c, 2)
	s8 := StackedCollinear(c, 8)
	gain := float64(s2.Area) / float64(s8.Area)
	if gain < 3.0 || gain > 4.2 {
		t.Errorf("stacked collinear area gain at L=8 = %.2f, want <= ~4", gain)
	}
	// Volume does not improve: L × (area/L/2) ≈ 2 × area(L=2)/2.
	if float64(s8.Volume) < 0.8*float64(s2.Volume) {
		t.Errorf("stacked collinear volume improved: %d -> %d", s2.Volume, s8.Volume)
	}
	if s8.MaxWire != s2.MaxWire {
		t.Errorf("stacked collinear max wire changed: %d -> %d", s2.MaxWire, s8.MaxWire)
	}
}

// Property: folding any verified 2-layer engine output stays legal for all
// even L, preserves endpoints, and never shortens planar wire lengths.
func TestFoldPropertyRandomLayouts(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		k := 3 + int(seed%3)
		n := 2
		src, err := core.KAryNCube(k, n, 2, seed%2 == 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []int{4, 6, 10} {
			folded, err := Fold(src, l)
			if err != nil {
				t.Fatalf("seed %d L=%d: %v", seed, l, err)
			}
			if v, _ := VerifyOpts(nil, folded, grid.CheckOptions{}); len(v) > 0 {
				t.Fatalf("seed %d L=%d: %v", seed, l, v[0])
			}
			for i := range folded.Wires {
				if folded.Wires[i].PlanarLength() < src.Wires[i].PlanarLength() {
					t.Fatalf("seed %d L=%d: wire %d shortened", seed, l, i)
				}
			}
		}
	}
}

// Folding GHC and hypercube layouts of different aspect ratios.
func TestFoldVariousSources(t *testing.T) {
	sources := []func() (*layout.Layout, error){
		func() (*layout.Layout, error) { return core.GeneralizedHypercube([]int{4, 4}, 2, 0, 0) },
		func() (*layout.Layout, error) { return core.Mesh([]int{5, 7}, 2, 0, 0) },
		func() (*layout.Layout, error) { return core.Hypercube(5, 2, 3, 0) }, // forced node side
	}
	for _, mk := range sources {
		src, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		folded, err := Fold(src, 6)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := VerifyOpts(nil, folded, grid.CheckOptions{}); len(v) > 0 {
			t.Fatalf("%s: %v", src.Name, v[0])
		}
	}
}
