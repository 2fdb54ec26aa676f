package experiments

import (
	"mlvlsi/internal/core"
	"mlvlsi/internal/formulas"
	"mlvlsi/internal/grid"
	"mlvlsi/internal/layout"
	"mlvlsi/internal/route"
	"mlvlsi/internal/track"
)

// verifyLimit bounds the instance size for full legality verification
// inside experiments (the verifier marks every unit wire edge; all
// constructions are verified exhaustively at moderate sizes in the test
// suite, so experiments re-verify only the smaller instances).
const verifyLimit = 1100

// VerifyMemBytes, when positive, caps the verifier working set of every
// experiment re-verification (see Options.VerifyMemBytes at the module
// root). paperbench's -verify-mem flag sets it before any experiment runs;
// zero (the default) applies no ceiling.
var VerifyMemBytes int

// checkedStats verifies the layout when it is small enough and returns its
// stats; verification failures are reported in the table notes.
func checkedStats(t *Table, lay *layout.Layout) layout.Stats {
	if len(lay.Nodes) <= verifyLimit {
		if v, _ := lay.VerifyOpts(nil, grid.CheckOptions{TileBytes: VerifyMemBytes}); len(v) > 0 {
			t.Note("VERIFY FAILED %s: %v", lay.Name, v[0])
		}
	}
	return lay.Stats()
}

// E4KAryNCube regenerates §3.1: k-ary n-cube multilayer layouts versus the
// closed forms 16N²/(L²k²) (area), 16N²/(Lk²) (volume), the odd-L variants,
// and the folded-row O(N/(Lk²)) max wire length.
func E4KAryNCube() *Table {
	t := &Table{
		ID:    "E4 (§3.1)",
		Title: "k-ary n-cube: measured vs paper 16N²/(L²k²) area, 16N²/(Lk²) volume",
		Header: []string{"k", "n", "N", "L", "area", "chan-area", "paper-area",
			"chan/paper", "maxwire", "maxwire(folded)", "paper-mw-bound"},
	}
	for _, kn := range [][2]int{{4, 2}, {4, 3}, {4, 4}, {8, 2}, {8, 3}, {16, 2}} {
		k, n := kn[0], kn[1]
		for _, l := range []int{2, 3, 4, 8} {
			lay, err := core.KAryNCube(k, n, l, false, 0, 0)
			if err != nil {
				t.Note("build failed k=%d n=%d L=%d: %v", k, n, l, err)
				continue
			}
			st := checkedStats(t, lay)
			folded, err := core.KAryNCube(k, n, l, true, 0, 0)
			if err != nil {
				t.Note("folded build failed: %v", err)
				continue
			}
			fst := folded.Stats()
			geom, _ := core.Plan(core.FromFactors("plan",
				karyFactor(k, n/2), karyFactor(k, (n+1)/2), l, 0))
			paperArea := formulas.KAryArea(st.N, k, l)
			t.Add(k, n, st.N, l, st.Area, geom.ChannelArea(), paperArea,
				ratio(float64(geom.ChannelArea()), paperArea),
				st.MaxWire, fst.MaxWire, formulas.KAryMaxWireBound(st.N, k, l))
		}
	}
	t.Note("chan-area is the wiring-only area the paper's leading term predicts;")
	t.Note("full area adds the node squares the paper treats as o(N²/(L²k²)).")
	t.Note("the chan/paper ratio includes the (k/(k−1))² factor the paper absorbs for non-constant k.")
	return t
}

func karyFactor(k, m int) *track.Collinear {
	if m == 0 {
		return &track.Collinear{Name: "trivial", N: 1}
	}
	return track.KAryNCube(k, m, false)
}

// E5GeneralizedHypercube regenerates §4.1: GHC area r²N²/(4L²), volume
// r²N²/(4L), max wire rN/(2L), and the routing-path wire bound rN/L.
func E5GeneralizedHypercube() *Table {
	t := &Table{
		ID:    "E5 (§4.1)",
		Title: "generalized hypercube: measured vs r²N²/(4L²) area, rN/(2L) max wire, rN/L path wire",
		Header: []string{"r", "dims", "N", "L", "chan-area", "paper-area", "ratio",
			"maxwire", "paper-mw", "pathwire", "paper-pw"},
	}
	for _, rd := range [][2]int{{3, 2}, {4, 2}, {5, 2}, {3, 3}, {4, 3}, {8, 2}} {
		r, dims := rd[0], rd[1]
		radices := make([]int, dims)
		for i := range radices {
			radices[i] = r
		}
		for _, l := range []int{2, 4, 5, 8} {
			lay, err := core.GeneralizedHypercube(radices, l, 0, 0)
			if err != nil {
				t.Note("build failed r=%d dims=%d L=%d: %v", r, dims, l, err)
				continue
			}
			st := checkedStats(t, lay)
			m := dims / 2
			geom, _ := core.Plan(core.FromFactors("plan",
				ghcFactor(radices[:m]), ghcFactor(radices[m:]), l, 0))
			paperArea := formulas.GHCArea(st.N, r, l)
			pathWire := route.MaxPathWire(lay, 16, 0)
			t.Add(r, dims, st.N, l,
				geom.ChannelArea(), paperArea, ratio(float64(geom.ChannelArea()), paperArea),
				st.MaxWire, formulas.GHCMaxWire(st.N, r, l),
				pathWire, formulas.GHCPathWire(st.N, r, l))
		}
	}
	t.Note("path wire is the max total wire length along hop-shortest routes (claim (4) of §2.2).")
	t.Note("odd radices run below 1.0: the construction uses ⌊r²/4⌋ tracks per K_r where the")
	t.Note("formula's leading term uses r²/4 (the paper assumes r non-constant).")
	return t
}

func ghcFactor(radices []int) *track.Collinear {
	if len(radices) == 0 {
		return &track.Collinear{Name: "trivial", N: 1}
	}
	return track.GeneralizedHypercube(radices)
}

// E8Hypercube regenerates §5.1: hypercube area 16N²/(9L²), volume
// 16N²/(9L), max wire 2N/(3L).
func E8Hypercube() *Table {
	t := &Table{
		ID:    "E8 (§5.1)",
		Title: "hypercube: measured vs 16N²/(9L²) area, 2N/(3L) max wire",
		Header: []string{"n", "N", "L", "area", "chan-area", "paper-area", "ratio",
			"maxwire", "paper-mw", "volume", "paper-vol"},
	}
	for _, n := range []int{6, 8, 10, 12} {
		for _, l := range []int{2, 3, 4, 8} {
			lay, err := core.Hypercube(n, l, 0, 0)
			if err != nil {
				t.Note("build failed n=%d L=%d: %v", n, l, err)
				continue
			}
			st := checkedStats(t, lay)
			geom, _ := core.Plan(core.FromFactors("plan",
				track.Hypercube(n/2), track.Hypercube((n+1)/2), l, 0))
			paperArea := formulas.HypercubeArea(st.N, l)
			t.Add(n, st.N, l, st.Area, geom.ChannelArea(), paperArea,
				ratio(float64(geom.ChannelArea()), paperArea),
				st.MaxWire, formulas.HypercubeMaxWire(st.N, l),
				st.Volume, formulas.HypercubeVolume(st.N, l))
		}
	}
	t.Note("node squares add ~N·(n/2+1)² = o(N²) area; at n=12 they are already under 25%% of the total.")
	return t
}
