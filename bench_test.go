// Benchmark harness: one Benchmark per experiment in DESIGN.md's index
// (E1-E14, regenerating the paper's figures and per-section results) plus
// ablation benches for the design choices DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Reported custom metrics carry the experiment's headline quantity (tracks,
// area, ratio …) so `-bench` output doubles as a compact results table.
package mlvlsi_test

import (
	"fmt"
	"testing"

	"mlvlsi/internal/cluster"
	"mlvlsi/internal/core"
	"mlvlsi/internal/experiments"
	"mlvlsi/internal/extra"
	"mlvlsi/internal/fold"
	"mlvlsi/internal/formulas"
	"mlvlsi/internal/generic"
	"mlvlsi/internal/grid"
	"mlvlsi/internal/layout"
	"mlvlsi/internal/route"
	"mlvlsi/internal/sim"
	"mlvlsi/internal/stack"
	"mlvlsi/internal/topology"
	"mlvlsi/internal/track"
)

// mustLay returns a checker curried on b so call sites can splat builder
// (layout, error) pairs directly.
func mustLay(b *testing.B) func(*layout.Layout, error) *layout.Layout {
	return func(lay *layout.Layout, err error) *layout.Layout {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		return lay
	}
}

// --- E1-E3: the collinear constructions behind Figures 2-4 ---------------

func BenchmarkE1CollinearKAry(b *testing.B) {
	var tracks int
	for i := 0; i < b.N; i++ {
		c := track.KAryNCube(8, 4, false)
		tracks = c.Tracks
	}
	b.ReportMetric(float64(tracks), "tracks")
	b.ReportMetric(float64(track.TrackCountKAry(8, 4)), "paper-tracks")
}

func BenchmarkE2CollinearComplete(b *testing.B) {
	var tracks int
	for i := 0; i < b.N; i++ {
		c := track.Complete(64)
		tracks = c.Tracks
	}
	b.ReportMetric(float64(tracks), "tracks")
	b.ReportMetric(float64(64*64/4), "paper-tracks")
}

func BenchmarkE3CollinearHypercube(b *testing.B) {
	var tracks int
	for i := 0; i < b.N; i++ {
		c := track.Hypercube(12)
		tracks = c.Tracks
	}
	b.ReportMetric(float64(tracks), "tracks")
	b.ReportMetric(float64(track.TrackCountHypercube(12)), "paper-tracks")
}

// --- E4-E11: per-family layout constructions ------------------------------

func BenchmarkE4KAryNCube(b *testing.B) {
	var area int
	for i := 0; i < b.N; i++ {
		lay := mustLay(b)(core.KAryNCube(8, 3, 8, false, 0, 0))
		area = lay.Area()
	}
	b.ReportMetric(float64(area), "area")
	b.ReportMetric(formulas.KAryArea(512, 8, 8), "paper-area")
}

func BenchmarkE5GeneralizedHypercube(b *testing.B) {
	var area int
	for i := 0; i < b.N; i++ {
		lay := mustLay(b)(core.GeneralizedHypercube([]int{8, 8}, 4, 0, 0))
		area = lay.Area()
	}
	b.ReportMetric(float64(area), "area")
	b.ReportMetric(formulas.GHCArea(64, 8, 4), "paper-area")
}

func BenchmarkE6Butterfly(b *testing.B) {
	var area int
	for i := 0; i < b.N; i++ {
		lay := mustLay(b)(cluster.Butterfly(6, 4, 0, 0))
		area = lay.Area()
	}
	b.ReportMetric(float64(area), "area")
	b.ReportMetric(formulas.ButterflyArea(6<<6, 4), "paper-area")
}

func BenchmarkE7SwapNetworks(b *testing.B) {
	var area int
	for i := 0; i < b.N; i++ {
		lay := mustLay(b)(cluster.HSN(3, 4, 4, 0, 0, nil))
		area = lay.Area()
	}
	b.ReportMetric(float64(area), "area")
	b.ReportMetric(formulas.HSNArea(64, 4), "paper-area")
}

func BenchmarkE8Hypercube(b *testing.B) {
	var area int
	for i := 0; i < b.N; i++ {
		lay := mustLay(b)(core.Hypercube(10, 8, 0, 0))
		area = lay.Area()
	}
	b.ReportMetric(float64(area), "area")
	b.ReportMetric(formulas.HypercubeArea(1024, 8), "paper-area")
}

func BenchmarkE9CCC(b *testing.B) {
	var area int
	for i := 0; i < b.N; i++ {
		lay := mustLay(b)(cluster.CCC(6, 4, 0, 0))
		area = lay.Area()
	}
	b.ReportMetric(float64(area), "area")
	b.ReportMetric(formulas.CCCArea(6<<6, 4), "paper-area")
}

func BenchmarkE10FoldedEnhanced(b *testing.B) {
	var area int
	for i := 0; i < b.N; i++ {
		lay := mustLay(b)(extra.FoldedHypercube(9, 4, 0, 0))
		area = lay.Area()
	}
	b.ReportMetric(float64(area), "area")
	b.ReportMetric(formulas.FoldedHypercubeArea(512, 4), "paper-area")
}

func BenchmarkE11PNCluster(b *testing.B) {
	var area int
	for i := 0; i < b.N; i++ {
		lay := mustLay(b)(cluster.KAryClusterC(4, 4, 4, 4, 0, 0))
		area = lay.Area()
	}
	b.ReportMetric(float64(area), "area")
}

// --- E12-E14: baselines, bounds, simulation -------------------------------

func BenchmarkE12FoldingBaseline(b *testing.B) {
	base := mustLay(b)(core.Hypercube(8, 2, 0, 0))
	baseArea := base.Area()
	var foldedArea int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := fold.Fold(base, 8)
		if err != nil {
			b.Fatal(err)
		}
		foldedArea = fold.Measure(f).Area
	}
	direct := mustLay(b)(core.Hypercube(8, 8, 0, 0))
	b.ReportMetric(float64(baseArea)/float64(foldedArea), "fold-gain")
	b.ReportMetric(float64(baseArea)/float64(direct.Area()), "direct-gain")
}

func BenchmarkE13LowerBounds(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		tab := experiments.E13LowerBounds()
		_ = tab
		ratio = 1
	}
	b.ReportMetric(ratio, "ok")
}

func BenchmarkE14WireDelaySim(b *testing.B) {
	lay := mustLay(b)(core.Hypercube(8, 8, 0, 0))
	var avg float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.Run(lay, sim.Config{Pattern: sim.Permutation, Velocity: 1, Seed: 7})
		avg = res.AvgLatency
	}
	b.ReportMetric(avg, "avg-latency")
}

// --- Ablations (DESIGN.md) -------------------------------------------------

// Ablation: the paper's structured track recurrences versus per-instance
// greedy recoloring (Compact). Greedy can only match or beat the recurrence
// for a fixed placement; the bench reports both counts.
func BenchmarkAblationGreedyRecolor(b *testing.B) {
	c := track.Hypercube(12)
	var compactTracks int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compactTracks = c.Compact().Tracks
	}
	b.ReportMetric(float64(c.Tracks), "structured-tracks")
	b.ReportMetric(float64(compactTracks), "greedy-tracks")
}

// Ablation: folded versus natural row order for torus wire length (§3.1).
func BenchmarkAblationFoldedRows(b *testing.B) {
	var plain, folded int
	for i := 0; i < b.N; i++ {
		p := mustLay(b)(core.KAryNCube(16, 2, 4, false, 0, 0))
		f := mustLay(b)(core.KAryNCube(16, 2, 4, true, 0, 0))
		plain, folded = p.MaxWireLength(), f.MaxWireLength()
	}
	b.ReportMetric(float64(plain), "maxwire-natural")
	b.ReportMetric(float64(folded), "maxwire-folded")
}

// Ablation: cost of the exact legality verifier (marks every unit wire edge
// in a tile's occupancy bitset), the price of machine-checked layouts.
func BenchmarkAblationVerifier(b *testing.B) {
	lay := mustLay(b)(core.Hypercube(8, 4, 0, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, _ := lay.VerifyOpts(nil, grid.CheckOptions{}); len(v) > 0 {
			b.Fatal(v[0])
		}
	}
}

// Ablation: routing measurement cost (hop-shortest Dijkstra sweep).
func BenchmarkAblationMaxPathWire(b *testing.B) {
	lay := mustLay(b)(core.Hypercube(8, 4, 0, 0))
	var w int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w = route.MaxPathWire(lay, 16, 0)
	}
	b.ReportMetric(float64(w), "pathwire")
}

func BenchmarkE15Cayley(b *testing.B) {
	var area int
	for i := 0; i < b.N; i++ {
		lay := mustLay(b)(cluster.Star(5, 4, 0, 0))
		area = lay.Area()
	}
	b.ReportMetric(float64(area), "area")
}

func BenchmarkE16Stack3D(b *testing.B) {
	var area int
	for i := 0; i < b.N; i++ {
		s, err := stack.Hypercube3D(8, 2, 4, stack.Knobs{})
		if err != nil {
			b.Fatal(err)
		}
		area = s.Area()
	}
	b.ReportMetric(float64(area), "footprint")
}

// Ablation: optimal recoloring of the paper's structured track assignment
// (expected to be a no-op on paper constructions).
func BenchmarkE17Compaction(b *testing.B) {
	spec := core.FromFactors("h10", track.Hypercube(5), track.Hypercube(5), 2, 0)
	var w int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := core.Plan(core.CompactTracks(spec))
		if err != nil {
			b.Fatal(err)
		}
		w = g.ChannelWidth
	}
	b.ReportMetric(float64(w), "chan-width")
}

func BenchmarkE18GenericRouter(b *testing.B) {
	g := topology.DeBruijn(7)
	var area int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lay, err := generic.Layout(g, generic.Config{L: 4})
		if err != nil {
			b.Fatal(err)
		}
		area = lay.Area()
	}
	b.ReportMetric(float64(area), "area")
}

// BenchmarkCheck times grid.Verify on the 12- and 14-cube under L=4
// (24576 and 114688 wires) at one and four workers. The 12-cube fits a
// handful of 1 MiB tiles, the 14-cube a few dozen; each tile's bitset is
// pooled across calls, so the legal path's allocations are per-check
// bookkeeping, not per edge.
func BenchmarkCheck(b *testing.B) {
	for _, dim := range []int{12, 14} {
		var lay *layout.Layout
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("hypercube%d/workers=%d", dim, workers), func(b *testing.B) {
				if lay == nil {
					lay = mustLay(b)(core.Hypercube(dim, 4, 0, 0))
				}
				opts := grid.CheckOptions{Layers: lay.L, Discipline: true, Nodes: lay.Nodes, Workers: workers}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if v, err := grid.Verify(nil, lay.Wires, opts); err != nil || len(v) > 0 {
						b.Fatal(err, v)
					}
				}
			})
		}
	}
}

// Serial-vs-parallel hop-shortest routing sweeps (the measurement behind
// MaxPathWire/AveragePathWire).
func BenchmarkMaxPathWireSerial(b *testing.B) {
	lay := mustLay(b)(core.Hypercube(9, 4, 0, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route.MaxPathWire(lay, 32, 1)
	}
}

func BenchmarkMaxPathWireParallel(b *testing.B) {
	lay := mustLay(b)(core.Hypercube(9, 4, 0, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route.MaxPathWire(lay, 32, 4)
	}
}

// Serial-vs-parallel wire realization (the build-side half of the engine).
// The spec is assembled once outside the loop — assembly is cheap, identical
// on every path, and excluding it keeps these comparable with the scratch
// benchmarks in internal/core (BenchmarkBuildPooled/Scratch/Transient).
func benchBuildHypercube(b *testing.B, workers int) {
	b.Helper()
	spec := core.HypercubeSpec(10, 4, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := spec
		s.Workers = workers
		mustLay(b)(core.Build(s))
	}
}

func BenchmarkBuildHypercubeSerial(b *testing.B)   { benchBuildHypercube(b, 1) }
func BenchmarkBuildHypercubeParallel(b *testing.B) { benchBuildHypercube(b, 4) }
