// NoC design study: size the wiring stack for a 64-core on-chip torus.
//
// A chip architect laying out an 8x8 torus interconnect wants to know what
// an extra pair of metal layers buys: how much die area the network blocks
// give back, how much shorter the worst wire gets (it sets the clock), and
// what that does to traffic latency. This example runs the whole paper
// pipeline on that question: construct the layout at L = 2, 4, 8 (with the
// folded node order of §3.1 so wrap-around links stay short), verify
// legality, and simulate permutation traffic with wire-proportional delays.
package main

import (
	"fmt"
	"log"

	"mlvlsi"
)

func main() {
	const k, n = 8, 2 // 8x8 torus
	fmt.Println("wiring-stack study for an 8x8 torus NoC")
	fmt.Println()
	fmt.Printf("%3s  %8s  %8s  %8s  %12s  %12s\n",
		"L", "area", "maxwire", "pathwire", "avg-latency", "makespan")

	for _, l := range []int{2, 4, 8} {
		lay, err := mlvlsi.KAryNCube(k, n, mlvlsi.Options{Layers: l, FoldedRows: true})
		if err != nil {
			log.Fatal(err)
		}
		if v, err := mlvlsi.VerifyLayout(lay, mlvlsi.Options{}); err != nil {
			log.Fatal(err)
		} else if len(v) > 0 {
			log.Fatalf("L=%d: illegal layout: %v", l, v[0])
		}
		s := lay.Stats()
		res := mlvlsi.Simulate(lay, mlvlsi.SimConfig{
			Pattern:  mlvlsi.Permutation,
			Velocity: 1, // one grid unit per cycle: wire delay dominates
			Seed:     2026,
		})
		fmt.Printf("%3d  %8d  %8d  %8d  %12.1f  %12d\n",
			l, s.Area, s.MaxWire, mlvlsi.MaxPathWire(lay, 0), res.AvgLatency, res.Makespan)
	}

	fmt.Println()
	fmt.Println("Folded node order keeps every torus link local (no die-crossing wrap wires).")
	fmt.Println("Note how the gain saturates: an 8x8 torus has only a handful of tracks per")
	fmt.Println("channel, so once each channel fits in one track per layer pair (here at L=4)")
	fmt.Println("extra layers buy nothing — the (L/2)^2 law needs track-dominated fabrics,")
	fmt.Println("which is exactly the o(1) caveat in the paper's formulas.")

	// What if the floorplan instead reused the 2-layer layout and simply
	// folded it over the new layers? The baseline shows why that wastes
	// most of the benefit.
	base, err := mlvlsi.KAryNCube(k, n, mlvlsi.Options{Layers: 2, FoldedRows: true})
	if err != nil {
		log.Fatal(err)
	}
	folded, err := mlvlsi.Fold(base, 8)
	if err != nil {
		log.Fatal(err)
	}
	if err := mlvlsi.VerifyFolded(folded); err != nil {
		log.Fatal(err)
	}
	fs := mlvlsi.FoldStats(folded)
	bs := base.Stats()
	fmt.Println()
	fmt.Printf("baseline: folding the 2-layer layout onto 8 layers gives area %d (gain %.1fx)\n",
		fs.Area, float64(bs.Area)/float64(fs.Area))
	fmt.Printf("but max wire stays %d -> %d and volume %d -> %d — the paper's point (§2.2).\n",
		bs.MaxWire, fs.MaxWire, bs.Volume, fs.Volume)
}
