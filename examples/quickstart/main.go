// Quickstart: build multilayer layouts of a 256-node hypercube, verify
// their legality, and watch the paper's headline effect — area shrinking by
// ≈ (L/2)² and volume / max wire length by ≈ L/2 as wiring layers are added.
package main

import (
	"fmt"
	"log"

	"mlvlsi"
)

func main() {
	const n = 8 // 2^8 = 256 nodes
	fmt.Printf("multilayer layouts of the %d-node hypercube\n\n", 1<<n)
	fmt.Printf("%3s  %10s  %10s  %8s  %12s\n", "L", "area", "volume", "maxwire", "area gain")

	var baseArea int
	for _, l := range []int{2, 4, 6, 8} {
		lay, err := mlvlsi.Hypercube(n, mlvlsi.Options{Layers: l})
		if err != nil {
			log.Fatal(err)
		}
		// Every layout is machine-checkable: wires are edge-disjoint paths
		// through the L wiring layers.
		if v, err := mlvlsi.VerifyLayout(lay, mlvlsi.Options{}); err != nil {
			log.Fatal(err)
		} else if len(v) > 0 {
			log.Fatalf("illegal layout: %v", v[0])
		}
		s := lay.Stats()
		if l == 2 {
			baseArea = s.Area
		}
		fmt.Printf("%3d  %10d  %10d  %8d  %10.2fx\n",
			l, s.Area, s.Volume, s.MaxWire, float64(baseArea)/float64(s.Area))
	}

	fmt.Println("\nThe 2-layer row of this table is the classical Thompson-model layout;")
	fmt.Println("each added layer pair shrinks the area quadratically (paper §2.2, claim 1).")
}
