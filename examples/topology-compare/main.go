// Topology shoot-out: which interconnection network should a 256-node
// single-chip multiprocessor use, given an 8-layer metal stack?
//
// The paper's breadth exists exactly for this question: different
// topologies trade degree, diameter, and layout cost very differently.
// This example lays out six candidate networks of (nearly) equal node
// count under the same multilayer budget, verifies every layout, and
// tabulates silicon cost (area, volume), electrical cost (max wire, max
// route wire), and simulated traffic latency.
package main

import (
	"fmt"
	"log"

	"mlvlsi"
)

func main() {
	const layers = 8
	o := mlvlsi.Options{Layers: layers}

	type candidate struct {
		name  string
		build func() (*mlvlsi.Layout, error)
	}
	candidates := []candidate{
		{"hypercube(8), N=256", func() (*mlvlsi.Layout, error) {
			return mlvlsi.Hypercube(8, o)
		}},
		{"4-ary 4-cube, N=256", func() (*mlvlsi.Layout, error) {
			return mlvlsi.KAryNCube(4, 4, mlvlsi.Options{Layers: layers, FoldedRows: true})
		}},
		{"GHC(16,16), N=256", func() (*mlvlsi.Layout, error) {
			return mlvlsi.GeneralizedHypercube([]int{16, 16}, o)
		}},
		{"CCC(6), N=384", func() (*mlvlsi.Layout, error) {
			return mlvlsi.CCC(6, o)
		}},
		{"butterfly(6), N=384", func() (*mlvlsi.Layout, error) {
			return mlvlsi.Butterfly(6, o)
		}},
		{"HSN(2,16), N=256", func() (*mlvlsi.Layout, error) {
			return mlvlsi.HSN(2, 16, o)
		}},
	}

	fmt.Printf("topology comparison under an L=%d wiring stack\n\n", layers)
	fmt.Printf("%-22s %6s %6s %10s %8s %9s %12s\n",
		"network", "N", "links", "area", "maxwire", "pathwire", "avg-latency")
	for _, c := range candidates {
		lay, err := c.build()
		if err != nil {
			log.Fatalf("%s: %v", c.name, err)
		}
		if v, err := mlvlsi.VerifyLayout(lay, mlvlsi.Options{}); err != nil {
			log.Fatal(err)
		} else if len(v) > 0 {
			log.Fatalf("%s: illegal layout: %v", c.name, v[0])
		}
		s := lay.Stats()
		res := mlvlsi.Simulate(lay, mlvlsi.SimConfig{
			Pattern: mlvlsi.Permutation, Velocity: 1, Seed: 7,
		})
		fmt.Printf("%-22s %6d %6d %10d %8d %9d %12.1f\n",
			c.name, s.N, s.Links, s.Area, s.MaxWire,
			mlvlsi.MaxPathWire(lay, 16), res.AvgLatency)
	}

	fmt.Println()
	fmt.Println("Reading the table the paper's way: the GHC buys its 2-hop routes with a")
	fmt.Println("quadratically larger layout; constant-degree networks (CCC, butterfly) pack")
	fmt.Println("far more nodes per unit area at higher hop counts; the hypercube and the")
	fmt.Println("torus sit between — and every row shrank by the same (L/2)² versus Thompson.")
}
