// Custom product networks: the library's combinators are not limited to
// the named families. This example assembles a "clustered cylinder" — the
// Cartesian product of a 12-node ring with a 6-node complete graph (ring of
// fully connected clusters) — straight from collinear building blocks, lays
// it out under several layer counts, verifies it, and exports an SVG.
package main

import (
	"fmt"
	"log"
	"os"

	"mlvlsi"
)

func main() {
	// Factor layouts: the paper's building blocks. f(ring) = 2 tracks,
	// f(K6) = ⌊36/4⌋ = 9 tracks; the product combinator interleaves them.
	ring := mlvlsi.Ring(12)
	clique := mlvlsi.CompleteGraph(6)
	fmt.Printf("factors: %s (%d tracks), %s (%d tracks)\n",
		ring.Name, ring.Tracks, clique.Name, clique.Tracks)

	// One more product level entirely at the collinear stage: a 72-node
	// collinear layout of ring x clique, with the combinator's track count
	// N_H·f(G) + f(H) = 6·2 + 9 = 21.
	combined := mlvlsi.CombineFactors(ring, clique)
	fmt.Printf("combined collinear factor: %s, N=%d, tracks=%d\n\n",
		combined.Name, combined.N, combined.Tracks)

	// 2-D layouts of (ring x clique) x path(4): rows carry the 72-node
	// combined factor, columns a 4-node path — 288 nodes total.
	for _, l := range []int{2, 4, 8} {
		lay, err := mlvlsi.Product("cylinder-cluster", combined, mlvlsi.PathGraph(4),
			mlvlsi.Options{Layers: l})
		if err != nil {
			log.Fatal(err)
		}
		if v, err := mlvlsi.VerifyLayout(lay, mlvlsi.Options{}); err != nil {
			log.Fatal(err)
		} else if len(v) > 0 {
			log.Fatalf("L=%d: illegal layout: %v", l, v[0])
		}
		fmt.Println(lay.Stats())
	}
	fmt.Println("(K6 clusters give every node a large pad, so this instance is node-")
	fmt.Println("dominated: area still shrinks with L, but volume grows — scale N up or")
	fmt.Println("node pads down to enter the paper's track-dominated regime.)")

	// Export the 2-layer version for visual inspection.
	lay, err := mlvlsi.Product("cylinder-cluster", combined, mlvlsi.PathGraph(4),
		mlvlsi.Options{Layers: 2})
	if err != nil {
		log.Fatal(err)
	}
	const out = "cylinder-cluster.svg"
	if err := os.WriteFile(out, []byte(mlvlsi.RenderSVG(lay, 3)), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote %s (%d nodes, %d wires; colors = wiring layers)\n",
		out, len(lay.Nodes), len(lay.Wires))

	// And the ASCII view of the small factors, paper-figure style.
	fmt.Println()
	fmt.Print(mlvlsi.RenderCollinear(ring, 4))
}
