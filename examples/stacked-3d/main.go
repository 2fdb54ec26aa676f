// Stacked 3-D layouts: a 1024-core hypercube machine built from a stack of
// boards (the paper's multilayer 3-D grid model, §2.2) instead of one die.
//
// A system designer choosing between one big board and a stack of smaller
// ones wants the footprint / volume / wire-length trade quantified. This
// example lays out the 10-cube flat and as 2, 4, and 8 boards (moving 1-3
// cube dimensions onto inter-board via columns), verifies every layout, and
// prints the trade — footprint shrinks ~quadratically with board count,
// stack height grows linearly, worst wires get much shorter.
package main

import (
	"fmt"
	"log"

	"mlvlsi"
)

func main() {
	const n, layers = 10, 4
	fmt.Printf("%d-node hypercube, L=%d wiring layers per board\n\n", 1<<n, layers)
	fmt.Printf("%8s  %7s  %9s  %9s  %8s\n", "boards", "layers", "footprint", "volume", "maxwire")

	flat, err := mlvlsi.Hypercube(n, mlvlsi.Options{Layers: layers})
	if err != nil {
		log.Fatal(err)
	}
	if v, err := mlvlsi.VerifyLayout(flat, mlvlsi.Options{}); err != nil {
		log.Fatal(err)
	} else if len(v) > 0 {
		log.Fatalf("flat layout illegal: %v", v[0])
	}
	fs := flat.Stats()
	fmt.Printf("%8d  %7d  %9d  %9d  %8d   (single board, 2-D model)\n",
		1, layers, fs.Area, fs.Volume, fs.MaxWire)

	for _, nz := range []int{1, 2, 3} {
		s, err := mlvlsi.Hypercube3D(n, nz, mlvlsi.Options{Layers: layers})
		if err != nil {
			log.Fatal(err)
		}
		if v := s.Verify(); len(v) > 0 {
			log.Fatalf("stacked layout illegal: %v", v[0])
		}
		st := s.Stats()
		fmt.Printf("%8d  %7d  %9d  %9d  %8d\n",
			st.Boards, st.TotalLayers, st.Area, st.Volume, st.MaxWire)
	}

	fmt.Println()
	fmt.Println("Moving b cube dimensions onto the stack gives 2^b boards: the per-board")
	fmt.Println("sub-network is 2^b times smaller, so the footprint falls ~quadratically")
	fmt.Println("(4x per doubling) while total volume falls ~linearly — the 3-D half of the")
	fmt.Println("paper's §2.2 accounting. Inter-board links become pure via columns with")
	fmt.Println("zero planar length, which is also why the worst wire shortens so fast.")
}
