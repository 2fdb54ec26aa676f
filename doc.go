// Package mlvlsi is a production-quality Go implementation of
//
//	Chi-Hsiang Yeh, Emmanouel A. Varvarigos, Behrooz Parhami,
//	"Multilayer VLSI Layout for Interconnection Networks", ICPP 2000,
//
// the multilayer grid model and the orthogonal multilayer layout scheme for
// interconnection networks. It constructs fully realized, machine-verified
// VLSI layouts — concrete node rectangles and edge-disjoint rectilinear
// wire paths across L wiring layers — for every network family the paper
// treats: k-ary n-cubes and general product networks, binary hypercubes,
// generalized hypercubes, butterflies, cube-connected cycles, reduced
// hypercubes, folded hypercubes, enhanced cubes, hierarchical swap networks
// (HSN), hierarchical hypercube networks (HHN), indirect swap networks
// (ISN), and k-ary n-cube cluster-c PN clusters.
//
// The headline results reproduce constructively: designing directly for L
// layers shrinks layout area by ≈ (L/2)² and volume and maximum wire length
// by ≈ L/2 versus the 2-layer Thompson model, whereas folding a finished
// 2-layer layout (also implemented, as the baseline) only buys L/2 in area
// and nothing in volume or wire length.
//
// Quick start:
//
//	opt := mlvlsi.Options{Layers: 8}
//	lay, err := mlvlsi.Hypercube(8, opt)
//	if err != nil { ... }
//	v, err := mlvlsi.VerifyLayout(lay, opt)   // legality check
//	if err != nil || len(v) > 0 { ... }
//	fmt.Println(lay.Stats())                  // area, volume, max wire
//
// See EXPERIMENTS.md for the paper-versus-measured results and cmd/paperbench
// for the harness that regenerates them.
package mlvlsi
