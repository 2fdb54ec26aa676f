package track

import (
	"fmt"
	"strconv"
)

// Path returns the collinear layout of an n-node path: every link between
// consecutive positions on a single track.
func Path(n int) *Collinear {
	c := &Collinear{Name: fmt.Sprintf("path(%d)", n), N: n}
	if n < 2 {
		return c
	}
	c.Tracks = 1
	for i := 0; i+1 < n; i++ {
		c.Edges = append(c.Edges, Edge{U: i, V: i + 1, Track: 0})
	}
	return c
}

// Ring returns the paper's 2-track collinear layout of a k-node ring
// (§3.1): neighbor links on track 0, the wraparound link on track 1.
// Ring(2) is a single link (a 2-node ring has one edge), Ring(1) is empty.
func Ring(k int) *Collinear {
	c := &Collinear{Name: "ring(" + strconv.Itoa(k) + ")", N: k}
	switch {
	case k < 2:
		return c
	case k == 2:
		c.Tracks = 1
		c.Edges = []Edge{{U: 0, V: 1, Track: 0}}
		return c
	}
	c.Tracks = 2
	c.Edges = make([]Edge, 0, k)
	for i := 0; i+1 < k; i++ {
		c.Edges = append(c.Edges, Edge{U: i, V: i + 1, Track: 0})
	}
	c.Edges = append(c.Edges, Edge{U: 0, V: k - 1, Track: 1})
	return c
}

// FoldedRing returns a collinear ring layout in the folded (interleaved)
// node order 0, k−1, 1, k−2, 2, …, so every ring link spans at most 2
// positions. This is the per-row/column folding the paper applies in §3.1 to
// cut the maximum wire length of k-ary n-cube layouts to O(N/(Lk²)). Track
// count is assigned greedily (2 for k >= 3).
func FoldedRing(k int) *Collinear {
	c := &Collinear{Name: fmt.Sprintf("foldedring(%d)", k), N: k}
	if k < 2 {
		return c
	}
	labels := make([]int, k)
	for p := 0; p < k; p++ {
		if p%2 == 0 {
			labels[p] = p / 2
		} else {
			labels[p] = k - 1 - p/2
		}
	}
	c.Labels = labels
	pos := make([]int, k)
	for p, l := range labels {
		pos[l] = p
	}
	addEdge := func(a, b int) {
		u, v := pos[a], pos[b]
		if u > v {
			u, v = v, u
		}
		c.Edges = append(c.Edges, Edge{U: u, V: v})
	}
	for i := 0; i+1 < k; i++ {
		addEdge(i, i+1)
	}
	if k > 2 {
		addEdge(0, k-1)
	}
	c.AssignGreedy()
	return c
}

// Complete returns the strictly optimal collinear layout of the N-node
// complete graph using ⌊N²/4⌋ tracks (§4.1, citing Yeh & Parhami [30]):
// every pair of positions is connected and tracks are assigned greedily,
// which meets the max-cut lower bound ⌊N²/4⌋ exactly.
func Complete(n int) *Collinear {
	c := &Collinear{Name: fmt.Sprintf("K%d", n), N: n}
	if n < 2 {
		return c
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			c.Edges = append(c.Edges, Edge{U: u, V: v})
		}
	}
	c.AssignGreedy()
	return c
}

// K2 is the 1-track layout of a single link.
func K2() *Collinear { return Ring(2) }

// C4 is the 2-track layout of a 4-cycle, the basic building block of the
// paper's ⌊2N/3⌋-track hypercube layout (§5.1, Fig. 4). Its labels are in
// Gray-code order so the cycle is exactly the 2-cube on binary labels.
func C4() *Collinear {
	c := Ring(4)
	c.Name = "2-cube"
	// Positions around the ring are 0,1,2,3; as 2-bit cube labels the ring
	// order is the Gray sequence 00,01,11,10.
	c.Labels = []int{0, 1, 3, 2}
	return c
}

// Product combines collinear layouts of factor graphs G and H into a
// collinear layout of the Cartesian product G×H, the paper's bottom-up step:
// interleave N_H copies of G at stride N_H (copy j holds the nodes whose
// H-coordinate is position j) and lay each group of N_H consecutive
// positions out as H on a shared bundle of tracks. Track count is
// N_H·tracks(G) + tracks(H). Labels compose: the node at position
// (pG, pH) gets label labelG(pG)·N_H + labelH(pH).
func Product(g, h *Collinear) *Collinear {
	n := g.N * h.N
	c := &Collinear{
		Name:   "(" + g.Name + ")x(" + h.Name + ")",
		N:      n,
		Tracks: h.N*g.Tracks + h.Tracks,
		Edges:  make([]Edge, 0, h.N*len(g.Edges)+g.N*len(h.Edges)),
	}
	// G-edges: copy j (j = H-position) keeps its own block of tracks, since
	// interleaved intervals of different copies overlap.
	for j := 0; j < h.N; j++ {
		base := j * g.Tracks
		for _, e := range g.Edges {
			c.Edges = append(c.Edges, Edge{
				U:     e.U*h.N + j,
				V:     e.V*h.N + j,
				Track: base + e.Track,
			})
		}
	}
	// H-edges: group i occupies positions [i·N_H, (i+1)·N_H); groups are
	// disjoint position ranges, so all groups share one bundle of tracks.
	hBase := h.N * g.Tracks
	for i := 0; i < g.N; i++ {
		off := i * h.N
		for _, e := range h.Edges {
			c.Edges = append(c.Edges, Edge{
				U:     off + e.U,
				V:     off + e.V,
				Track: hBase + e.Track,
			})
		}
	}
	if g.Labels != nil || h.Labels != nil {
		labels := make([]int, n)
		for pg := 0; pg < g.N; pg++ {
			for ph := 0; ph < h.N; ph++ {
				labels[pg*h.N+ph] = g.Label(pg)*h.N + h.Label(ph)
			}
		}
		c.Labels = labels
	}
	return c
}

// KAryNCube returns the paper's collinear layout of a k-ary n-cube with
// f_k(n) = 2(kⁿ−1)/(k−1) tracks (§3.1), built by n−1 applications of the
// product combinator to rings. If folded is true, folded rings are used
// instead, shortening every interval to O(k^{n-1}) at the cost of at most
// one extra track per dimension.
func KAryNCube(k, n int, folded bool) *Collinear {
	ring := func() *Collinear {
		if folded {
			return FoldedRing(k)
		}
		return Ring(k)
	}
	c := ring()
	for d := 1; d < n; d++ {
		c = Product(c, ring())
	}
	c.Name = fmt.Sprintf("%d-ary %d-cube", k, n)
	return c
}

// Hypercube returns the paper's ⌊2N/3⌋-track collinear layout of the binary
// n-cube (§5.1): 2-cubes (4-cycles, 2 tracks) are the base blocks, two
// dimensions are added per product step (f(n) = 4f(n−2)+2), with one final
// K2 step for odd n (f(n) = 2f(n−1)+1). Labels place nodes so the laid-out
// graph is exactly the hypercube on binary labels.
func Hypercube(n int) *Collinear {
	var c *Collinear
	switch {
	case n <= 0:
		return &Collinear{Name: "0-cube", N: 1}
	case n == 1:
		c = K2()
	default:
		c = C4()
		for d := 2; d+2 <= n; d += 2 {
			c = Product(c, C4())
		}
		if n%2 == 1 {
			c = Product(c, K2())
		}
	}
	c.Name = fmt.Sprintf("%d-cube", n)
	return c
}

// GeneralizedHypercube returns the collinear layout of an n-dimensional
// radix-(r_{n−1},…,r_0) generalized hypercube (§4.1): dimension i is a
// complete graph K_{r_i}, so f(n+1) = r_n·f(n) + ⌊r_n²/4⌋. radices[0] is the
// least significant dimension, matching the paper's digit order. The product
// is built most-significant-first so that position == mixed-radix value of
// the label.
func GeneralizedHypercube(radices []int) *Collinear {
	if len(radices) == 0 {
		return &Collinear{Name: "GHC()", N: 1}
	}
	c := Complete(radices[len(radices)-1])
	for i := len(radices) - 2; i >= 0; i-- {
		c = Product(c, Complete(radices[i]))
	}
	c.Name = fmt.Sprintf("GHC%v", radices)
	return c
}

// Multiply returns a copy of the layout with every link replicated m times
// on its own tracks (track count multiplies by m). This realizes quotient
// graphs with parallel links, e.g. the butterfly's generalized-hypercube
// quotient with 4 links per neighboring cluster pair (§4.2).
func Multiply(c *Collinear, m int) *Collinear {
	if m < 1 {
		m = 1
	}
	out := &Collinear{
		Name:   fmt.Sprintf("%dx(%s)", m, c.Name),
		N:      c.N,
		Tracks: c.Tracks * m,
	}
	if c.Labels != nil {
		out.Labels = append([]int(nil), c.Labels...)
	}
	for rep := 0; rep < m; rep++ {
		base := rep * c.Tracks
		for _, e := range c.Edges {
			out.Edges = append(out.Edges, Edge{U: e.U, V: e.V, Track: base + e.Track})
		}
	}
	return out
}

// TrackCountKAry is the paper's closed form f_k(n) = 2(kⁿ−1)/(k−1).
func TrackCountKAry(k, n int) int {
	p := 1
	for i := 0; i < n; i++ {
		p *= k
	}
	return 2 * (p - 1) / (k - 1)
}

// TrackCountHypercube is the paper's closed form ⌊2N/3⌋ with N = 2ⁿ.
func TrackCountHypercube(n int) int {
	if n <= 0 {
		return 0
	}
	return (2 << uint(n)) / 3
}

// TrackCountGHC is the paper's closed form (N−1)⌊r²/4⌋/(r−1) for a radix-r
// n-dimensional generalized hypercube.
func TrackCountGHC(r, n int) int {
	p := 1
	for i := 0; i < n; i++ {
		p *= r
	}
	return (p - 1) * (r * r / 4) / (r - 1)
}

// MeshCollinear returns the collinear layout of an n-dimensional mesh
// (dims[0] least significant) as a product of 1-track paths:
// f = Σ_i Π_{j<i} dims[j] − … following the combinator recurrence
// f(G×P) = N_P·f(G) + 1. Meshes are the paper's §3.2 warm-up product
// networks.
func MeshCollinear(dims []int) *Collinear {
	if len(dims) == 0 {
		return &Collinear{Name: "mesh()", N: 1}
	}
	c := Path(dims[len(dims)-1])
	for i := len(dims) - 2; i >= 0; i-- {
		c = Product(c, Path(dims[i]))
	}
	c.Name = fmt.Sprintf("mesh%v", dims)
	return c
}
