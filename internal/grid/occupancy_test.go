package grid

import "testing"

// occBox builds a bounding box from explicit corners.
func occBox(minX, minY, minZ, maxX, maxY, maxZ int) BoundingBox {
	b := NewBoundingBox()
	b.AddPoint(Point{minX, minY, minZ})
	b.AddPoint(Point{maxX, maxY, maxZ})
	return b
}

func TestOccIndexerRoundTrip(t *testing.T) {
	box := occBox(-3, 2, 0, 5, 9, 4)
	tl, _, ok := newTilingFromBox(box, defaultTileBytes)
	if !ok || tl.Tiles() != 1 {
		t.Fatalf("compact box should fit one tile, got ok=%v tiles=%d", ok, tl.Tiles())
	}
	ix := tl.indexer(0)
	// Exhaustive: the slot index is a bijection from the box's unit edges
	// onto [0, cells).
	seen := make(map[int]bool, ix.cells)
	for z := 0; z <= 4; z++ {
		for y := 2; y <= 9; y++ {
			for x := -3; x <= 5; x++ {
				for _, a := range []Axis{AxisX, AxisY, AxisZ} {
					low := Point{x, y, z}
					idx := ix.index(low, a)
					if idx < 0 || idx >= ix.cells {
						t.Fatalf("index(%v, %v) = %d out of [0,%d)", low, a, idx, ix.cells)
					}
					if seen[idx] {
						t.Fatalf("index(%v, %v) = %d collides with another edge", low, a, idx)
					}
					seen[idx] = true
				}
			}
		}
	}
	if len(seen) != ix.cells {
		t.Fatalf("covered %d of %d slots", len(seen), ix.cells)
	}
}

// TestCheckDenseMatchesSparseRandom compares Verify with Reference on
// random multi-violation wire sets, where overlaps, layer-range and
// discipline stops interact.
func TestCheckDenseMatchesSparseRandom(t *testing.T) {
	opts := CheckOptions{Layers: 4, Discipline: true}
	for seed := int64(0); seed < 300; seed++ {
		var wires []Wire
		for i := 0; i < 6; i++ {
			w := randomWire(seed*31 + int64(i))
			w.ID = i
			wires = append(wires, w)
		}
		verifyAll(t, wires, opts)
	}
}

func TestCheckDenseSharedEdgeAttribution(t *testing.T) {
	// Three wires fighting over the same unit edge: the first claimant owns
	// it, both later wires are charged against wire 0 — and the tile walk's
	// replay must recover that attribution without owner storage.
	edge := []Point{{1, 1, 1}, {2, 1, 1}}
	wires := []Wire{
		{ID: 0, U: -1, V: -1, Path: edge},
		{ID: 1, U: -1, V: -1, Path: edge},
		{ID: 2, U: -1, V: -1, Path: edge},
	}
	vs := verifyAll(t, wires, CheckOptions{Layers: 2, Discipline: true})
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2: %v", len(vs), vs)
	}
	for i, v := range vs {
		if v.Code != ReasonSharedEdge || v.OtherID != 0 || v.WireID != i+1 {
			t.Errorf("violation %d = %+v, want wire %d charged against wire 0", i, v, i+1)
		}
	}

	// Self-overlap: a wire that doubles back over its own edge must charge
	// itself (OtherID == its own ID).
	self := []Wire{{ID: 7, U: -1, V: -1, Path: []Point{
		{0, 0, 1}, {3, 0, 1}, {3, 1, 1}, {3, 0, 1}, {5, 0, 1},
	}}}
	vs = verifyAll(t, self, CheckOptions{Layers: 2})
	if len(vs) != 1 || vs[0].OtherID != 7 || vs[0].WireID != 7 {
		t.Fatalf("self-overlap: %v, want one violation charging wire 7 against itself", vs)
	}
}

func TestCheckDensePoolReuseAcrossSizes(t *testing.T) {
	// Back-to-back checks of different-sized wire sets must not leak
	// occupancy bits through the pool: a stale bit would surface as a
	// phantom shared-edge violation on a legal layout.
	small := []Wire{{ID: 0, U: -1, V: -1, Path: []Point{{0, 0, 1}, {4, 0, 1}}}}
	big := []Wire{
		{ID: 0, U: -1, V: -1, Path: []Point{{0, 0, 1}, {40, 0, 1}}},
		{ID: 1, U: -1, V: -1, Path: []Point{{0, 1, 1}, {40, 1, 1}}},
	}
	for round := 0; round < 10; round++ {
		for _, wires := range [][]Wire{big, small} {
			if vs, err := Verify(nil, wires, CheckOptions{Layers: 2, Workers: 1}); err != nil || len(vs) != 0 {
				t.Fatalf("round %d: legal layout of %d wires reported %v (err %v)", round, len(wires), vs, err)
			}
		}
	}
}

// TestCheckParallelDenseMatchesSparse repeats the random comparison on
// larger wire sets, whose conflicts spread over several tiles under the
// small sweep ceiling.
func TestCheckParallelDenseMatchesSparse(t *testing.T) {
	opts := CheckOptions{Layers: 4, Discipline: true}
	for seed := int64(0); seed < 100; seed++ {
		var wires []Wire
		for i := 0; i < 8; i++ {
			w := randomWire(seed*53 + int64(i)*7)
			w.ID = i
			wires = append(wires, w)
		}
		verifyAll(t, wires, opts)
	}
}

func TestViolationMessages(t *testing.T) {
	cases := []struct {
		v    Violation
		want string
	}{
		{Violation{WireID: 3, OtherID: 5, Where: Point{1, 2, 3}, Code: ReasonSharedEdge, EdgeAxis: AxisY},
			"wire 3 overlaps wire 5 at (1,2,3): shared unit y-edge"},
		{Violation{WireID: 2, OtherID: -1, Where: Point{0, 0, -1}, Code: ReasonLayerRange, Aux: 4},
			"wire 2 at (0,0,-1): leaves wiring layer range [0,4]"},
		{Violation{WireID: 1, OtherID: -1, Where: Point{9, 9, 2}, Code: ReasonDisciplineX},
			"wire 1 at (9,9,2): x-run on an even layer violates direction discipline"},
		{Violation{WireID: 1, OtherID: -1, Where: Point{9, 9, 1}, Code: ReasonDisciplineY},
			"wire 1 at (9,9,1): y-run on an odd layer violates direction discipline"},
		{Violation{WireID: 0, OtherID: -1, Code: ReasonShortPath, Aux: 1},
			"wire 0 at (0,0,0): path has 1 vertices, need at least 2"},
		{Violation{WireID: 4, OtherID: -1, Where: Point{2, 2, 0}, Code: ReasonTerminalOutsideNode, Aux: 9},
			"wire 4 at (2,2,0): wire terminal is outside node 9 rectangle"},
	}
	for _, tc := range cases {
		if got := tc.v.Error(); got != tc.want {
			t.Errorf("Error() = %q, want %q", got, tc.want)
		}
	}
}
