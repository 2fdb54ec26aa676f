package grid

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"mlvlsi/internal/obs"
)

// tiledOpts returns Verify options for the given worker count and ceiling.
func tiledOpts(workers, tileBytes int) CheckOptions {
	return CheckOptions{Workers: workers, TileBytes: tileBytes}
}

func TestTilingGeometryCoversBox(t *testing.T) {
	// A 65-wide, 33-tall, 2-deep box; 64 bytes per tile = 512 slots forces
	// several columns and rows (the halving settles on 9x9 tiles).
	wires := []Wire{
		wire(0, Point{0, 0, 1}, Point{64, 0, 1}),
		wire(1, Point{0, 32, 1}, Point{64, 32, 1}),
		wire(2, Point{0, 0, 0}, Point{0, 0, 1}),
	}
	box, _ := Wires(wires).measure()
	tl, _, ok := newTilingFromBox(box, 64)
	if !ok {
		t.Fatal("tiling refused")
	}
	if tl.NX < 2 || tl.NY < 2 {
		t.Fatalf("expected a multi-tile partition, got %dx%d", tl.NX, tl.NY)
	}
	if tl.cells()*8 > 64*8*8 { // 3·tw·th·d bits within 64 bytes... sanity only
		t.Fatalf("tile cells %d exceed budget", tl.cells())
	}
	// Every lattice point maps to a tile whose span contains it, and tile
	// spans partition the box exactly.
	covered := 0
	for tile := 0; tile < tl.Tiles(); tile++ {
		x0, x1, y0, y1 := tl.tileSpan(tile)
		if x0 > x1 || y0 > y1 {
			t.Fatalf("tile %d has empty span (%d..%d, %d..%d)", tile, x0, x1, y0, y1)
		}
		covered += (x1 - x0 + 1) * (y1 - y0 + 1)
		for _, pt := range [][2]int{{x0, y0}, {x1, y0}, {x0, y1}, {x1, y1}} {
			if got := tl.TileIndex(pt[0], pt[1]); got != tile {
				t.Fatalf("TileIndex(%d,%d) = %d, want %d", pt[0], pt[1], got, tile)
			}
		}
	}
	w := tl.Box.MaxX - tl.Box.MinX + 1
	h := tl.Box.MaxY - tl.Box.MinY + 1
	if covered != w*h {
		t.Fatalf("tile spans cover %d points, box has %d", covered, w*h)
	}
}

func TestWireTilesSpansRoute(t *testing.T) {
	wires := []Wire{
		wire(0, Point{0, 0, 1}, Point{64, 0, 1}),
		wire(1, Point{0, 8, 1}, Point{64, 8, 1}),
	}
	tl, ok := NewTiling(wires, 64, 1)
	if !ok {
		t.Fatal("tiling refused")
	}
	var tiles []int
	tl.WireTiles(&wires[0], func(tile int) { tiles = append(tiles, tile) })
	if len(tiles) != tl.NX {
		t.Fatalf("a full-width x-run should touch every column: got %d tiles, want %d", len(tiles), tl.NX)
	}
	seen := map[int]bool{}
	for _, tile := range tiles {
		if seen[tile] {
			t.Fatalf("tile %d visited twice", tile)
		}
		seen[tile] = true
	}
}

// TestVerifyTiledBorderConflict plants an overlap exactly across a tile
// seam and checks the reconciliation pass reports it with the reference's
// attribution, while the counters prove the box was split into tiles.
func TestVerifyTiledBorderConflict(t *testing.T) {
	// Long parallel x-runs; wires 0 and 1 overlap on x 20..40 of row y=4.
	wires := []Wire{
		wire(0, Point{0, 4, 1}, Point{64, 4, 1}),
		wire(1, Point{20, 4, 1}, Point{40, 4, 1}),
		wire(2, Point{0, 0, 1}, Point{64, 0, 1}),
		wire(3, Point{0, 8, 1}, Point{64, 8, 1}),
	}
	want := Reference(wires, CheckOptions{})
	if len(want) == 0 {
		t.Fatal("expected an overlap violation")
	}
	ob := obs.New()
	opts := tiledOpts(2, 64*2) // 64 bytes per tile across 2 workers
	opts.Observer = ob
	got, err := Verify(nil, wires, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tiled %v != reference %v", got, want)
	}
	m := ob.Snapshot()
	if m.Get(obs.TiledChecks) != 1 {
		t.Fatalf("tiled_checks = %d, want 1", m.Get(obs.TiledChecks))
	}
	tl, ok := NewTiling(wires, 64*2, 2)
	if !ok {
		t.Fatal("tiling refused")
	}
	if m.Get(obs.TilesChecked) != int64(tl.Tiles()) {
		t.Fatalf("tiles_checked = %d, want the full partition %d", m.Get(obs.TilesChecked), tl.Tiles())
	}
	if tl.NX < 2 {
		t.Fatalf("seam test needs multiple columns, got %d", tl.NX)
	}
	if m.Get(obs.BorderEdgesReconciled) == 0 {
		t.Fatal("full-width x-runs must produce border claims")
	}
	if m.Get(obs.TileBytesPeak) == 0 {
		t.Fatal("tile_bytes_peak gauge not set")
	}
}

// TestVerifyTiledFaultPlantedOnBorder plants a duplicate unit edge exactly
// on a tile border: the X-edge whose low endpoint is the last lattice
// column of tile (0,0), which the walk pass defers as a border claim from
// both wires — only the final reconciliation pass can see the conflict. The
// reconciled report must match the reference down to the violation's
// location and attribution.
func TestVerifyTiledFaultPlantedOnBorder(t *testing.T) {
	wires := []Wire{
		wire(0, Point{0, 0, 1}, Point{64, 0, 1}),
		wire(1, Point{0, 8, 1}, Point{64, 8, 1}),
	}
	tl, ok := NewTiling(wires, 128, 1)
	if !ok || tl.NX < 2 {
		t.Fatalf("need a multi-column partition, got %dx%d", tl.NX, tl.NY)
	}
	_, x1, _, _ := tl.tileSpan(0)
	wires = append(wires, wire(2, Point{x1, 0, 1}, Point{x1 + 1, 0, 1}))
	want := Reference(wires, CheckOptions{})
	if len(want) != 1 || want[0].Code != ReasonSharedEdge || want[0].Where != (Point{x1, 0, 1}) {
		t.Fatalf("reference: want one shared edge at x=%d, got %v", x1, want)
	}
	ob := obs.New()
	opts := tiledOpts(2, 128*2) // 128 bytes per tile: tl's geometry exactly
	opts.Observer = ob
	got, err := Verify(nil, wires, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tiled %v != reference %v", got, want)
	}
	if got[0].EdgeAxis != AxisX || got[0].OtherID != 0 {
		t.Fatalf("border violation attribution: %+v", got[0])
	}
	if m := ob.Snapshot(); m.Get(obs.BorderEdgesReconciled) == 0 {
		t.Fatal("the planted edge never reached border reconciliation")
	}
}

// TestVerifyTiledGeometries drives Verify through degenerate partitions — a
// single tile, a 2x2-ish grid, and one-lattice-thin columns — and requires
// exact reference parity on a conflicted wire set in each.
func TestVerifyTiledGeometries(t *testing.T) {
	// A wide, short wire set with overlaps and a discipline violation.
	wires := []Wire{
		wire(0, Point{0, 0, 1}, Point{400, 0, 1}),
		wire(1, Point{100, 0, 1}, Point{120, 0, 1}), // overlap with 0
		wire(2, Point{0, 1, 1}, Point{400, 1, 1}),
		wire(3, Point{0, 2, 2}, Point{400, 2, 2}),   // x-run on even layer
		wire(4, Point{200, 0, 1}, Point{200, 2, 1}), // y-run crossing rows
		wire(5, Point{300, 0, 0}, Point{300, 0, 3}), // via run
	}
	opts := CheckOptions{Layers: 4, Discipline: true}
	want := Reference(wires, opts)
	if len(want) == 0 {
		t.Fatal("expected violations")
	}
	box, _ := Wires(wires).measure()
	cases := []struct {
		name      string
		tileBytes int
		wantNX    func(nx, ny int) bool
	}{
		{"one-tile", 0, func(nx, ny int) bool { return nx == 1 && ny == 1 }},
		{"grid", 160 * 3, func(nx, ny int) bool { return nx >= 2 }},
		{"thin", 9, func(nx, ny int) bool { return nx >= 100 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tl, _, ok := newTilingFromBox(box, tileBudget(tc.tileBytes, 3))
			if !ok {
				t.Fatal("tiling refused")
			}
			if !tc.wantNX(tl.NX, tl.NY) {
				t.Fatalf("partition %dx%d (tile %dx%d) does not match the scenario",
					tl.NX, tl.NY, tl.TileW, tl.TileH)
			}
			for _, workers := range []int{1, 3} {
				run := opts
				run.Workers = workers
				run.TileBytes = tc.tileBytes
				got, err := Verify(nil, wires, run)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: tiled %v != reference %v", workers, got, want)
				}
			}
		})
	}
}

func TestVerifyTiledMatchesParallelRandom(t *testing.T) {
	f := func(seed int64) bool {
		wires := legalWireSet(seed, 8)
		want := Reference(wires, CheckOptions{})
		for _, tileBytes := range []int{0, 16, 64} {
			got, err := Verify(nil, wires, tiledOpts(4, tileBytes))
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Logf("tile=%d: tiled %v (err %v) != reference %v", tileBytes, got, err, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestReverifyTiles exercises the incremental primitive: after a full
// check, mutate one wire into a conflict, mark the dirty tiles via
// WireTiles over the old and new routes, and re-verify only those. The
// TilesChecked counter must advance by exactly the dirty-tile count — the
// proof untouched tiles were not re-walked.
func TestReverifyTiles(t *testing.T) {
	wires := []Wire{
		wire(0, Point{0, 0, 1}, Point{64, 0, 1}),
		wire(1, Point{0, 4, 1}, Point{64, 4, 1}),
		wire(2, Point{0, 8, 1}, Point{64, 8, 1}),
		// Wire 3 is short, so its dirty set is a strict subset of the tiles.
		wire(3, Point{0, 12, 1}, Point{8, 12, 1}),
	}
	tl, ok := NewTiling(wires, 128, 1)
	if !ok {
		t.Fatal("tiling refused")
	}
	if tl.Tiles() < 4 {
		t.Fatalf("want a multi-tile partition, got %d tiles", tl.Tiles())
	}
	if vs, err := Verify(nil, wires, tiledOpts(1, 128)); err != nil || len(vs) != 0 {
		t.Fatalf("clean layout: %v %v", vs, err)
	}

	// Mutate wire 3 to overlap wire 1 on a short span.
	old := wires[3]
	wires[3] = wire(3, Point{10, 4, 1}, Point{14, 4, 1})
	dirtySet := map[int]bool{}
	for _, w := range []*Wire{&old, &wires[3]} {
		tl.WireTiles(w, func(tile int) { dirtySet[tile] = true })
	}
	var dirty []int
	for tile := range dirtySet {
		dirty = append(dirty, tile)
	}
	if len(dirty) == 0 || len(dirty) >= tl.Tiles() {
		t.Fatalf("dirty set %d of %d tiles is not a strict subset", len(dirty), tl.Tiles())
	}

	ob := obs.New()
	opts := tiledOpts(1, 128)
	opts.Observer = ob
	got, err := ReverifyTiles(nil, wires, tl, dirty, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := Reference(wires, CheckOptions{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("incremental %v != full %v", got, want)
	}
	m := ob.Snapshot()
	if m.Get(obs.TilesChecked) != int64(len(dirty)) {
		t.Fatalf("tiles_checked = %d, want exactly the %d dirty tiles",
			m.Get(obs.TilesChecked), len(dirty))
	}

	// A clean mutation elsewhere: re-verifying its tiles reports nothing.
	wires[3] = old
	dirty = dirty[:0]
	tl.WireTiles(&old, func(tile int) { dirty = append(dirty, tile) })
	if vs, err := ReverifyTiles(nil, wires, tl, dirty, tiledOpts(1, 128)); err != nil || len(vs) != 0 {
		t.Fatalf("clean re-verify: %v %v", vs, err)
	}
}

func TestReverifyTilesErrors(t *testing.T) {
	wires := []Wire{
		wire(0, Point{0, 0, 1}, Point{64, 0, 1}),
		wire(1, Point{0, 8, 1}, Point{64, 8, 1}),
	}
	tl, ok := NewTiling(wires, 128, 1)
	if !ok {
		t.Fatal("tiling refused")
	}
	// Geometry outgrowing the tiling's box must be rejected, not silently
	// dropped from the partition.
	grown := append(wires[:len(wires):len(wires)],
		wire(2, Point{0, 100, 1}, Point{5, 100, 1}))
	if _, err := ReverifyTiles(nil, grown, tl, []int{0}, CheckOptions{}); !errors.Is(err, ErrOutsideTiling) {
		t.Fatalf("outgrown wire set: err = %v, want ErrOutsideTiling", err)
	}
	if _, err := ReverifyTiles(nil, wires, tl, []int{tl.Tiles()}, CheckOptions{}); err == nil {
		t.Fatal("out-of-range dirty index accepted")
	}
	if _, err := ReverifyTiles(nil, wires, Tiling{}, []int{0}, CheckOptions{}); err == nil {
		t.Fatal("zero tiling accepted")
	}
	if vs, err := ReverifyTiles(nil, wires, tl, nil, CheckOptions{}); err != nil || vs != nil {
		t.Fatalf("empty dirty set: %v %v, want nil nil", vs, err)
	}
}

// TestVerifyTiledLadderFallThrough pins the single-tile case: a layout
// whose box fits one tile — under a roomy ceiling or none — is one bitset
// walk with nothing to reconcile, counted as a dense check and never as a
// map-rung run.
func TestVerifyTiledLadderFallThrough(t *testing.T) {
	wires := []Wire{wire(0, Point{0, 0, 1}, Point{8, 0, 1})}
	for _, ceiling := range []int{0, 1 << 20} {
		ob := obs.New()
		opts := CheckOptions{Workers: 1, TileBytes: ceiling, Observer: ob}
		if vs, err := Verify(nil, wires, opts); err != nil || len(vs) != 0 {
			t.Fatalf("ceiling %d: legal wire: %v %v", ceiling, vs, err)
		}
		m := ob.Snapshot()
		for c, want := range map[obs.Counter]int64{
			obs.TiledChecks: 1, obs.DenseChecks: 1, obs.SparseChecks: 0,
			obs.TilesChecked: 1, obs.BorderEdgesReconciled: 0,
		} {
			if got := m.Get(c); got != want {
				t.Errorf("ceiling %d: %s = %d, want %d", ceiling, c, got, want)
			}
		}
	}
}

// TestVerifyMapRungFarApart hand-builds wire sets whose boxes the tiling
// cannot partition — two wires 2^40 columns apart (more than maxTiles
// tiles), and two whose coordinates do not pack into 64 bits — and checks
// that Verify takes the map rung and still returns the reference's
// violations, for every worker count and ceiling.
func TestVerifyMapRungFarApart(t *testing.T) {
	for _, far := range []int{1 << 40, 1 << 62} {
		wires := []Wire{
			wire(0, Point{0, 0, 1}, Point{4, 0, 1}),
			wire(1, Point{2, 0, 1}, Point{3, 0, 1}), // overlaps wire 0
			wire(2, Point{far, 0, 1}, Point{far + 4, 0, 1}),
			wire(3, Point{far + 1, 0, 2}, Point{far + 3, 0, 2}),
		}
		opts := CheckOptions{Layers: 2, Discipline: true}
		want := verifyAll(t, wires, opts)
		if len(want) != 2 {
			t.Fatalf("far=%d: want an overlap and a discipline violation, got %v", far, want)
		}
		ob := obs.New()
		opts.Observer = ob
		if _, err := Verify(nil, wires, opts); err != nil {
			t.Fatal(err)
		}
		if m := ob.Snapshot(); m.Get(obs.SparseChecks) != 1 || m.Get(obs.TilesChecked) != 0 {
			t.Fatalf("far=%d: sparse_checks = %d, tiles_checked = %d; want the map rung",
				far, m.Get(obs.SparseChecks), m.Get(obs.TilesChecked))
		}
	}
}

// FuzzNewTiling drives the partitioner with random boxes — negative
// minimums, tall Z extents, planar extents up to 2^44 —
// ceilings and worker counts. A feasible tiling must cover every lattice
// column and row exactly once, agree with TileIndex at every tile's
// corners, fit one tile's bitset in the per-tile budget, and stay within
// maxTiles; an infeasible one must send Verify to the map rung.
func FuzzNewTiling(f *testing.F) {
	f.Add(int32(0), int32(0), int32(0), uint64(64), uint64(32), uint16(2), 1024, uint8(2))
	f.Add(int32(-50), int32(-7), int32(-3), uint64(1<<40), uint64(3), uint16(5), 0, uint8(1))
	f.Add(int32(5), int32(5), int32(0), uint64(2), uint64(2), uint16(60000), 1<<10, uint8(8))
	f.Add(int32(-1), int32(-1), int32(0), uint64(1<<44), uint64(1<<44), uint16(1), 64<<20, uint8(3))
	f.Fuzz(func(t *testing.T, minX, minY, minZ int32, w, h uint64, d uint16, ceiling int, workers uint8) {
		w, h = 4+w%(1<<44), 1+h%(1<<44)
		box := occBox(int(minX), int(minY), int(minZ),
			int(minX)+int(w)-1, int(minY)+int(h)-1, int(minZ)+int(d))
		nw := 1 + int(workers%16)
		budget := tileBudget(ceiling, nw)
		tl, _, ok := newTilingFromBox(box, budget)

		// Two short wires at opposite corners span exactly the box.
		wires := []Wire{
			wire(0, Point{box.MinX, box.MinY, box.MinZ}, Point{box.MinX + 1, box.MinY, box.MinZ}),
			wire(1, Point{box.MaxX - 1, box.MaxY, box.MaxZ}, Point{box.MaxX, box.MaxY, box.MaxZ}),
		}
		ob := obs.New()
		vs, err := Verify(nil, wires, CheckOptions{Workers: nw, TileBytes: ceiling, Observer: ob})
		if err != nil || vs != nil {
			t.Fatalf("legal corner wires: %v %v", vs, err)
		}
		if got := ob.Snapshot().Get(obs.SparseChecks); (got == 1) == ok {
			t.Fatalf("feasible=%v but sparse_checks = %d", ok, got)
		}
		if !ok {
			return
		}
		if ntl, nok := NewTiling(wires, ceiling, nw); !nok || ntl != tl {
			t.Fatalf("NewTiling %+v (ok %v) disagrees with Verify's partition %+v", ntl, nok, tl)
		}
		if tl.Tiles() > maxTiles {
			t.Fatalf("%d tiles exceed maxTiles", tl.Tiles())
		}
		if limit := maxInt(8, budget*8); tl.cells() > limit {
			t.Fatalf("tile of %d slots exceeds the %d-bit budget", tl.cells(), limit)
		}
		next := box.MinX
		for tx := 0; tx < tl.NX; tx++ {
			x0, x1, _, _ := tl.tileSpan(tx)
			if x0 != next || x1 < x0 {
				t.Fatalf("column %d spans %d..%d, want to start at %d", tx, x0, x1, next)
			}
			next = x1 + 1
		}
		if next != box.MaxX+1 {
			t.Fatalf("columns end at %d, box at %d", next-1, box.MaxX)
		}
		next = box.MinY
		for ty := 0; ty < tl.NY; ty++ {
			_, _, y0, y1 := tl.tileSpan(ty * tl.NX)
			if y0 != next || y1 < y0 {
				t.Fatalf("row %d spans %d..%d, want to start at %d", ty, y0, y1, next)
			}
			next = y1 + 1
		}
		if next != box.MaxY+1 {
			t.Fatalf("rows end at %d, box at %d", next-1, box.MaxY)
		}
		for tile := 0; tile < tl.Tiles(); tile++ {
			x0, x1, y0, y1 := tl.tileSpan(tile)
			for _, pt := range [][2]int{{x0, y0}, {x1, y0}, {x0, y1}, {x1, y1}} {
				if got := tl.TileIndex(pt[0], pt[1]); got != tile {
					t.Fatalf("TileIndex(%d,%d) = %d, want %d", pt[0], pt[1], got, tile)
				}
			}
		}
	})
}
