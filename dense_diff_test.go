package mlvlsi

import (
	"fmt"
	"testing"

	"mlvlsi/internal/fault"
	"mlvlsi/internal/grid"
	"mlvlsi/internal/obs"
)

// TestDenseMapDifferentialAllFamilies is the occupancy differential sweep:
// for every registered family — legal as built, and corrupted with every
// fault class — grid.Verify must return the map reference's violation set
// byte for byte at every worker count and memory ceiling fault.Differential
// sweeps (one tile, many tiles with conflicts crossing seams, a roomy
// ceiling), and every corruption must be detected. Together with the chaos
// sweep this pins the tile walk to the reference edge for edge.
func TestDenseMapDifferentialAllFamilies(t *testing.T) {
	for _, fam := range Families() {
		lay, err := BuildFamily(FamilySpec{Name: fam.Name}, Options{})
		if err != nil {
			t.Fatalf("%s: build: %v", fam.Name, err)
		}
		opts := grid.CheckOptions{Layers: lay.L, Discipline: true, Nodes: lay.Nodes}
		if vs, err := fault.Differential(lay.Wires, opts); err != nil || len(vs) != 0 {
			t.Errorf("%s/legal: %v, %d violations", fam.Name, err, len(vs))
		}
		for _, c := range fault.Classes() {
			bad, info, err := (fault.Injector{Seed: 11}).Apply(lay, c)
			if err != nil {
				t.Fatalf("%s: inject %s: %v", fam.Name, c, err)
			}
			name := fam.Name + "/" + c.String()
			vs, err := fault.Differential(bad.Wires, grid.CheckOptions{Layers: bad.L, Discipline: true, Nodes: bad.Nodes})
			if err != nil {
				t.Errorf("%s (%s): %v", name, info, err)
			} else if !c.Detected(vs) {
				t.Errorf("%s: verifier missed the corruption (%s)", name, info)
			}
		}
	}
}

// TestNoRegistryFamilyReachesMapRung pins that the map reference is a
// fallback for geometry no layout engine produces: every registered family
// at L = 2, 3, 4 and 8 — with folded rows and folded to L from its 2-layer
// layout wherever the family allows it — verifies on the tiled engine with
// sparse_checks at zero, with and without a small memory ceiling. A
// hand-built wire set spread 2^40 columns apart does reach the map rung,
// and still returns the reference's violations.
func TestNoRegistryFamilyReachesMapRung(t *testing.T) {
	verify := func(name string, lay *Layout, folded bool) {
		t.Helper()
		for _, ceiling := range []int{0, 1 << 10} {
			o := NewObserver()
			opt := Options{VerifyMemBytes: ceiling, Observer: o}
			var vs []Violation
			var err error
			if folded {
				vs, err = VerifyFoldedViolations(lay, opt)
			} else {
				vs, err = VerifyLayout(lay, opt)
			}
			if err != nil || len(vs) != 0 {
				t.Errorf("%s ceiling=%d: %v, %d violations", name, ceiling, err, len(vs))
			}
			m := o.Snapshot()
			if m.Get(CounterTiledChecks) != 1 || m.Get(CounterSparseChecks) != 0 {
				t.Errorf("%s ceiling=%d: tiled_checks = %d, sparse_checks = %d; want 1 and 0",
					name, ceiling, m.Get(CounterTiledChecks), m.Get(CounterSparseChecks))
			}
		}
	}
	for _, fam := range Families() {
		var flat *Layout
		for _, l := range []int{2, 3, 4, 8} {
			for _, foldedRows := range []bool{false, true} {
				lay, err := BuildFamily(FamilySpec{Name: fam.Name}, Options{Layers: l, FoldedRows: foldedRows})
				if err != nil {
					t.Fatalf("%s L=%d folded_rows=%v: build: %v", fam.Name, l, foldedRows, err)
				}
				verify(fmt.Sprintf("%s L=%d folded_rows=%v", fam.Name, l, foldedRows), lay, false)
				if l == 2 && !foldedRows {
					flat = lay
				}
			}
			if l == 2 {
				continue
			}
			if folded, err := Fold(flat, l); err == nil {
				verify(fmt.Sprintf("%s folded to L=%d", fam.Name, l), folded, true)
			}
		}
	}

	const far = 1 << 40
	wires := []grid.Wire{
		{ID: 0, U: -1, V: -1, Path: []grid.Point{{X: 0, Y: 0, Z: 1}, {X: 4, Y: 0, Z: 1}}},
		{ID: 1, U: -1, V: -1, Path: []grid.Point{{X: 2, Y: 0, Z: 1}, {X: 3, Y: 0, Z: 1}}},
		{ID: 2, U: -1, V: -1, Path: []grid.Point{{X: far, Y: 0, Z: 1}, {X: far, Y: 0, Z: 2}}},
	}
	opts := grid.CheckOptions{Layers: 2, Discipline: true}
	vs, err := fault.Differential(wires, opts)
	if err != nil || len(vs) != 1 || vs[0].Code != grid.ReasonSharedEdge {
		t.Fatalf("far-apart wires: %v, violations %v; want one shared edge", err, vs)
	}
	ob := obs.New()
	opts.Observer = ob
	if _, err := grid.Verify(nil, wires, opts); err != nil {
		t.Fatal(err)
	}
	if got := ob.Snapshot().Get(obs.SparseChecks); got != 1 {
		t.Fatalf("far-apart wires: sparse_checks = %d, want the map rung", got)
	}
}
