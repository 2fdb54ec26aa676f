package fault

import (
	"reflect"
	"sync"
	"testing"

	"mlvlsi/internal/core"
	"mlvlsi/internal/extra"
	"mlvlsi/internal/grid"
	"mlvlsi/internal/layout"
)

// Base layouts for the sweeps, built once. The 4-cube at L=3 exercises the
// odd-L track fallback; the folded 3-cube adds bent dedicated links.
var (
	baseOnce sync.Once
	bases    []*layout.Layout
)

func baseLayouts(t testing.TB) []*layout.Layout {
	t.Helper()
	baseOnce.Do(func() {
		cube, err := core.Hypercube(4, 3, 0, 1)
		if err != nil {
			t.Fatalf("Hypercube(4, L=3): %v", err)
		}
		folded, err := extra.FoldedHypercube(3, 2, 0, 1)
		if err != nil {
			t.Fatalf("FoldedHypercube(3, L=2): %v", err)
		}
		bases = []*layout.Layout{cube, folded}
	})
	if bases == nil {
		t.Fatal("base layouts failed to build in an earlier test")
	}
	return bases
}

func checkOpts(lay *layout.Layout) grid.CheckOptions {
	return grid.CheckOptions{Layers: lay.L, Discipline: true, Nodes: lay.Nodes}
}

func TestBaseLayoutsAreClean(t *testing.T) {
	for _, lay := range baseLayouts(t) {
		if vs, err := Differential(lay.Wires, checkOpts(lay)); err != nil || len(vs) != 0 {
			t.Fatalf("%s: base layout: %v, %d violations", lay.Name, err, len(vs))
		}
	}
}

func TestEveryClassDetectedByBothCheckers(t *testing.T) {
	for _, lay := range baseLayouts(t) {
		for _, c := range Classes() {
			for _, seed := range []uint64{0, 1, 42, 1 << 40} {
				inj := Injector{Seed: seed}
				bad, info, err := inj.Apply(lay, c)
				if err != nil {
					t.Fatalf("%s seed=%d on %s: %v", c, seed, lay.Name, err)
				}
				vs, err := Differential(bad.Wires, checkOpts(bad))
				if err != nil {
					t.Fatalf("%s seed=%d on %s (%s): %v", c, seed, lay.Name, info, err)
				}
				if !c.Detected(vs) {
					t.Errorf("%s seed=%d on %s: verifier missed %s (%d violations)",
						c, seed, lay.Name, info, len(vs))
				}
			}
		}
	}
}

func TestApplyDoesNotMutateInput(t *testing.T) {
	for _, lay := range baseLayouts(t) {
		before := snapshot(lay)
		for _, c := range Classes() {
			if _, _, err := (Injector{Seed: 7}).Apply(lay, c); err != nil {
				t.Fatalf("%s on %s: %v", c, lay.Name, err)
			}
			if !reflect.DeepEqual(before, snapshot(lay)) {
				t.Fatalf("%s mutated the input layout %s", c, lay.Name)
			}
		}
		if vs, _ := lay.VerifyOpts(nil, grid.CheckOptions{}); len(vs) != 0 {
			t.Fatalf("%s: input layout dirty after injections: %v", lay.Name, vs[0])
		}
	}
}

// snapshot captures the mutable parts of a layout for equality comparison.
func snapshot(l *layout.Layout) [][]grid.Point {
	out := make([][]grid.Point, len(l.Wires))
	for i, w := range l.Wires {
		out[i] = append([]grid.Point(nil), w.Path...)
	}
	return out
}

func TestApplyIsDeterministic(t *testing.T) {
	lay := baseLayouts(t)[0]
	for _, c := range Classes() {
		a, ia, err := (Injector{Seed: 99}).Apply(lay, c)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		b, ib, err := (Injector{Seed: 99}).Apply(lay, c)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if ia != ib {
			t.Errorf("%s: same seed gave different injections: %s vs %s", c, ia, ib)
		}
		if !reflect.DeepEqual(snapshot(a), snapshot(b)) {
			t.Errorf("%s: same seed gave different corrupted layouts", c)
		}
	}
}

func TestSeedsCorruptDifferentWires(t *testing.T) {
	lay := baseLayouts(t)[0]
	seen := make(map[int]bool)
	for seed := uint64(0); seed < 16; seed++ {
		_, info, err := (Injector{Seed: seed}).Apply(lay, Duplicate)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		seen[info.Other] = true
	}
	if len(seen) < 2 {
		t.Errorf("16 seeds all picked the same wire %v; selection is not seed-driven", seen)
	}
}

func TestSelfTest(t *testing.T) {
	for _, lay := range baseLayouts(t) {
		if err := SelfTest(lay, 5); err != nil {
			t.Errorf("SelfTest(%s): %v", lay.Name, err)
		}
	}
}

func TestClassStringsAndSignatures(t *testing.T) {
	names := make(map[string]bool)
	for _, c := range Classes() {
		s := c.String()
		if s == "" || names[s] {
			t.Errorf("class %d: bad or duplicate name %q", int(c), s)
		}
		names[s] = true
		if len(c.Signatures()) == 0 {
			t.Errorf("%s: no violation signatures", c)
		}
	}
	if got := Class(99).String(); got != "class(99)" {
		t.Errorf("unknown class String() = %q", got)
	}
	if Class(99).Signatures() != nil {
		t.Error("unknown class should have nil signatures")
	}
}

// FuzzCheckDifferential is the differential oracle on randomly corrupted
// layouts: grid.Verify must return the map reference's violation set byte
// for byte at every sweep worker count and memory ceiling — one tile, many
// tiles with claims crossing every seam — and the set must be non-empty.
func FuzzCheckDifferential(f *testing.F) {
	f.Add(uint64(0), byte(0))
	f.Add(uint64(1), byte(3))
	f.Add(uint64(12345), byte(6))
	f.Add(uint64(1<<63), byte(255))
	f.Fuzz(func(t *testing.T, seed uint64, sel byte) {
		layouts := baseLayouts(t)
		lay := layouts[int(sel>>4)%len(layouts)]
		c := Class(int(sel) % int(numClasses))
		bad, info, err := (Injector{Seed: seed}).Apply(lay, c)
		if err != nil {
			t.Skip()
		}
		vs, err := Differential(bad.Wires, checkOpts(bad))
		if err != nil {
			t.Fatalf("%s (%s): %v", c, info, err)
		}
		if len(vs) == 0 {
			t.Fatalf("%s: verifier found nothing (%s)", c, info)
		}
	})
}
