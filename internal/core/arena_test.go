package core

import (
	"context"
	"errors"
	"testing"

	"mlvlsi/internal/golden"
	"mlvlsi/internal/par"
)

// goldenPath holds the digests of the arenaSpecs layouts, recorded while the
// engine still had its allocating map path next to the arena path, both of
// which built these exact layouts.
const goldenPath = "testdata/golden_layouts.txt"

// arenaSpecs are the engine-level golden inputs: a hypercube (row and column
// channels, no bents) and a k-ary cube with dedicated bent channels, so every
// realization shape — eight-point straight paths and ten-point bent paths —
// is pinned.
var arenaSpecs = []struct {
	name string
	mk   func() Spec
}{
	{"hypercube/n=8/L=4", func() Spec { return HypercubeSpec(8, 4, 0) }},
	{"kary/k=4/n=3/L=4/bent=2", func() Spec {
		s := KAryNCubeSpec(4, 3, 4, false, 0)
		s.AddDedicatedBent(0, 0, 3, 3)
		s.AddDedicatedBent(1, 2, 2, 1)
		return s
	}},
}

// buildDigests builds every arenaSpecs layout, with the scratch scratch()
// returns (nil draws a pooled one), and returns name → digest.
func buildDigests(t *testing.T, scratch func() *BuildScratch) map[string]string {
	t.Helper()
	got := make(map[string]string)
	for _, a := range arenaSpecs {
		spec := a.mk()
		spec.Scratch = scratch()
		lay, err := Build(spec)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		got[a.name] = golden.Digest(lay)
	}
	return got
}

// TestGoldenSpecs owns testdata/golden_layouts.txt: default builds (nil
// Spec.Scratch) must reproduce every recorded digest. Run with -update to
// rewrite the file after an intended change to the engine's output.
func TestGoldenSpecs(t *testing.T) {
	got := buildDigests(t, func() *BuildScratch { return nil })
	if *golden.Update {
		golden.Write(t, goldenPath, "sha256 of each engine-level golden layout (see internal/golden)", got)
		return
	}
	golden.Compare(t, golden.Read(t, goldenPath), got)
}

// TestArenaMatchesLegacy pins builds on a caller-owned scratch to the
// goldens, and keeps them pinned across repeated builds on the same scratch,
// where slab reuse would expose any stale-state bug.
func TestArenaMatchesLegacy(t *testing.T) {
	want := golden.Read(t, goldenPath)
	sc := NewBuildScratch()
	for i := 0; i < 3; i++ {
		golden.Compare(t, want, buildDigests(t, func() *BuildScratch { return sc }))
	}
}

// TestTransientMatchesSafe checks the transient mode: a layout whose result
// slabs live inside the scratch must match its golden digest while it is
// live, i.e. until the next build on that scratch.
func TestTransientMatchesSafe(t *testing.T) {
	want := golden.Read(t, goldenPath)
	sc := NewBuildScratch()
	sc.SetTransient(true)
	for i := 0; i < 3; i++ {
		golden.Compare(t, want, buildDigests(t, func() *BuildScratch { return sc }))
	}
}

// abortingSpec returns the hypercube golden spec with its Label wrapped to
// call abort once the build is past label validation, i.e. while the
// build's scratch slabs are in use.
func abortingSpec(abort func()) Spec {
	spec := arenaSpecs[0].mk()
	label, cols, n := spec.Label, spec.Cols, spec.Rows*spec.Cols
	calls := 0
	spec.Label = func(r, c int) int {
		if calls++; calls > n+n/2 {
			abort()
		}
		if label == nil {
			return r*cols + c
		}
		return label(r, c)
	}
	return spec
}

// TestPooledScratchSurvivesAbortedBuilds aborts default builds midway, one
// canceled through Spec.Ctx and one whose Label closure panics, and checks
// that the pooled builds after them still match their goldens.
func TestPooledScratchSurvivesAbortedBuilds(t *testing.T) {
	want := golden.Read(t, goldenPath)
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		spec := abortingSpec(cancel)
		spec.Ctx = ctx
		if _, err := Build(spec); !errors.Is(err, par.ErrCanceled) {
			t.Fatalf("canceled build: error %v, want ErrCanceled", err)
		}
		cancel()
		var pe *par.Panic
		if _, err := Build(abortingSpec(func() { panic("label") })); !errors.As(err, &pe) {
			t.Fatalf("panicking build: error %v, want *par.Panic", err)
		}
		golden.Compare(t, want, buildDigests(t, func() *BuildScratch { return nil }))
	}
}

// TestBuildAllocsBudget pins the warm-scratch number: a build of the
// 1024-node hypercube on a reused caller-owned scratch must stay within 64
// allocations (the safe-mode result slices — layout, nodes, wires, one point
// slab — plus slack for incidental runtime allocations).
func TestBuildAllocsBudget(t *testing.T) {
	spec := HypercubeSpec(10, 4, 0)
	spec.Scratch = NewBuildScratch()
	spec.Workers = 1
	if _, err := Build(spec); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(10, func() {
		s := spec
		if _, err := Build(s); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per warm arena build: %v", n)
	if n > 64 {
		t.Fatalf("warm arena build costs %v allocs, budget is 64", n)
	}
}

func benchBuild(b *testing.B, scratch *BuildScratch) {
	b.Helper()
	spec := HypercubeSpec(10, 4, 0)
	spec.Scratch = scratch
	spec.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := spec
		if _, err := Build(s); err != nil {
			b.Fatal(err)
		}
	}
}

// The three scratch regimes on the same prebuilt spec: a pooled scratch
// (nil Spec.Scratch, the default), a caller-owned scratch in safe mode
// (fresh results), and one in transient mode (results inside the scratch).
// Run with -benchmem: the alloc column is the point.
func BenchmarkBuildPooled(b *testing.B)  { benchBuild(b, nil) }
func BenchmarkBuildScratch(b *testing.B) { benchBuild(b, NewBuildScratch()) }
func BenchmarkBuildTransient(b *testing.B) {
	sc := NewBuildScratch()
	sc.SetTransient(true)
	benchBuild(b, sc)
}
