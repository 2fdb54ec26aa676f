package mlvlsi

import (
	"fmt"
	"sync"
	"testing"

	"mlvlsi/internal/golden"
)

// goldenPath holds the digest of every registry family at its default
// parameters for each L in goldenLayers, with folded rows off and on. The
// digests were recorded while the engine still had its allocating map path
// next to the arena path, both of which built these exact layouts; any later
// change to what the engine builds shows up here as a digest diff.
const goldenPath = "testdata/golden_layouts.txt"

var goldenLayers = []int{2, 3, 4, 8}

func goldenKey(family string, layers int, folded bool) string {
	return fmt.Sprintf("%s/L=%d/folded=%t", family, layers, folded)
}

// buildGoldens builds every golden layout under o (Layers and FoldedRows are
// overridden per key) and returns key → digest.
func buildGoldens(o Options) (map[string]string, error) {
	got := make(map[string]string)
	for _, fam := range Families() {
		for _, l := range goldenLayers {
			for _, folded := range []bool{false, true} {
				o.Layers, o.FoldedRows = l, folded
				lay, err := BuildFamily(FamilySpec{Name: fam.Name}, o)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", goldenKey(fam.Name, l, folded), err)
				}
				got[goldenKey(fam.Name, l, folded)] = golden.Digest(lay)
			}
		}
	}
	return got, nil
}

// TestGoldenLayouts owns testdata/golden_layouts.txt: default builds (nil
// Options.Scratch) must reproduce every recorded digest. Run with -update to
// rewrite the file after an intended change to the engine's output.
func TestGoldenLayouts(t *testing.T) {
	got, err := buildGoldens(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if *golden.Update {
		golden.Write(t, goldenPath, "sha256 of each registry family's default layout (see internal/golden)\nkey: family/L=layers/folded=FoldedRows", got)
		return
	}
	golden.Compare(t, golden.Read(t, goldenPath), got)
}

// TestPooledBuildsConcurrent runs default builds of every golden layout from
// eight goroutines at once, all drawing pooled scratches, and checks each
// result against its golden digest. Under -race it also proves that pooled
// scratches are never shared by two builds.
func TestPooledBuildsConcurrent(t *testing.T) {
	want := golden.Read(t, goldenPath)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := buildGoldens(Options{Workers: 2})
			if err != nil {
				t.Error(err)
				return
			}
			golden.Compare(t, want, got)
		}()
	}
	wg.Wait()
}

// TestPooledLayoutOwnsItsMemory checks the ownership rule for pooled
// scratches: a layout from a default build aliases nothing in the pool, so
// later builds, which reuse the same pooled slabs, leave it unchanged.
func TestPooledLayoutOwnsItsMemory(t *testing.T) {
	want := golden.Read(t, goldenPath)
	lay, err := BuildFamily(FamilySpec{Name: "hypercube"}, Options{Layers: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := golden.Digest(lay)
	fams := Families()
	for i := 0; i < 10; i++ {
		if _, err := BuildFamily(FamilySpec{Name: fams[i%len(fams)].Name}, Options{Layers: 4}); err != nil {
			t.Fatal(err)
		}
	}
	after := golden.Digest(lay)
	if before != after {
		t.Fatalf("layout changed after 10 more builds: digest %s, then %s", before, after)
	}
	if k := goldenKey("hypercube", 4, false); after != want[k] {
		t.Fatalf("%s: digest %s, golden %s", k, after, want[k])
	}
}

// TestPooledBuildAllocs is the allocation gate for default builds: a
// Hypercube(10) at L=4 with no caller scratch, spec assembly included, stays
// within 100 allocations (the allocating map path it replaced took about
// 20k). Builds after a GC has emptied the pool pay for a fresh scratch's
// slab growth, about two dozen more, and still fit.
func TestPooledBuildAllocs(t *testing.T) {
	fs := FamilySpec{Name: "hypercube", Params: map[string]int{"n": 10}}
	o := Options{Layers: 4, Workers: 1}
	n := testing.AllocsPerRun(10, func() {
		if _, err := BuildFamily(fs, o); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per default Hypercube(10) build: %v", n)
	if n > 100 {
		t.Fatalf("default build costs %v allocs, budget is 100", n)
	}
}
