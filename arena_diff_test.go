package mlvlsi

import (
	"testing"

	"mlvlsi/internal/fault"
	"mlvlsi/internal/golden"
)

// TestArenaDifferentialAllFamilies is the acceptance differential for
// caller-owned scratches: every golden layout built through one shared
// scratch must match its recorded digest. The scratch serves all families in
// sequence, so slabs sized by one topology are reused (and re-sliced) by the
// next; any stale-state or under-reset bug shows up as a digest diff. The
// content key needs no separate assertion: Key is derived from the request,
// never from the built bytes, so equal requests share a key by construction
// and this test proves the bytes behind that key match.
func TestArenaDifferentialAllFamilies(t *testing.T) {
	got, err := buildGoldens(Options{Scratch: NewBuildScratch()})
	if err != nil {
		t.Fatal(err)
	}
	golden.Compare(t, golden.Read(t, goldenPath), got)
}

// TestChaosSweepArenaBuilt repeats the metamorphic chaos sweep on
// arena-built layouts: every fault class injected into every family's
// scratch-built layout must still be flagged by both verifier paths. This
// pins that the arena path changes where layout bytes come from, not what
// the verifiers can see in them.
func TestChaosSweepArenaBuilt(t *testing.T) {
	scratch := NewBuildScratch()
	for _, fam := range Families() {
		lay, err := BuildFamily(FamilySpec{Name: fam.Name}, Options{Scratch: scratch})
		if err != nil {
			t.Fatalf("%s: build: %v", fam.Name, err)
		}
		if err := fault.SelfTest(lay, 1); err != nil {
			t.Errorf("%s: %v", fam.Name, err)
		}
	}
}
