package mlvlsi

import (
	"reflect"
	"testing"

	"mlvlsi/internal/fault"
)

// TestArenaDifferentialAllFamilies is the acceptance differential for the
// arena build path: for every registered family at its default parameters,
// the layout built through a shared scratch must be deep-equal to the legacy
// map-path layout — wires, nodes, stats, memory footprint. One scratch
// serves all families in sequence, so slabs sized by one topology are reused
// (and re-sliced) by the next; any stale-state or under-reset bug shows up
// as a diff. The content key needs no separate assertion: Key is derived
// from the request, never from the built bytes, so equal requests share a
// key by construction and this test proves the bytes behind that key match.
func TestArenaDifferentialAllFamilies(t *testing.T) {
	scratch := NewBuildScratch()
	for _, fam := range Families() {
		want, err := BuildFamily(FamilySpec{Name: fam.Name}, Options{})
		if err != nil {
			t.Fatalf("%s: legacy build: %v", fam.Name, err)
		}
		got, err := BuildFamily(FamilySpec{Name: fam.Name}, Options{Scratch: scratch})
		if err != nil {
			t.Fatalf("%s: arena build: %v", fam.Name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: arena layout differs from legacy", fam.Name)
		}
		if want.Stats() != got.Stats() {
			t.Errorf("%s: stats differ: legacy %v, arena %v", fam.Name, want.Stats(), got.Stats())
		}
		if want.MemBytes() != got.MemBytes() {
			t.Errorf("%s: mem bytes differ: legacy %d, arena %d", fam.Name, want.MemBytes(), got.MemBytes())
		}
	}
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
