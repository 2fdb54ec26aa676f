package mlvlsi_test

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mlvlsi"
	"mlvlsi/internal/fault"
	"mlvlsi/internal/grid"
	"mlvlsi/internal/route"
)

func TestFamiliesSortedAndDocumented(t *testing.T) {
	fams := mlvlsi.Families()
	if len(fams) < 15 {
		t.Fatalf("only %d families registered", len(fams))
	}
	if !sort.SliceIsSorted(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name }) {
		t.Error("Families() not sorted by name")
	}
	for _, f := range fams {
		if f.Doc == "" {
			t.Errorf("family %s has no doc", f.Name)
		}
		if len(f.Params) == 0 {
			t.Errorf("family %s has no parameters", f.Name)
		}
		for _, p := range f.Params {
			if p.Default < p.Min || p.Default > p.Max {
				t.Errorf("family %s param %s: default %d outside [%d, %d]",
					f.Name, p.Name, p.Default, p.Min, p.Max)
			}
		}
	}
}

// TestRegistryParallelMatchesSerial is the acceptance property of the
// parallel engine: for every registered family at its (small) default size,
// the layout built with 4 workers is byte-identical to the serial build,
// it verifies legal with Verify matching the map reference at every worker
// count and ceiling, and MaxPathWire is worker-count-invariant.
func TestRegistryParallelMatchesSerial(t *testing.T) {
	for _, f := range mlvlsi.Families() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			spec := mlvlsi.FamilySpec{Name: f.Name}
			serialLay, err := mlvlsi.BuildFamily(spec, mlvlsi.Options{Workers: 1})
			if err != nil {
				t.Fatalf("serial build: %v", err)
			}
			parLay, err := mlvlsi.BuildFamily(spec, mlvlsi.Options{Workers: 4})
			if err != nil {
				t.Fatalf("parallel build: %v", err)
			}
			if !reflect.DeepEqual(serialLay.Wires, parLay.Wires) {
				t.Fatal("parallel build realized different wires than serial")
			}
			opts := grid.CheckOptions{Layers: serialLay.L, Discipline: true, Nodes: serialLay.Nodes}
			if vs, err := fault.Differential(serialLay.Wires, opts); err != nil || len(vs) > 0 {
				t.Fatalf("layout is illegal: %v, violations %v", err, vs)
			}
			w1 := route.MaxPathWire(serialLay, 8, 1)
			for _, workers := range []int{2, 4} {
				if w := route.MaxPathWire(serialLay, 8, workers); w != w1 {
					t.Errorf("MaxPathWire(workers=%d) = %d, serial = %d", workers, w, w1)
				}
			}
		})
	}
}

func TestBuildFamilyRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		spec mlvlsi.FamilySpec
		o    mlvlsi.Options
		want string // substring of the ParamError
	}{
		{"unknown family", mlvlsi.FamilySpec{Name: "escher"}, mlvlsi.Options{}, "not a registered family"},
		{"unknown param", mlvlsi.FamilySpec{Name: "hypercube", Params: map[string]int{"q": 3}}, mlvlsi.Options{}, "not a parameter"},
		{"out of range", mlvlsi.FamilySpec{Name: "star", Params: map[string]int{"n": 9}}, mlvlsi.Options{}, "outside range"},
		{"below range", mlvlsi.FamilySpec{Name: "ccc", Params: map[string]int{"n": 1}}, mlvlsi.Options{}, "outside range"},
		{"not power of two", mlvlsi.FamilySpec{Name: "rh", Params: map[string]int{"n": 6}}, mlvlsi.Options{}, "power of two"},
		{"negative layers", mlvlsi.FamilySpec{Name: "hypercube"}, mlvlsi.Options{Layers: -1}, "Layers"},
		{"negative node side", mlvlsi.FamilySpec{Name: "hypercube"}, mlvlsi.Options{NodeSide: -3}, "NodeSide"},
		{"negative workers", mlvlsi.FamilySpec{Name: "hypercube"}, mlvlsi.Options{Workers: -2}, "Workers"},
	}
	for _, c := range cases {
		lay, err := mlvlsi.BuildFamily(c.spec, c.o)
		if err == nil {
			t.Errorf("%s: no error (built %v)", c.name, lay.Name)
			continue
		}
		var pe *mlvlsi.ParamError
		if !errors.As(err, &pe) {
			t.Errorf("%s: error %T is not *ParamError: %v", c.name, err, err)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.want)
		}
	}
}

func TestConstructorsValidateOptions(t *testing.T) {
	var pe *mlvlsi.ParamError
	if _, err := mlvlsi.Hypercube(4, mlvlsi.Options{Layers: -2}); !errors.As(err, &pe) {
		t.Errorf("Hypercube accepted Layers=-2: %v", err)
	}
	if _, err := mlvlsi.Mesh([]int{3, 3}, mlvlsi.Options{Workers: -1}); !errors.As(err, &pe) {
		t.Errorf("Mesh accepted Workers=-1: %v", err)
	}
	if _, err := mlvlsi.Product("p", mlvlsi.Ring(4), mlvlsi.Ring(4), mlvlsi.Options{NodeSide: -1}); !errors.As(err, &pe) {
		t.Errorf("Product accepted NodeSide=-1: %v", err)
	}
}

func TestBuildFamilyDefaultsMatchConstructors(t *testing.T) {
	// The thin wrappers and the registry must produce identical layouts.
	viaRegistry, err := mlvlsi.BuildFamily(
		mlvlsi.FamilySpec{Name: "hsn", Params: map[string]int{"levels": 3, "r": 3}},
		mlvlsi.Options{Layers: 4})
	if err != nil {
		t.Fatal(err)
	}
	viaWrapper, err := mlvlsi.HSN(3, 3, mlvlsi.Options{Layers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(viaRegistry.Wires, viaWrapper.Wires) {
		t.Error("registry and constructor builds differ")
	}
}

func TestVerifyFoldedReportsAllViolations(t *testing.T) {
	lay, err := mlvlsi.Hypercube(4, mlvlsi.Options{Layers: 2})
	if err != nil {
		t.Fatal(err)
	}
	folded, err := mlvlsi.Fold(lay, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := mlvlsi.VerifyFolded(folded); err != nil {
		t.Fatalf("legal folded layout rejected: %v", err)
	}
	// Corrupt the layout with two independent overlaps; the error must
	// report both, not just the first.
	corrupted := *folded
	corrupted.Wires = append(append([]grid.Wire(nil), folded.Wires...),
		grid.Wire{ID: len(folded.Wires), U: -1, V: -1, Path: append([]grid.Point(nil), folded.Wires[0].Path...)},
		grid.Wire{ID: len(folded.Wires) + 1, U: -1, V: -1, Path: append([]grid.Point(nil), folded.Wires[1].Path...)},
	)
	err = mlvlsi.VerifyFolded(&corrupted)
	if err == nil {
		t.Fatal("corrupted layout passed VerifyFolded")
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("error %T does not unwrap to multiple violations", err)
	}
	if n := len(joined.Unwrap()); n < 2 {
		t.Errorf("VerifyFolded joined %d violations, want >= 2", n)
	}
}
