package analyze

import (
	"flag"
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden expect.txt files under testdata")

// formatReport renders a report in the golden-file shape: active findings
// first, then suppressed ones prefixed "suppressed:", both already in the
// framework's canonical order.
func formatReport(rep Report) string {
	var b strings.Builder
	for _, f := range rep.Findings {
		fmt.Fprintf(&b, "%s:%d: %s: %s\n", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
	}
	for _, f := range rep.Suppressed {
		fmt.Fprintf(&b, "suppressed: %s:%d: %s: %s\n", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
	}
	return b.String()
}

// loadFixture loads one testdata module, failing the test on loader or
// type-check errors (fixtures must compile: a broken fixture would silently
// weaken every assertion made against it).
func loadFixture(t *testing.T, dir string) *Module {
	t.Helper()
	m, err := Load(dir)
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	for _, pkg := range m.Packages {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("fixture type error in %s: %v", pkg.ImportPath, terr)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	return m
}

// TestGolden runs the full analyzer set over every fixture module under
// testdata and compares the diagnostics against the fixture's expect.txt.
// Each fixture contains both flagging and non-flagging cases, so a pass
// asserts presence and absence at once. Run with -update to regenerate.
func TestGolden(t *testing.T) {
	ents, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", name)
			rep := Run(loadFixture(t, dir), Analyzers())
			got := formatReport(rep)
			golden := filepath.Join(dir, "expect.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch for %s\n--- got ---\n%s--- want ---\n%s", name, got, want)
			}
		})
	}
}

// TestGoldenFixturesFlagAndPass asserts the structural property the issue
// demands of every analyzer: at least one fixture finding and at least one
// clean (non-flagging) declaration per analyzer. A fixture edit that
// accidentally empties one side fails here even if the golden file was
// regenerated.
func TestGoldenFixturesFlagAndPass(t *testing.T) {
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			dir := fixtureFor(a.Name)
			rep := Run(loadFixture(t, filepath.Join("testdata", dir)), []*Analyzer{a})
			if len(rep.Findings) == 0 {
				t.Errorf("analyzer %s flags nothing in its fixture", a.Name)
			}
			// The fixtures document their clean cases with "not flagged";
			// golden agreement (TestGolden) proves they stay clean.
			if !strings.Contains(readFixtureSource(t, dir), "not flagged") {
				t.Errorf("fixture %s declares no non-flagging case", dir)
			}
		})
	}
}

// fixtureFor maps an analyzer name to its dedicated fixture directory.
func fixtureFor(analyzer string) string {
	if analyzer == "mapdeterminism" {
		return "mapdet"
	}
	return analyzer
}

// readFixtureSource concatenates every .go file of a fixture.
func readFixtureSource(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	root := filepath.Join("testdata", dir)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			b.Write(data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestModuleClean is the acceptance gate: the repo's own tree must lint
// clean (no active findings; declared exceptions are allowed and must stay
// few). This is the same check `make lint` and CI run via cmd/repolint.
func TestModuleClean(t *testing.T) {
	m, err := Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range m.Packages {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("type error in %s: %v", pkg.ImportPath, terr)
		}
	}
	rep := Run(m, Analyzers())
	for _, f := range rep.Findings {
		t.Errorf("active finding: %s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
	}
	if n := len(rep.Suppressed); n > 3 {
		t.Errorf("suppression creep: %d //mlvlsi:allow exceptions (want <= 3); stop and fix instead of waiving", n)
	}
}

// TestModuleCoversHotpaths pins the load-bearing annotations: the tile
// walk, its binning pass and their feeders must carry the hotpath directive
// so the 0-alloc invariant stays enforced, not aspirational. Each entry is
// "package-path-suffix funcname".
func TestModuleCoversHotpaths(t *testing.T) {
	m, err := Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"internal/grid measure":       false, // Wires.measure
		"internal/grid UnitEdges":     false, // Wire.UnitEdges
		"internal/grid edgeViolation": false,
		"internal/grid walkTile":      false,
		"internal/grid tileEdges":     false,
		"internal/grid binWires":      false,
		"internal/grid index":         false, // occIndexer.index
		"internal/grid occGet":        false,
		"internal/core lookup":        false, // trackTable.lookup
		"internal/core port":          false, // portTable.port
		"internal/core realize":       false, // realizeCtx.realize
	}
	for _, pkg := range m.Packages {
		i := strings.LastIndex(pkg.ImportPath, "internal/")
		if i < 0 {
			continue
		}
		suffix := pkg.ImportPath[i:]
		eachFunc(pkg, func(_ *ast.File, fd *ast.FuncDecl) {
			key := suffix + " " + fd.Name.Name
			if _, tracked := want[key]; tracked && isHotpath(fd) {
				want[key] = true
			}
		})
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !want[name] {
			t.Errorf("hot function %q has lost its //mlvlsi:hotpath directive", name)
		}
	}
}

// TestByName checks analyzer lookup.
func TestByName(t *testing.T) {
	for _, a := range Analyzers() {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the analyzer", a.Name)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName(nope) should be nil")
	}
}
