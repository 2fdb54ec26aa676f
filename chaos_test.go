package mlvlsi

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"mlvlsi/internal/core"
	"mlvlsi/internal/fault"
	"mlvlsi/internal/grid"
)

// TestChaosSweepAllFamilies is the metamorphic chaos sweep: every registered
// family is built at its default parameters, corrupted with every fault
// class, and the verifier must flag each corruption with the map
// reference's violation set at every worker count and memory ceiling
// fault.SelfTest sweeps. A miss here means a verifier blind spot.
func TestChaosSweepAllFamilies(t *testing.T) {
	for _, fam := range Families() {
		lay, err := BuildFamily(FamilySpec{Name: fam.Name}, Options{})
		if err != nil {
			t.Fatalf("%s: build: %v", fam.Name, err)
		}
		if err := fault.SelfTest(lay, 1); err != nil {
			t.Errorf("%s: %v", fam.Name, err)
		}
	}
}

// TestChaosSweepTiledGeometries pins the three partition shapes the chaos
// sweep's ceilings induce: a single tile (the default per-tile budget
// comfortably holds a small layout), a proper multi-row multi-column grid (a
// tiny ceiling on the same layout), and a degenerate thin partition (a
// wide, flat mesh whose tiles clip the full height — the extreme-aspect-
// ratio stress collinear networks produce). Every fault class must be
// detected on every geometry with the violation set byte-identical to the
// map reference's, so seam clipping and border reconciliation cannot hide a
// corruption whatever shape the budget forces.
func TestChaosSweepTiledGeometries(t *testing.T) {
	square, err := Hypercube(6, Options{Layers: 4})
	if err != nil {
		t.Fatalf("hypercube build: %v", err)
	}
	thin, err := Mesh([]int{64, 2}, Options{})
	if err != nil {
		t.Fatalf("mesh build: %v", err)
	}
	cases := []struct {
		name      string
		lay       *Layout
		tileBytes int
		shape     func(tl grid.Tiling) bool
	}{
		{"one-tile", square, 0, func(tl grid.Tiling) bool { return tl.NX == 1 && tl.NY == 1 }},
		{"grid", square, 1 << 10, func(tl grid.Tiling) bool { return tl.NX >= 2 && tl.NY >= 2 }},
		{"thin", thin, 1 << 10, func(tl grid.Tiling) bool { return tl.NX >= 2 && tl.NY == 1 }},
	}
	for _, tc := range cases {
		if !slices.Contains(fault.SweepCeilings, tc.tileBytes) {
			t.Fatalf("%s: ceiling %d is not one fault.SelfTest sweeps", tc.name, tc.tileBytes)
		}
		for _, workers := range fault.SweepWorkers {
			tl, ok := grid.NewTiling(tc.lay.Wires, tc.tileBytes, workers)
			if !ok || !tc.shape(tl) {
				t.Fatalf("%s workers=%d: budget %d induced %dx%d tiles of %dx%d, not the intended geometry",
					tc.name, workers, tc.tileBytes, tl.NX, tl.NY, tl.TileW, tl.TileH)
			}
		}
	}
	for _, lay := range []*Layout{square, thin} {
		if err := fault.SelfTest(lay, 1); err != nil {
			t.Errorf("%s: %v", lay.Name, err)
		}
	}
}

// TestCancelAbortsBuildQuickly holds the build path to the robustness
// budget: once the context expires, Hypercube(12, L=4) — a 4096-node,
// 24576-wire build — must abort with the typed cancellation error well
// within 100ms.
func TestCancelAbortsBuildQuickly(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	lay, err := Hypercube(12, Options{Layers: 4, Context: ctx})
	elapsed := time.Since(start)
	if lay != nil {
		t.Error("canceled build still returned a layout")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v should wrap the context's own error", err)
	}
	if budget := time.Millisecond + 100*time.Millisecond; elapsed > budget {
		t.Errorf("canceled build took %v, want < %v", elapsed, budget)
	}
}

// TestCancelAbortsVerifyQuickly does the same for the verify path, whose
// uncancelled run on this layout takes seconds.
func TestCancelAbortsVerifyQuickly(t *testing.T) {
	lay, err := Hypercube(12, Options{Layers: 4})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	vs, err := VerifyLayout(lay, Options{Context: ctx})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled (got %d violations)", err, len(vs))
	}
	if budget := 5*time.Millisecond + 100*time.Millisecond; elapsed > budget {
		t.Errorf("canceled verify took %v, want < %v", elapsed, budget)
	}
	// A live context must behave exactly like the plain verifier.
	vs, err = VerifyLayout(lay, Options{Context: context.Background()})
	if err != nil || len(vs) != 0 {
		t.Errorf("live-context verify: err=%v violations=%d", err, len(vs))
	}
}

// TestBudgetAbortsOversizedBuilds checks the MaxCells fail-fast: a plan over
// budget returns a typed *BudgetError before realizing any wire, and a
// sufficient budget is transparent.
func TestBudgetAbortsOversizedBuilds(t *testing.T) {
	_, err := Hypercube(8, Options{MaxCells: 1000})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v (%T), want *BudgetError", err, err)
	}
	if be.Cells <= be.Budget || be.Budget != 1000 {
		t.Errorf("BudgetError fields: cells=%d budget=%d", be.Cells, be.Budget)
	}
	if !strings.Contains(err.Error(), "over the budget") {
		t.Errorf("BudgetError message: %q", err.Error())
	}
	lay, err := Hypercube(4, Options{MaxCells: 1 << 30})
	if err != nil || lay == nil {
		t.Fatalf("in-budget build failed: %v", err)
	}
	if vs, _ := VerifyLayout(lay, Options{}); len(vs) != 0 {
		t.Errorf("in-budget build has %d violations", len(vs))
	}
}

// TestBuildContainsPanics injects a panicking user closure into the build
// and requires it to surface as a *PanicError carrying the original panic
// value and stack — the process must neither crash nor hang.
func TestBuildContainsPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		spec := core.HypercubeSpec(6, 2, 0)
		spec.Workers = workers
		rows, cols := spec.Rows, spec.Cols
		spec.Label = func(r, c int) int {
			if r == rows-1 && c == cols-1 {
				panic("injected label fault")
			}
			return r*cols + c
		}
		lay, err := core.Build(spec)
		if lay != nil {
			t.Errorf("workers=%d: panicking build still returned a layout", workers)
		}
		var p *PanicError
		if !errors.As(err, &p) {
			t.Fatalf("workers=%d: err = %v (%T), want *PanicError", workers, err, err)
		}
		if p.Value != "injected label fault" {
			t.Errorf("workers=%d: panic value %v", workers, p.Value)
		}
		if len(p.Stack) == 0 {
			t.Errorf("workers=%d: original stack not captured", workers)
		}
	}
}

// TestDegradedSimulation exercises the fault-plan path of the simulator:
// dead nodes and links drop exactly the affected traffic while surviving
// messages reroute.
func TestDegradedSimulation(t *testing.T) {
	lay, err := Hypercube(4, Options{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	healthy := Simulate(lay, SimConfig{Pattern: BitComplement})
	if healthy.Dropped != 0 || healthy.Delivered != 16 {
		t.Fatalf("healthy run: %v", healthy)
	}

	// Node 0 dead: messages 0→15 and 15→0 drop at injection; the other 14
	// reroute around the missing links and still arrive.
	oneDead := Simulate(lay, SimConfig{Pattern: BitComplement,
		Faults: &SimFaultPlan{Nodes: []int{0}}})
	if oneDead.Dropped != 2 || oneDead.Delivered != 14 {
		t.Errorf("node-0-dead run: %v, want delivered=14 dropped=2", oneDead)
	}

	// Random faults: the same seed reproduces the same degraded result, and
	// the message count is conserved between delivered and dropped.
	cfg := SimConfig{Pattern: Permutation, Seed: 7,
		Faults: &SimFaultPlan{RandomNodes: 2, RandomLinks: 3, Seed: 9}}
	a, b := Simulate(lay, cfg), Simulate(lay, cfg)
	if a != b {
		t.Errorf("seeded degraded runs differ: %v vs %v", a, b)
	}
	base := Simulate(lay, SimConfig{Pattern: Permutation, Seed: 7})
	if a.Delivered+a.Dropped != base.Delivered {
		t.Errorf("messages not conserved: %d delivered + %d dropped vs %d healthy",
			a.Delivered, a.Dropped, base.Delivered)
	}
	if a.Dropped == 0 {
		t.Error("2 dead nodes dropped no traffic; fault plan had no effect")
	}

	// Isolating a node by killing its links strands en-route traffic on the
	// nh < 0 path rather than at injection.
	mesh, err := Mesh([]int{2, 2}, Options{})
	if err != nil {
		t.Fatalf("mesh: %v", err)
	}
	iso := Simulate(mesh, SimConfig{Pattern: BitComplement,
		Faults: &SimFaultPlan{Links: [][2]int{{0, 1}, {0, 2}}}})
	if iso.Dropped != 2 || iso.Delivered != 2 {
		t.Errorf("isolated-node run: %v, want delivered=2 dropped=2", iso)
	}
}

// TestOptionsValidateEdgeCases pins the hardened Options.validate: each
// rejected field comes back as a *ParamError naming that field.
func TestOptionsValidateEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		o     Options
		param string
	}{
		{"negative workers", Options{Workers: -1}, "Workers"},
		{"single layer", Options{Layers: 1}, "Layers"},
		{"negative layers", Options{Layers: -2}, "Layers"},
		{"huge node side", Options{NodeSide: 1<<20 + 1}, "NodeSide"},
		{"negative node side", Options{NodeSide: -1}, "NodeSide"},
		{"negative budget", Options{MaxCells: -1}, "MaxCells"},
	}
	for _, tc := range cases {
		lay, err := Hypercube(3, tc.o)
		if lay != nil {
			t.Errorf("%s: build succeeded", tc.name)
		}
		var pe *ParamError
		if !errors.As(err, &pe) {
			t.Errorf("%s: err = %v (%T), want *ParamError", tc.name, err, err)
			continue
		}
		if pe.Param != tc.param {
			t.Errorf("%s: ParamError names %q, want %q", tc.name, pe.Param, tc.param)
		}
		if !strings.Contains(err.Error(), tc.param) {
			t.Errorf("%s: message %q does not name the field", tc.name, err.Error())
		}
	}
	// The registry path shares the same validation.
	_, err := BuildFamily(FamilySpec{Name: "hypercube"}, Options{Layers: 1})
	var pe *ParamError
	if !errors.As(err, &pe) || pe.Param != "Layers" {
		t.Errorf("BuildFamily bypassed Options validation: %v", err)
	}
}

// TestContextFlowsThroughRegistry checks that Options.Context reaches every
// family's build path: a pre-canceled context must abort each default build.
func TestContextFlowsThroughRegistry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, fam := range Families() {
		lay, err := BuildFamily(FamilySpec{Name: fam.Name}, Options{Context: ctx})
		if lay != nil || !errors.Is(err, ErrCanceled) {
			t.Errorf("%s: pre-canceled build returned (%v, %v), want ErrCanceled", fam.Name, lay, err)
		}
	}
}

// TestPathWireContextCancellation covers the routing sweeps' ctx variants.
func TestPathWireContextCancellation(t *testing.T) {
	lay, err := Hypercube(6, Options{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MaxPathWireContext(ctx, lay, 0); !errors.Is(err, ErrCanceled) {
		t.Errorf("MaxPathWireContext: %v, want ErrCanceled", err)
	}
	if _, err := AveragePathWireContext(ctx, lay, 0); !errors.Is(err, ErrCanceled) {
		t.Errorf("AveragePathWireContext: %v, want ErrCanceled", err)
	}
	m, err := MaxPathWireContext(context.Background(), lay, 0)
	if err != nil || m != MaxPathWire(lay, 0) {
		t.Errorf("live-context MaxPathWire diverged: %d err=%v", m, err)
	}
}
