package mlvlsi

import (
	"context"
	"errors"
	"fmt"

	"mlvlsi/internal/cluster"
	"mlvlsi/internal/core"
	"mlvlsi/internal/extra"
	"mlvlsi/internal/fold"
	"mlvlsi/internal/generic"
	"mlvlsi/internal/grid"
	"mlvlsi/internal/layout"
	"mlvlsi/internal/par"
	"mlvlsi/internal/render"
	"mlvlsi/internal/route"
	"mlvlsi/internal/sim"
	"mlvlsi/internal/stack"
	"mlvlsi/internal/topology"
	"mlvlsi/internal/track"
)

// Layout is a realized multilayer layout: node rectangles on the active
// layer plus edge-disjoint rectilinear wire paths across L wiring layers.
type Layout = layout.Layout

// Stats bundles a layout's cost measures (area, volume, max wire length…).
type Stats = layout.Stats

// Collinear is a one-dimensional (single-row) layout: the building block of
// the orthogonal scheme. See the Ring/CompleteGraph/HypercubeCollinear
// constructors and Product combinator.
type Collinear = track.Collinear

// Options configures layout construction.
type Options struct {
	// Layers is the number of wiring layers L (>= 2). Zero defaults to 2,
	// the Thompson model. Odd L is legal: the engines split each channel's
	// tracks across ⌈L/2⌉ x-layers and ⌊L/2⌋ y-layers (§2.1's direction
	// discipline), so the odd layer goes to the x direction and area
	// improves by the ⌈L/2⌉ factor rather than L/2.
	Layers int
	// NodeSide fixes the node square side; zero picks the smallest side
	// that fits the node's ports (the paper's minimal node).
	NodeSide int
	// FoldedRows lays k-ary n-cube rows and columns in folded (interleaved)
	// order, cutting the maximum wire length to O(N/(Lk²)) (§3.1).
	FoldedRows bool
	// Workers bounds the fan-out of the parallel build and verify paths:
	// 0 means GOMAXPROCS, 1 forces serial execution. Requests beyond the
	// machine's capacity degrade gracefully to GOMAXPROCS. The constructed
	// layout and all verification results are identical for every value.
	Workers int
	// Context, when non-nil, cancels construction cooperatively: the build
	// checks it between phases and every few wires during realization, and
	// returns an error wrapping ErrCanceled once it is done. Nil means no
	// cancellation.
	Context context.Context
	// MaxCells, when positive, bounds the realized grid volume
	// (width+1)·(height+1)·(L+1); a layout that would exceed it fails fast
	// with a *BudgetError before any wire is realized. Zero means no budget.
	MaxCells int
	// VerifyMemBytes, when positive, caps the verifier's occupancy working
	// set (used by VerifyLayout and VerifyFoldedViolations) at that many
	// bytes across all workers. The verifier partitions the layout's
	// bounding box into tiles whose pooled bitsets fit a 1 MiB per-tile
	// budget, streams wires through the tiles they cross, and reconciles
	// tile-border edges in a final pass; a positive ceiling lowers the
	// per-tile budget to VerifyMemBytes/Workers. Zero or a negative value
	// (the default) applies no ceiling. Violation sets are identical for
	// every value; only memory and speed differ. See
	// grid.CheckOptions.TileBytes.
	VerifyMemBytes int
	// Observer, when non-nil, receives hierarchical spans over the build
	// and verify phases (placement, routing, realization, verify and their
	// sub-steps) plus typed counters, fanned out to the sinks it was
	// created with — see NewObserver, NewTraceSink, and NewMetricsSink.
	// Nil (the default) disables observation at zero cost: the hot paths
	// stay allocation-free and no instrumentation work happens. The
	// constructed layouts and all verification results are identical with
	// and without an observer.
	Observer *Observer
	// Scratch, when non-nil, is a caller-owned arena the build draws its
	// per-phase allocations from, kept warm across the caller's builds and
	// reported in the scratch counters. Nil — the default — borrows a pooled
	// scratch for the length of the build; the layout is the same either
	// way. The constructed layout aliases nothing in the scratch, so the
	// scratch may be reused for the next build immediately — but never by
	// two builds concurrently. See NewBuildScratch and DESIGN.md §9 for the
	// ownership contract.
	Scratch *BuildScratch
}

// maxNodeSide bounds Options.NodeSide: a node square beyond 2^20 grid units
// per side overflows the area accounting long before any realistic use.
const maxNodeSide = 1 << 20

func (o Options) layers() int {
	if o.Layers == 0 {
		return 2
	}
	return o.Layers
}

// validate rejects out-of-range Options fields with a *ParamError. All
// constructors and BuildFamily call it before building.
func (o Options) validate() error {
	if o.Layers < 0 {
		return &ParamError{Param: "Layers", Value: o.Layers, Reason: "must be >= 0 (0 defaults to 2)"}
	}
	if o.Layers == 1 {
		return &ParamError{Param: "Layers", Value: o.Layers, Reason: "must be 0 or >= 2: one wiring layer cannot carry both x- and y-runs under the direction discipline"}
	}
	if o.NodeSide < 0 {
		return &ParamError{Param: "NodeSide", Value: o.NodeSide, Reason: "must be >= 0 (0 picks the minimal node)"}
	}
	if o.NodeSide > maxNodeSide {
		return &ParamError{Param: "NodeSide", Value: o.NodeSide, Reason: "exceeds the 2^20 grid-unit ceiling"}
	}
	if o.Workers < 0 {
		return &ParamError{Param: "Workers", Value: o.Workers, Reason: "must be >= 0 (0 means GOMAXPROCS)"}
	}
	if o.MaxCells < 0 {
		return &ParamError{Param: "MaxCells", Value: o.MaxCells, Reason: "must be >= 0 (0 means no budget)"}
	}
	return nil
}

// buildSpec applies the cross-cutting Options (Workers, Context, MaxCells,
// Observer) to an assembled engine spec and realizes it.
func (o Options) buildSpec(spec core.Spec) (*Layout, error) {
	spec.Workers = o.Workers
	spec.Ctx = o.Context
	spec.MaxCells = o.MaxCells
	spec.Obs = o.Observer
	spec.Scratch = o.Scratch.inner()
	return core.Build(spec)
}

// buildCluster does the same for PN-cluster configurations.
func (o Options) buildCluster(cfg cluster.Config) (*Layout, error) {
	cfg.Workers = o.Workers
	cfg.Ctx = o.Context
	cfg.MaxCells = o.MaxCells
	cfg.Obs = o.Observer
	cfg.Scratch = o.Scratch.inner()
	return cluster.Build(cfg)
}

// Violation is one legality failure reported by the verifier: the offending
// wire, the location, and a typed reason code (Violation.Reason formats the
// human-readable cause; Violation.Error the full message).
type Violation = grid.Violation

// VerifyLayout verifies lay under the cross-cutting Options knobs: Workers
// bounds the fan-out, Context cancels cooperatively, VerifyMemBytes caps
// the occupancy working set, and Observer (when non-nil) receives a
// "verify" span plus the verifier counters. A nil violation slice with a
// nil error means the layout is legal; the violation set is identical for
// every Options value.
func VerifyLayout(lay *Layout, o Options) ([]Violation, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	return lay.VerifyOpts(o.Context, grid.CheckOptions{Workers: o.Workers, TileBytes: o.VerifyMemBytes, Observer: o.Observer})
}

// Robustness errors surfaced by the build and verify paths.

// ErrCanceled is wrapped by every error returned because an
// Options.Context (or a ctx passed to a *Context function) was done;
// errors.Is(err, ErrCanceled) and errors.Is(err, ctx.Err()) both hold.
var ErrCanceled = par.ErrCanceled

// BudgetError reports a layout whose grid volume exceeds Options.MaxCells.
type BudgetError = layout.BudgetError

// PanicError wraps a panic captured in a parallel build or verify worker:
// the panic is contained and surfaced as an error on the calling goroutine
// with the worker's original stack trace.
type PanicError = par.Panic

// KAryNCube lays out a k-ary n-cube (torus) under the multilayer model
// (§3.1).
func KAryNCube(k, n int, o Options) (*Layout, error) {
	return BuildFamily(FamilySpec{Name: "kary", Params: map[string]int{"k": k, "n": n}}, o)
}

// Mesh lays out an n-dimensional mesh (dims[0] least significant) as a
// product of paths (§3.2). Uniform extents go through the "mesh" registry
// family; mixed extents are validated against the same registry ranges and
// built directly, so both shapes reject bad parameters with the identical
// *ParamError the registry reports.
func Mesh(dims []int, o Options) (*Layout, error) {
	if uniformInts(dims) {
		return BuildFamily(FamilySpec{Name: "mesh", Params: map[string]int{"d": len(dims), "n": dims[0]}}, o)
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	if err := registryRange("mesh", "d", len(dims)); err != nil {
		return nil, err
	}
	for _, n := range dims {
		if err := registryRange("mesh", "n", n); err != nil {
			return nil, err
		}
	}
	return o.buildSpec(core.MeshSpec(dims, o.layers(), o.NodeSide))
}

// Hypercube lays out the binary n-cube with the ⌊2N/3⌋-track collinear
// factors (§5.1).
func Hypercube(n int, o Options) (*Layout, error) {
	return BuildFamily(FamilySpec{Name: "hypercube", Params: map[string]int{"n": n}}, o)
}

// GeneralizedHypercube lays out a mixed-radix generalized hypercube
// (radices[0] least significant) (§4.1). Uniform radices go through the
// "ghc" registry family; mixed radices are validated against the same
// registry ranges and built directly.
func GeneralizedHypercube(radices []int, o Options) (*Layout, error) {
	if uniformInts(radices) {
		return BuildFamily(FamilySpec{Name: "ghc", Params: map[string]int{"r": radices[0], "n": len(radices)}}, o)
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	if err := registryRange("ghc", "n", len(radices)); err != nil {
		return nil, err
	}
	for _, r := range radices {
		if err := registryRange("ghc", "r", r); err != nil {
			return nil, err
		}
	}
	return o.buildSpec(core.GeneralizedHypercubeSpec(radices, o.layers(), o.NodeSide))
}

// FoldedHypercube lays out the hypercube plus its N/2 diameter links
// (§5.3).
func FoldedHypercube(n int, o Options) (*Layout, error) {
	return BuildFamily(FamilySpec{Name: "folded", Params: map[string]int{"n": n}}, o)
}

// EnhancedCube lays out the hypercube plus one pseudo-random extra link per
// node (§5.3); seed selects the random stream. Seeds within the registry's
// integer range go through the "enhanced" family; larger seeds validate n
// against the same registry range and build directly, so every uint64 seed
// keeps working.
func EnhancedCube(n int, seed uint64, o Options) (*Layout, error) {
	if max := registryParam("enhanced", "seed").Max; seed <= uint64(max) {
		return BuildFamily(FamilySpec{Name: "enhanced", Params: map[string]int{"n": n, "seed": int(seed)}}, o)
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	if err := registryRange("enhanced", "n", n); err != nil {
		return nil, err
	}
	spec, err := extra.EnhancedCubeSpec(n, seed, o.layers(), o.NodeSide)
	if err != nil {
		return nil, err
	}
	return o.buildSpec(spec)
}

// CCC lays out the n-dimensional cube-connected cycles network (§5.2).
func CCC(n int, o Options) (*Layout, error) {
	return BuildFamily(FamilySpec{Name: "ccc", Params: map[string]int{"n": n}}, o)
}

// ReducedHypercube lays out Ziavras's RH network with n-node hypercube
// clusters (n a power of two) (§5.2).
func ReducedHypercube(n int, o Options) (*Layout, error) {
	return BuildFamily(FamilySpec{Name: "rh", Params: map[string]int{"n": n}}, o)
}

// HSN lays out an l-level radix-r hierarchical swap network with K_r nuclei
// (§4.3).
func HSN(l, r int, o Options) (*Layout, error) {
	return BuildFamily(FamilySpec{Name: "hsn", Params: map[string]int{"levels": l, "r": r}}, o)
}

// HHN lays out a hierarchical hypercube network: an HSN with 2^m-node
// hypercube nuclei (§4.3).
func HHN(l, m int, o Options) (*Layout, error) {
	return BuildFamily(FamilySpec{Name: "hhn", Params: map[string]int{"levels": l, "m": m}}, o)
}

// Butterfly lays out the wrapped butterfly with 2^m rows and m levels as a
// PN cluster over its hypercube quotient (§4.2).
func Butterfly(m int, o Options) (*Layout, error) {
	return BuildFamily(FamilySpec{Name: "butterfly", Params: map[string]int{"m": m}}, o)
}

// ISN lays out the indirect swap network (see DESIGN.md for the
// substitution notes) (§4.3).
func ISN(m int, o Options) (*Layout, error) {
	return BuildFamily(FamilySpec{Name: "isn", Params: map[string]int{"m": m}}, o)
}

// KAryClusterC lays out a k-ary n-cube cluster-c with c-node hypercube
// clusters (§3.2).
func KAryClusterC(k, n, c int, o Options) (*Layout, error) {
	return BuildFamily(FamilySpec{Name: "clusterc", Params: map[string]int{"k": k, "n": n, "c": c}}, o)
}

// Star lays out the n-dimensional star graph via the last-symbol
// decomposition over a complete-graph quotient (§4.3 extension; see
// DESIGN.md). n! nodes, 3 <= n <= 7.
func Star(n int, o Options) (*Layout, error) {
	return BuildFamily(FamilySpec{Name: "star", Params: map[string]int{"n": n}}, o)
}

// Pancake lays out the n-dimensional pancake graph (§4.3 extension).
func Pancake(n int, o Options) (*Layout, error) {
	return BuildFamily(FamilySpec{Name: "pancake", Params: map[string]int{"n": n}}, o)
}

// BubbleSort lays out the n-dimensional bubble-sort graph (§4.3 extension).
func BubbleSort(n int, o Options) (*Layout, error) {
	return BuildFamily(FamilySpec{Name: "bubblesort", Params: map[string]int{"n": n}}, o)
}

// Transposition lays out the n-dimensional transposition network (§4.3
// extension).
func Transposition(n int, o Options) (*Layout, error) {
	return BuildFamily(FamilySpec{Name: "transposition", Params: map[string]int{"n": n}}, o)
}

// SCC lays out the star-connected cycles network (the paper's future-work
// family, built with the same last-symbol machinery). N = n!·(n−1),
// 4 <= n <= 6.
func SCC(n int, o Options) (*Layout, error) {
	return BuildFamily(FamilySpec{Name: "scc", Params: map[string]int{"n": n}}, o)
}

// Product lays out the Cartesian product of two collinear factor layouts:
// rows wired as rowFac, columns as colFac (§3.2). This is the
// general-purpose entry point for product networks beyond the named
// families.
func Product(name string, rowFac, colFac *Collinear, o Options) (*Layout, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	return o.buildSpec(core.FromFactors(name, rowFac, colFac, o.layers(), o.NodeSide))
}

// Collinear factor constructors, re-exported from the track package.

// Ring returns the 2-track collinear ring layout (§3.1).
func Ring(k int) *Collinear { return track.Ring(k) }

// FoldedRing returns the folded ring ordering with O(1)-length links.
func FoldedRing(k int) *Collinear { return track.FoldedRing(k) }

// PathGraph returns the 1-track collinear path layout.
func PathGraph(n int) *Collinear { return track.Path(n) }

// CompleteGraph returns the strictly optimal ⌊N²/4⌋-track collinear layout
// of K_N (§4.1).
func CompleteGraph(n int) *Collinear { return track.Complete(n) }

// HypercubeCollinear returns the ⌊2N/3⌋-track collinear layout of the
// n-cube (§5.1).
func HypercubeCollinear(n int) *Collinear { return track.Hypercube(n) }

// KAryCollinear returns the 2(kⁿ−1)/(k−1)-track collinear layout of a k-ary
// n-cube (§3.1).
func KAryCollinear(k, n int, folded bool) *Collinear { return track.KAryNCube(k, n, folded) }

// GHCCollinear returns the collinear layout of a mixed-radix generalized
// hypercube (§4.1).
func GHCCollinear(radices []int) *Collinear { return track.GeneralizedHypercube(radices) }

// CombineFactors is the paper's product combinator: interleaves N_H copies
// of g at stride N_H and wires each group of N_H consecutive positions as
// h, using N_H·tracks(g) + tracks(h) tracks.
func CombineFactors(g, h *Collinear) *Collinear { return track.Product(g, h) }

// Layout3D is a stacked layout under the multilayer 3-D grid model of
// §2.2: nodes occupy Boards active layers, each carrying a 2-D multilayer
// layout, with inter-board links as via columns.
type Layout3D = stack.Layout3D

// stackKnobs converts the cross-cutting Options into the stack package's
// knob set. MaxCells bounds the WHOLE stack's planned occupancy.
func (o Options) stackKnobs() stack.Knobs {
	return stack.Knobs{
		NodeSide: o.NodeSide,
		Workers:  o.Workers,
		Ctx:      o.Context,
		MaxCells: o.MaxCells,
		Obs:      o.Observer,
	}
}

// stackErr maps the stack package's typed side failure onto the module's
// *ParamError so callers see one error vocabulary for rejected parameters.
func stackErr(err error) error {
	var se *stack.SideError
	if errors.As(err, &se) {
		return &ParamError{Param: "NodeSide", Value: se.Got,
			Reason: fmt.Sprintf("cannot host the stack's elevator columns, needs >= %d", se.Need)}
	}
	return err
}

// Hypercube3D lays out the binary n-cube in the 3-D model with nz
// dimensions across boards (2^nz active layers). All cross-cutting Options
// apply (MaxCells budgets the whole stack); FoldedRows has no meaning for
// the binary cube and is rejected with a *ParamError.
func Hypercube3D(n, nz int, o Options) (*Layout3D, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	if o.FoldedRows {
		return nil, &ParamError{Param: "FoldedRows", Value: 1,
			Reason: "has no effect on the binary hypercube; it selects the folded k-ary ordering (use KAryNCube3D)"}
	}
	lay, err := stack.Hypercube3D(n, nz, o.layers(), o.stackKnobs())
	if err != nil {
		return nil, stackErr(err)
	}
	return lay, nil
}

// KAryNCube3D lays out a k-ary n-cube in the 3-D model with nz dimensions
// across boards (k^nz active layers). All cross-cutting Options apply
// (MaxCells budgets the whole stack).
func KAryNCube3D(k, n, nz int, o Options) (*Layout3D, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	lay, err := stack.KAryNCube3D(k, n, nz, o.layers(), o.FoldedRows, o.stackKnobs())
	if err != nil {
		return nil, stackErr(err)
	}
	return lay, nil
}

// GenericGraph re-exports the topology graph type for GenericLayout.
type GenericGraph = topology.Graph

// NewGraph creates an empty graph for GenericLayout; add links with
// AddLink.
func NewGraph(name string, n int) *GenericGraph { return topology.New(name, n) }

// GenericLayout routes an arbitrary graph under the multilayer grid model
// using the §2.3 grid scheme (every link as a bent edge with optimally
// shared tracks). Slower-area than the structured constructions — see
// experiment E18 — but works for any topology. All cross-cutting Options
// (Workers, Context, MaxCells, Observer) apply.
func GenericLayout(g *GenericGraph, o Options) (*Layout, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	return generic.Layout(g, generic.Config{
		L:        o.layers(),
		NodeSide: o.NodeSide,
		Workers:  o.Workers,
		Ctx:      o.Context,
		MaxCells: o.MaxCells,
		Obs:      o.Observer,
	})
}

// Baselines (§2.2).

// Fold accordion-folds a 2-layer layout into l layers (l even): area drops
// by ≈ l/2 while volume and wire lengths stay put — the baseline the paper
// improves on.
func Fold(lay *Layout, l int) (*Layout, error) { return fold.Fold(lay, l) }

// VerifyFoldedViolations checks a folded layout (terminal checks skipped:
// folded nodes sit on raised active layers) and reports the findings in
// VerifyLayout's shape: a typed violation slice plus an error for
// cancellation. The cross-cutting Options knobs apply exactly as in
// VerifyLayout — Workers, Context, VerifyMemBytes, Observer.
func VerifyFoldedViolations(lay *Layout, o Options) ([]Violation, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	return fold.VerifyOpts(o.Context, lay, grid.CheckOptions{Workers: o.Workers, TileBytes: o.VerifyMemBytes, Observer: o.Observer})
}

// VerifyFolded checks a folded layout with default options and joins all
// violations with errors.Join; errors.As with *grid.Violation (or unwrapping
// the join) recovers the individual findings. VerifyFoldedViolations is the
// typed, tunable form.
func VerifyFolded(lay *Layout) error {
	v, err := VerifyFoldedViolations(lay, Options{})
	if err != nil {
		return err
	}
	if len(v) == 0 {
		return nil
	}
	errs := make([]error, len(v))
	for i := range v {
		errs[i] = v[i]
	}
	return errors.Join(errs...)
}

// FoldStats measures a folded layout.
func FoldStats(lay *Layout) fold.Stats { return fold.Measure(lay) }

// Routing and simulation.

// MaxPathWire returns the maximum total wire length along hop-shortest
// routes (claim (4) of §2.2); sources <= 0 examines all sources.
func MaxPathWire(lay *Layout, sources int) int {
	m, _ := MaxPathWireContext(nil, lay, sources)
	return m
}

// MaxPathWireContext is MaxPathWire with cooperative cancellation: once ctx
// is done the sweep stops and returns an error wrapping ErrCanceled. A nil
// ctx means no cancellation.
func MaxPathWireContext(ctx context.Context, lay *Layout, sources int) (int, error) {
	return route.MaxPathWireCtx(ctx, lay, sources, 0)
}

// AveragePathWire returns the mean total wire length along hop-shortest
// routes.
func AveragePathWire(lay *Layout, sources int) float64 {
	avg, _ := AveragePathWireContext(nil, lay, sources)
	return avg
}

// AveragePathWireContext is AveragePathWire with cooperative cancellation,
// mirroring MaxPathWireContext.
func AveragePathWireContext(ctx context.Context, lay *Layout, sources int) (float64, error) {
	return route.AveragePathWireCtx(ctx, lay, sources, 0)
}

// SimConfig configures the wire-delay simulator.
type SimConfig = sim.Config

// SimFaultPlan degrades the simulated network with dead nodes and links —
// explicit, seeded-random, or both — so fault-tolerance experiments can
// measure delivered vs. dropped traffic. Set it on SimConfig.Faults.
type SimFaultPlan = sim.FaultPlan

// SimResult reports simulated latency statistics.
type SimResult = sim.Result

// SimPattern selects a traffic pattern; SimSwitching a flow-control
// discipline.
type (
	SimPattern   = sim.Pattern
	SimSwitching = sim.Switching
)

// Traffic patterns and switching disciplines for Simulate.
const (
	RandomPairs   = sim.RandomPairs
	Permutation   = sim.Permutation
	BitComplement = sim.BitComplement

	StoreAndForward = sim.StoreAndForward
	CutThrough      = sim.CutThrough
)

// Simulate runs store-and-forward message traffic over the layout with
// wire-length-proportional link delays.
func Simulate(lay *Layout, cfg SimConfig) SimResult { return sim.Run(lay, cfg) }

// Rendering.

// RenderCollinear draws a collinear layout as ASCII art (Figures 2-4).
func RenderCollinear(c *Collinear, pitch int) string { return render.Collinear(c, pitch) }

// RenderSVG exports a realized layout as an SVG document.
func RenderSVG(lay *Layout, scale int) string { return render.SVG(lay, scale) }

// RenderRecursiveGrid draws the Figure-1 schematic of the recursive grid
// layout scheme.
func RenderRecursiveGrid(rows, cols int) string { return render.RecursiveGridSchematic(rows, cols) }
