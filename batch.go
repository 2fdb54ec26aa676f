package mlvlsi

import (
	"context"
	"runtime/debug"

	"mlvlsi/internal/core"
	"mlvlsi/internal/obs"
	"mlvlsi/internal/par"
)

// Batch builds. BuildBatch and VerifyBatch amortize allocation work across
// many build requests the way a single arena build amortizes it across
// phases: one scratch set is reused for every instance, and VerifyBatch
// pipelines build against verify so the verification of layout i overlaps
// the construction of layout i+1. Errors are per item — a bad request, a
// budget overrun, or a panic in one item never fails the others — and
// cancellation marks every unprocessed item with an error wrapping
// ErrCanceled.

// BuildScratch is a reusable allocation arena for the build engine. Every
// build draws its per-phase allocations from one; passing your own via
// Options.Scratch (or implicitly through BuildBatch/VerifyBatch) keeps its
// slabs warm across your builds and reports them in the scratch counters,
// where a build without one borrows a pooled scratch. A scratch is owned by
// one build at a time — reuse it across sequential builds freely, but never
// share it between concurrent ones. The layouts it helps build alias nothing
// inside it (DESIGN.md §9), so reaching the next build requires no
// quiescence beyond the builds being ordered.
type BuildScratch struct {
	s core.BuildScratch
}

// NewBuildScratch returns an empty scratch; its slabs grow to fit on first
// use and are retained for reuse.
func NewBuildScratch() *BuildScratch { return &BuildScratch{} }

// inner unwraps to the engine's scratch type; nil-safe so a nil
// *BuildScratch leaves the engine to borrow a pooled scratch.
func (s *BuildScratch) inner() *core.BuildScratch {
	if s == nil {
		return nil
	}
	return &s.s
}

// BatchOptions configures BuildBatch and VerifyBatch.
type BatchOptions struct {
	// Workers is the default per-item fan-out, applied to every request
	// whose own Workers field is zero. Zero means GOMAXPROCS, as on Options.
	Workers int
	// Observer, when non-nil, receives the batch spans (batch_build /
	// batch_verify with an items attribute, plus each item's build and
	// verify spans) and the batch counters — scratch_reuses, scratch_bytes,
	// and for the pipelined VerifyBatch batch_pipeline_stalls.
	Observer *Observer
}

// BatchResult is one item's outcome. Exactly one of Layout or Err is
// non-nil for BuildBatch items; VerifyBatch items report Violations instead
// of a Layout (the layouts it builds are transient and never escape).
type BatchResult struct {
	Layout     *Layout
	Violations []Violation
	Err        error
}

// BuildBatch builds every request, reusing one arena scratch across the
// whole batch, and returns one result per request in order. Item errors are
// typed exactly as in BuildSpec (*ParamError, *BudgetError, *PanicError, an
// error wrapping ErrCanceled) and are per item: one bad request does not
// fail the batch. Once ctx is done, every remaining item is marked canceled
// without building.
func BuildBatch(ctx context.Context, reqs []BuildRequest, opts BatchOptions) []BatchResult {
	res := make([]BatchResult, len(reqs))
	span := opts.Observer.StartSpan("batch_build")
	span.SetAttr("items", int64(len(reqs)))
	defer span.End()
	scratch := NewBuildScratch()
	for i := range reqs {
		if err := par.Canceled(ctx); err != nil {
			res[i].Err = err
			continue
		}
		res[i].Layout, res[i].Err = batchBuildOne(ctx, reqs[i], opts, scratch)
	}
	return res
}

// batchBuildOne builds one item with the shared scratch. The engine already
// contains panics from its own goroutines; the recover here additionally
// contains panics raised outside it (request canonicalization, spec
// assembly), upholding the per-item error contract.
func batchBuildOne(ctx context.Context, req BuildRequest, opts BatchOptions, scratch *BuildScratch) (lay *Layout, err error) {
	defer func() {
		if v := recover(); v != nil {
			p, ok := v.(*par.Panic)
			if !ok {
				p = &par.Panic{Value: v, Stack: debug.Stack()}
			}
			lay, err = nil, p
		}
	}()
	if req.Workers == 0 {
		req.Workers = opts.Workers
	}
	return BuildSpecWith(ctx, req, opts.Observer, scratch)
}

// pipelineDepth bounds the VerifyBatch hand-off queue: the builder may run
// at most this many layouts ahead of the verifier before it blocks (and
// counts a batch_pipeline_stall).
const pipelineDepth = 2

// VerifyBatch builds and verifies every request, returning each item's
// violation set (an empty set with a nil Err means the layout is legal).
// Construction and verification run as a two-stage pipeline: a builder
// goroutine realizes layout i+1 while the verifier checks layout i, with a
// bounded hand-off queue between them. The layouts are built in transient
// arena mode and dropped after verification — only the violation sets
// escape — which makes the whole batch allocation-free in steady state.
// Error semantics match BuildBatch: typed, per item, and cancellation marks
// every unprocessed item.
func VerifyBatch(ctx context.Context, reqs []BuildRequest, opts BatchOptions) []BatchResult {
	res := make([]BatchResult, len(reqs))
	span := opts.Observer.StartSpan("batch_verify")
	span.SetAttr("items", int64(len(reqs)))
	defer span.End()

	type item struct {
		idx     int
		lay     *Layout
		scratch *BuildScratch
	}
	items := make(chan item, pipelineDepth)
	// Transient scratches rotate builder → verifier → builder through free:
	// a scratch is not reused until the verifier is done with the layout
	// aliasing it, which is what makes transient mode safe here. One more
	// scratch than queue slots keeps the builder from blocking on scratch
	// return while the queue still has room.
	free := make(chan *BuildScratch, pipelineDepth+1)
	for i := 0; i < pipelineDepth+1; i++ {
		s := NewBuildScratch()
		s.s.SetTransient(true)
		free <- s
	}

	builder := func() {
		defer close(items)
		bspan := span.Child("pipeline_build")
		defer bspan.End()
		for i := range reqs {
			if err := par.Canceled(ctx); err != nil {
				res[i].Err = err
				continue
			}
			var scratch *BuildScratch
			select {
			case scratch = <-free:
			default:
				opts.Observer.Add(obs.BatchPipelineStalls, 1)
				scratch = <-free
			}
			lay, err := batchBuildOne(ctx, reqs[i], opts, scratch)
			if err != nil {
				res[i].Err = err
				free <- scratch
				continue
			}
			it := item{idx: i, lay: lay, scratch: scratch}
			select {
			case items <- it:
			default:
				opts.Observer.Add(obs.BatchPipelineStalls, 1)
				items <- it
			}
		}
	}
	verifier := func() {
		vspan := span.Child("pipeline_verify")
		defer vspan.End()
		for it := range items {
			res[it.idx].Violations, res[it.idx].Err = batchVerifyOne(ctx, it.lay, reqs[it.idx], opts)
			free <- it.scratch
		}
	}
	// The two stages run as one par shard each: Chunks(2, 2) pins each to
	// its own pool goroutine, and the pool provides the join and the panic
	// containment the raw-goroutine ban exists for. The builder's deferred
	// close keeps the verifier's range terminating even if the builder
	// panics outside its per-item recover.
	par.Chunks(2, 2, func(stage, _, _ int) {
		if stage == 0 {
			builder()
		} else {
			verifier()
		}
	})
	return res
}

// batchVerifyOne verifies one transient layout under the item's own knobs.
func batchVerifyOne(ctx context.Context, lay *Layout, req BuildRequest, opts BatchOptions) (v []Violation, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, ok := r.(*par.Panic)
			if !ok {
				p = &par.Panic{Value: r, Stack: debug.Stack()}
			}
			v, err = nil, p
		}
	}()
	o := req.Options()
	if o.Workers == 0 {
		o.Workers = opts.Workers
	}
	o.Context = ctx
	o.Observer = opts.Observer
	return VerifyLayout(lay, o)
}
