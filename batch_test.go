package mlvlsi

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mlvlsi/internal/obs"
)

// batchRequests returns a mixed request set: several families, one request
// with explicit geometry, so consecutive builds on the shared scratch have
// different shapes.
func batchRequests() []BuildRequest {
	return []BuildRequest{
		{Family: FamilySpec{Name: "hypercube"}},
		{Family: FamilySpec{Name: "kary"}},
		{Family: FamilySpec{Name: "mesh"}},
		{Family: FamilySpec{Name: "ccc"}},
		{Family: FamilySpec{Name: "hypercube", Params: map[string]int{"n": 6}}, Layers: 4},
		{Family: FamilySpec{Name: "folded"}},
	}
}

// TestBuildBatchMatchesSequential: a batch must return, item for item,
// exactly what sequential BuildSpec calls return — the shared scratch is an
// implementation detail, invisible in the results.
func TestBuildBatchMatchesSequential(t *testing.T) {
	reqs := batchRequests()
	res := BuildBatch(context.Background(), reqs, BatchOptions{})
	if len(res) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(res), len(reqs))
	}
	for i, r := range reqs {
		want, err := BuildSpec(context.Background(), r)
		if err != nil {
			t.Fatalf("item %d: sequential build: %v", i, err)
		}
		if res[i].Err != nil {
			t.Fatalf("item %d: batch error: %v", i, res[i].Err)
		}
		if !reflect.DeepEqual(want, res[i].Layout) {
			t.Errorf("item %d: batch layout differs from sequential build", i)
		}
	}
}

// TestBuildBatchPerItemErrors: one bad request must not fail the batch, and
// each failure keeps the same typed error the sequential API reports.
func TestBuildBatchPerItemErrors(t *testing.T) {
	reqs := []BuildRequest{
		{Family: FamilySpec{Name: "hypercube"}},
		{Family: FamilySpec{Name: "no-such-family"}},
		{Family: FamilySpec{Name: "hypercube"}, MaxCells: 10},
		{Family: FamilySpec{Name: "kary"}},
	}
	res := BuildBatch(context.Background(), reqs, BatchOptions{})
	if res[0].Err != nil || res[0].Layout == nil {
		t.Errorf("item 0: got (%v, %v), want a layout", res[0].Layout, res[0].Err)
	}
	var pe *ParamError
	if !errors.As(res[1].Err, &pe) {
		t.Errorf("item 1: err = %v (%T), want *ParamError", res[1].Err, res[1].Err)
	}
	var be *BudgetError
	if !errors.As(res[2].Err, &be) {
		t.Errorf("item 2: err = %v (%T), want *BudgetError", res[2].Err, res[2].Err)
	}
	if res[3].Err != nil || res[3].Layout == nil {
		t.Errorf("item 3: got (%v, %v), want a layout (bad neighbors must not leak)", res[3].Layout, res[3].Err)
	}
	for i, r := range res {
		if (r.Layout != nil) == (r.Err != nil) {
			t.Errorf("item %d: exactly one of Layout/Err must be set, got (%v, %v)", i, r.Layout, r.Err)
		}
	}
}

// TestBatchCancelMarksRemaining: a canceled context marks every unprocessed
// item with the typed cancellation error instead of building it.
func TestBatchCancelMarksRemaining(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := batchRequests()
	for name, res := range map[string][]BatchResult{
		"BuildBatch":  BuildBatch(ctx, reqs, BatchOptions{}),
		"VerifyBatch": VerifyBatch(ctx, reqs, BatchOptions{}),
	} {
		if len(res) != len(reqs) {
			t.Fatalf("%s: got %d results for %d requests", name, len(res), len(reqs))
		}
		for i, r := range res {
			if !errors.Is(r.Err, ErrCanceled) {
				t.Errorf("%s item %d: err = %v, want ErrCanceled", name, i, r.Err)
			}
			if r.Layout != nil || r.Violations != nil {
				t.Errorf("%s item %d: canceled item carries results", name, i)
			}
		}
	}
}

// TestVerifyBatchSemantics: every default-parameter family builds a legal
// layout, so VerifyBatch must report empty violation sets and nil errors —
// while bad items keep their typed errors and never produce a violation set.
func TestVerifyBatchSemantics(t *testing.T) {
	reqs := append(batchRequests(), BuildRequest{Family: FamilySpec{Name: "no-such-family"}})
	ob := NewObserver()
	res := VerifyBatch(context.Background(), reqs, BatchOptions{Observer: ob})
	for i := 0; i < len(batchRequests()); i++ {
		if res[i].Err != nil {
			t.Errorf("item %d: err = %v", i, res[i].Err)
		}
		if len(res[i].Violations) != 0 {
			t.Errorf("item %d: %d violations on a legal construction", i, len(res[i].Violations))
		}
		if res[i].Layout != nil {
			t.Errorf("item %d: transient layout escaped the pipeline", i)
		}
	}
	last := res[len(reqs)-1]
	var pe *ParamError
	if !errors.As(last.Err, &pe) {
		t.Errorf("bad item: err = %v (%T), want *ParamError", last.Err, last.Err)
	}
	// The pipeline reuses pipelineDepth+1 transient scratches across the
	// successful builds: every build after the first few is a reuse, and the
	// observer must have seen them.
	if got := ob.Snapshot().Counts[obs.ScratchReuses]; got < int64(len(reqs)-1-(pipelineDepth+1)) {
		t.Errorf("scratch_reuses = %d, want >= %d", got, len(reqs)-1-(pipelineDepth+1))
	}
}

// buildPanicSink panics while the Nth per-build root span is delivered —
// the only place a test can raise a panic inside one batch item's build
// from outside the engine (family construction itself never panics on valid
// input, and the engine converts its own worker panics to errors before
// they reach the batch layer).
type buildPanicSink struct{ builds, target int }

func (s *buildPanicSink) SpanEnd(rec obs.SpanRecord) {
	if rec.Name == "build" {
		s.builds++
		if s.builds == s.target {
			panic("injected batch fault")
		}
	}
}

func (s *buildPanicSink) Flush(obs.Metrics) {}

// TestBatchContainsPanics: a panic raised while one item builds surfaces as
// that item's *PanicError; the other items still build.
func TestBatchContainsPanics(t *testing.T) {
	reqs := []BuildRequest{
		{Family: FamilySpec{Name: "hypercube"}},
		{Family: FamilySpec{Name: "kary"}},
		{Family: FamilySpec{Name: "mesh"}},
	}
	for name, run := range map[string]func(context.Context, []BuildRequest, BatchOptions) []BatchResult{
		"BuildBatch":  BuildBatch,
		"VerifyBatch": VerifyBatch,
	} {
		ob := NewObserver(&buildPanicSink{target: 2})
		res := run(context.Background(), reqs, BatchOptions{Observer: ob})
		var p *PanicError
		if !errors.As(res[1].Err, &p) {
			t.Fatalf("%s item 1: err = %v (%T), want *PanicError", name, res[1].Err, res[1].Err)
		}
		if p.Value != "injected batch fault" {
			t.Errorf("%s item 1: panic value %v", name, p.Value)
		}
		for _, i := range []int{0, 2} {
			if res[i].Err != nil {
				t.Errorf("%s item %d: neighbor of panicking item failed: %v", name, i, res[i].Err)
			}
		}
	}
}

// BenchmarkBuildBatch and BenchmarkBuildSequential are the batch acceptance
// pair: the same 64 mixed requests through BuildBatch (one shared scratch)
// and through 64 independent BuildSpec calls (pooled scratches). Run with
// -benchmem; BENCH_8.json records both at 1 and 4 workers.
func benchReqs() []BuildRequest {
	reqs := make([]BuildRequest, 64)
	families := []string{"hypercube", "kary", "mesh", "ccc", "folded", "enhanced", "ghc", "rh"}
	for i := range reqs {
		reqs[i] = BuildRequest{Family: FamilySpec{Name: families[i%len(families)]}}
		if i%2 == 1 {
			reqs[i].Layers = 4
		}
	}
	return reqs
}

func BenchmarkBuildBatch(b *testing.B) {
	reqs := benchReqs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := BuildBatch(context.Background(), reqs, BatchOptions{Workers: 1})
		for j := range res {
			if res[j].Err != nil {
				b.Fatal(res[j].Err)
			}
		}
	}
}

func BenchmarkBuildSequential(b *testing.B) {
	reqs := benchReqs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range reqs {
			r := reqs[j]
			r.Workers = 1
			if _, err := BuildSpec(context.Background(), r); err != nil {
				b.Fatal(err)
			}
		}
	}
}
