package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"mlvlsi"
	"mlvlsi/internal/obs"
)

func TestRankIsNearestRank(t *testing.T) {
	sorted := make([]uint32, 100)
	for i := range sorted {
		sorted[i] = uint32(i + 1)
	}
	for _, c := range []struct {
		p          float64
		want       uint32
		wantBeyond int
	}{
		{50, 50, 50},
		{95, 95, 5},
		{99, 99, 1},
		{100, 100, 0},
		{0.5, 1, 99},
	} {
		v, beyond := rank(sorted, c.p)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("rank(1..100, %v) = %d (%d beyond), want %d (%d beyond)", c.p, v, beyond, c.want, c.wantBeyond)
		}
	}
	if v, beyond := rank([]uint32{7}, 50); v != 7 || beyond != 0 {
		t.Errorf("rank([7], 50) = %d (%d beyond), want 7 (0 beyond)", v, beyond)
	}
}

func TestP95NeedsTenSamplesBeyond(t *testing.T) {
	lat := func(n int) [][]uint32 {
		a, b := make([]uint32, 0, n), make([]uint32, 0, n)
		for i := n; i > 0; i-- { // unsorted, split across two callers
			if i%2 == 0 {
				a = append(a, uint32(i)*1e6)
			} else {
				b = append(b, uint32(i)*1e6)
			}
		}
		return [][]uint32{a, b}
	}
	// n=200: rank 190, 10 beyond.
	p50, p95, n, err := percentiles(lat(200))
	if err != nil || n != 200 || p50 != 100 || p95 != 190 {
		t.Errorf("percentiles(1..200 ms) = %v, %v, n=%d, %v; want 100, 190, n=200, nil", p50, p95, n, err)
	}
	// n=199: rank ceil(189.05)=190, 9 beyond.
	if _, _, _, err := percentiles(lat(199)); err == nil {
		t.Error("percentiles over 199 samples reported a p95 with 9 samples beyond it")
	}
}

func TestPlanIsSeeded(t *testing.T) {
	for _, w := range workloadNames {
		a, err := newPlan(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newPlan(w, 7)
		c, _ := newPlan(w, 8)
		if !bytes.Equal(a.bytes(), b.bytes()) {
			t.Errorf("%s: seed 7 gave two different operation sequences", w)
		}
		if bytes.Equal(a.bytes(), c.bytes()) {
			t.Errorf("%s: seeds 7 and 8 gave the same operation sequence", w)
		}
	}
}

// The seed must not change the work: every seed's pass requests the same
// items equally often.
func TestSeedKeepsTheMix(t *testing.T) {
	for _, w := range workloadNames {
		a, _ := newPlan(w, 1)
		b, _ := newPlan(w, 2)
		ca, cb := make(map[int]int), make(map[int]int)
		for i := range a.ops {
			ca[a.ops[i].item]++
			cb[b.ops[i].item]++
		}
		for k, n := range ca {
			if cb[k] != n {
				t.Errorf("%s: item %s appears %d times with seed 1, %d with seed 2", w, a.items[k], n, cb[k])
			}
		}
	}
}

func TestSpellingsNameTheirItem(t *testing.T) {
	for _, w := range []string{"serve-hit", "serve-miss"} {
		p, _ := newPlan(w, 3)
		for _, o := range p.ops {
			var req mlvlsi.BuildRequest
			if err := json.Unmarshal(o.body, &req); err != nil {
				t.Fatalf("%s: body %s: %v", w, o.body, err)
			}
			if got, want := req.Key(), p.items[o.item].request().Key(); got != want {
				t.Fatalf("%s: body %s has key %s, its item %s has %s", w, o.body, got, p.items[o.item], want)
			}
		}
	}
}

func TestLibSweepCoversEveryFamily(t *testing.T) {
	p, _ := newPlan("lib-sweep", 1)
	seen := make(map[string]map[int]bool)
	for _, o := range p.ops {
		it := p.items[o.item]
		if seen[it.family] == nil {
			seen[it.family] = make(map[int]bool)
		}
		seen[it.family][it.layers] = true
	}
	for _, f := range mlvlsi.Families() {
		for _, l := range libSweepLayers {
			if !seen[f.Name][l] {
				t.Errorf("lib-sweep never builds %s at L=%d", f.Name, l)
			}
		}
	}
}

// countingSystem records how many operations it ran.
type countingSystem struct{ n atomic.Int64 }

func (s *countingSystem) do(_, _ int, _ bool) (time.Duration, error) {
	s.n.Add(1)
	return time.Microsecond, nil
}
func (s *countingSystem) close() {}

func TestDriveRunsWholePasses(t *testing.T) {
	for _, deadline := range []time.Time{{}, time.Now().Add(-time.Second), time.Now().Add(20 * time.Millisecond)} {
		var s countingSystem
		w := drive(&s, 7, deadline, false, false)
		if w.ops == 0 || w.ops%7 != 0 || int64(w.ops) != s.n.Load() {
			t.Errorf("deadline %v: %d ops recorded, %d run; want a positive multiple of 7, all recorded", deadline, w.ops, s.n.Load())
		}
		if deadline.IsZero() && w.ops != 7 {
			t.Errorf("zero deadline ran %d ops, want exactly one pass of 7", w.ops)
		}
	}
}

// timedPass sets up the workload with counters on, runs one checked pass
// and returns it with the counter deltas over that pass.
func timedPass(t *testing.T, workload string) (*window, obs.Metrics, obs.Metrics) {
	t.Helper()
	p, err := newPlan(workload, 5)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := references(p.items)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	sys, _, err := setUp(p, refs, o)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	c0 := o.Snapshot()
	w := drive(sys, len(p.ops), time.Time{}, false, false)
	if w.failed > 0 {
		t.Fatalf("%d of %d operations failed, first: %v", w.failed, w.ops, w.firstErr)
	}
	return w, c0, o.Snapshot()
}

func TestServeHitIsAllHits(t *testing.T) {
	w, c0, c1 := timedPass(t, "serve-hit")
	if hits := c1.Get(obs.CacheHits) - c0.Get(obs.CacheHits); hits != int64(w.ops) {
		t.Errorf("%d cache hits over %d operations", hits, w.ops)
	}
	if m := c1.Get(obs.CacheMisses) - c0.Get(obs.CacheMisses); m != 0 {
		t.Errorf("%d cache misses in the timed pass", m)
	}
}

func TestServeMissIsAllMisses(t *testing.T) {
	w, c0, c1 := timedPass(t, "serve-miss")
	if m := c1.Get(obs.CacheMisses) - c0.Get(obs.CacheMisses); m != int64(w.ops) {
		t.Errorf("%d cache misses over %d operations", m, w.ops)
	}
	if e := c1.Get(obs.CacheEvictions) - c0.Get(obs.CacheEvictions); e == 0 {
		t.Error("no evictions in the timed pass")
	}
}

func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, c := range []struct {
		workload string
		hitRatio float64
	}{{"serve-hit", 1}, {"serve-miss", 0}, {"lib-sweep", 0}} {
		p, _ := newPlan(c.workload, 9)
		refs, err := references(p.items)
		if err != nil {
			t.Fatal(err)
		}
		m, w, err := perLayer(p, refs, 6, "")
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		if w.failed > 0 {
			t.Fatalf("%s: %d failed, first: %v", c.workload, w.failed, w.firstErr)
		}
		if got := m["serve.hit_ratio"].Value; got != c.hitRatio {
			t.Errorf("%s: serve.hit_ratio = %v, want %v", c.workload, got, c.hitRatio)
		}
		for _, name := range []string{"grid.verify_ms", "grid.measure_ms", "grid.walk_ms", "grid.merge_ms", "grid.resolve_ms"} {
			v := m[name].Value
			if isServe := c.workload != "lib-sweep"; isServe && v != 0 {
				t.Errorf("%s: %s = %v, want 0", c.workload, name, v)
			}
		}
		if c.workload == "lib-sweep" && m["grid.verify_ms"].Value == 0 {
			t.Error("lib-sweep: grid.verify_ms = 0")
		}
		for _, want := range benchmarkSpec(t).PerLayer {
			if got, ok := m[want.Name]; !ok || got.Unit != want.Unit {
				t.Errorf("%s: per-layer %s = %+v (present %v), want unit %q", c.workload, want.Name, got, ok, want.Unit)
			}
		}
	}
}

type specMetric struct{ Name, Unit string }

// benchmarkSpec reads the metric and workload lists of the repository's
// BENCHMARK.json.
func benchmarkSpec(t *testing.T) (spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestResultMatchesBenchmarkJSON(t *testing.T) {
	spec := benchmarkSpec(t)
	var names []string
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
	}
	want := slices.Clone(gated)
	slices.Sort(names)
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json gates %v, the untraced result carries %v", names, gated)
	}
	for _, w := range spec.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
}
