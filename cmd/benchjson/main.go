// Command benchjson runs the tier-1 verifier and builder benchmarks through
// testing.Benchmark and writes the results as a JSON trajectory file, one
// record per benchmark:
//
//	{"bench": "check/parallel", "ns_op": ..., "allocs_op": ..., "bytes_op": ..., "workers": 1}
//
// The committed BENCH_<n>.json files at the repo root are such snapshots,
// one per PR that moved the numbers; CI runs `benchjson -quick` as a smoke
// test and uploads the result as an artifact (numbers from shared runners
// are noisy, so nothing gates on them). The check/parallel records time
// grid.Verify at one and four workers. Snapshots up to BENCH_10 also carry
// check/serial, the *-sparse map-checker records and memceil/*/dense, whose
// engines the single tiled verifier replaced.
//
// Since BENCH_8 the build records measure a prebuilt spec, and
// "build/hypercube" is a build on a reused caller-owned scratch, the
// production configuration of the batch APIs and the daemon. Earlier
// snapshots' "build/hypercube" was the allocating map path including spec
// assembly. BENCH_8 and BENCH_10 also carry "build/hypercube-legacy", that
// map path on a prebuilt spec; the engine no longer has it, and a build
// without a caller scratch now borrows a pooled one. The batch/* pair
// measures the same 64 mixed requests through BuildBatch (one shared
// scratch) and through sequential BuildSpec calls.
//
// Since BENCH_10 the memceil/* records track the ROADMAP's memory-ceiling
// story: for each hypercube dimension, one verify under a ceiling a quarter
// of the whole-box occupancy bitset, with BytesOp carrying the peak
// occupancy working set rather than allocator traffic.
//
// Output selection: -out names the file explicitly; otherwise -pr N writes
// BENCH_N.json, and with neither flag the tool refreshes the
// highest-numbered BENCH_<n>.json already present (BENCH_1.json in an
// empty tree).
//
// -merge appends records from other JSON files in the same schema — in
// particular cmd/loadgen's -out files, whose rate and error-breakdown
// records become part of the committed snapshot this way — and -norun skips
// the benchmark runs entirely, emitting only the merged records (how
// BENCH_7.json collects the clean and chaos loadgen runs).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mlvlsi"
	"mlvlsi/internal/core"
	"mlvlsi/internal/grid"
	"mlvlsi/internal/obs"
)

// Record is one benchmark measurement. Workers is 0 for serial benchmarks.
// The phase/* and counters records come from one observed build+verify run
// (not a testing.Benchmark loop): phase records carry the span duration in
// NsOp, and the counters record carries the full observability counter
// snapshot keyed by counter name.
type Record struct {
	Bench    string           `json:"bench"`
	NsOp     float64          `json:"ns_op"`
	AllocsOp int64            `json:"allocs_op"`
	BytesOp  int64            `json:"bytes_op"`
	Workers  int              `json:"workers"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

// fileList collects a repeatable flag.
type fileList []string

func (f *fileList) String() string     { return strings.Join(*f, ",") }
func (f *fileList) Set(v string) error { *f = append(*f, v); return nil }

func main() {
	out := flag.String("out", "", "output file ('-' for stdout; default derived from -pr or existing snapshots)")
	pr := flag.Int("pr", 0, "PR number: write BENCH_<pr>.json unless -out is set")
	quick := flag.Bool("quick", false, "run a small instance once (CI smoke test)")
	norun := flag.Bool("norun", false, "skip the benchmark runs; emit only -merge records")
	var merges fileList
	flag.Var(&merges, "merge", "append records from this benchjson/loadgen JSON file (repeatable); loadgen's breakdown and rate records land in the snapshot this way")
	flag.Parse()
	if *out == "" {
		*out = deriveOut(*pr)
	}
	merged, err := mergeRecords(merges)
	if err != nil {
		fatal(err)
	}
	if *norun {
		if len(merged) == 0 {
			fatal("-norun with nothing to -merge would write an empty snapshot")
		}
		writeOut(*out, merged)
		return
	}

	// The full workload matches bench_test.go: the 12-cube at L=4 for the
	// checkers, the 10-cube for the builders. -quick drops to an 8-cube so a
	// complete run fits in a CI smoke budget.
	checkDim, buildDim := 12, 10
	if *quick {
		checkDim, buildDim = 8, 6
	}
	lay, err := core.Hypercube(checkDim, 4, 0, 0)
	if err != nil {
		fatal(err)
	}
	opts := grid.CheckOptions{Layers: lay.L, Discipline: true, Nodes: lay.Nodes}

	var records []Record
	run := func(name string, workers int, fn func(b *testing.B)) {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		rec := Record{
			Bench:    name,
			NsOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsOp: int64(r.AllocsPerOp()),
			BytesOp:  int64(r.AllocedBytesPerOp()),
			Workers:  workers,
		}
		records = append(records, rec)
		fmt.Fprintf(os.Stderr, "%-28s %14.0f ns/op %10d B/op %8d allocs/op\n",
			name, rec.NsOp, rec.BytesOp, rec.AllocsOp)
	}
	check := func(workers int) func(b *testing.B) {
		o := opts
		o.Workers = workers
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if v, err := grid.Verify(nil, lay.Wires, o); err != nil {
					fatal(err)
				} else if len(v) > 0 {
					fatal(v[0])
				}
			}
		}
	}
	buildSpec := core.HypercubeSpec(buildDim, 4, 0)
	scratch := core.NewBuildScratch()
	build := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := buildSpec
				s.Workers = workers
				s.Scratch = scratch
				if _, err := core.Build(s); err != nil {
					fatal(err)
				}
			}
		}
	}
	nBatch := 64
	if *quick {
		nBatch = 16
	}
	reqs := batchRequests(nBatch)
	batchBuild := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, r := range mlvlsi.BuildBatch(context.Background(), reqs, mlvlsi.BatchOptions{Workers: workers}) {
					if r.Err != nil {
						fatal(r.Err)
					}
				}
			}
		}
	}
	batchSequential := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, req := range reqs {
					req.Workers = workers
					if _, err := mlvlsi.BuildSpec(context.Background(), req); err != nil {
						fatal(err)
					}
				}
			}
		}
	}

	for _, w := range []int{1, 4} {
		run("check/parallel", w, check(w))
	}
	run("build/hypercube", 1, build(1))
	run("build/hypercube", 4, build(4))
	for _, w := range []int{1, 4} {
		run("batch/sequential", w, batchSequential(w))
		run("batch/build", w, batchBuild(w))
	}
	records = append(records, observed(buildDim)...)
	memDims := []int{12, 14, 16, 18}
	if *quick {
		memDims = []int{8}
	}
	records = append(records, memCeiling(memDims)...)
	records = append(records, merged...)
	writeOut(*out, records)
}

// memCeiling measures the ROADMAP memory-ceiling story: for each hypercube
// dimension, one observed verify at L=4 and four workers under a ceiling a
// quarter of the whole-box occupancy bitset. NsOp is the single run's
// verify wall time; BytesOp the peak occupancy working set (the
// tile_bytes_peak gauge).
func memCeiling(dims []int) []Record {
	const workers = 4
	var records []Record
	for _, dim := range dims {
		lay, err := core.Hypercube(dim, 4, 0, 0)
		if err != nil {
			fatal(err)
		}
		b := grid.Wires(lay.Wires).Bounds()
		cells := 3 * int64(b.Width()+1) * int64(b.Height()+1) * int64(b.MaxZ-b.MinZ+1)
		ceiling := int((cells + 63) / 64 * 8 / 4)

		ob := obs.New()
		opts := grid.CheckOptions{
			Layers: lay.L, Discipline: true, Nodes: lay.Nodes,
			Workers: workers, TileBytes: ceiling, Observer: ob,
		}
		start := time.Now()
		v, err := grid.Verify(nil, lay.Wires, opts)
		ns := time.Since(start).Nanoseconds()
		if err != nil {
			fatal(err)
		}
		if len(v) > 0 {
			fatal(v[0])
		}
		m := ob.Snapshot()
		if m.Get(obs.TilesChecked) < 2 {
			fatal(fmt.Sprintf("hypercube%d: ceiling %d did not split the box into tiles", dim, ceiling))
		}
		fmt.Fprintf(os.Stderr, "memceil/hypercube%d/tiled done in %v\n", dim, time.Duration(ns).Round(time.Millisecond))
		records = append(records, Record{
			Bench: fmt.Sprintf("memceil/hypercube%d/tiled", dim),
			NsOp:  float64(ns), BytesOp: m.Get(obs.TileBytesPeak), Workers: workers,
			Counters: map[string]int64{
				"tiles_checked":           m.Get(obs.TilesChecked),
				"border_edges_reconciled": m.Get(obs.BorderEdgesReconciled),
			},
		})
	}
	return records
}

// batchRequests generates n distinct build requests: eight families crossed
// with two sizes of their leading parameter, two layer counts, and folded
// rows on or off, so the batch pair measures mixed shapes rather than one
// cached geometry rebuilt n times.
func batchRequests(n int) []mlvlsi.BuildRequest {
	type variant struct {
		family string
		param  string
		sizes  [2]int
	}
	variants := []variant{
		{"hypercube", "n", [2]int{4, 5}},
		{"kary", "k", [2]int{3, 4}},
		{"mesh", "n", [2]int{3, 4}},
		{"ccc", "n", [2]int{3, 4}},
		{"folded", "n", [2]int{4, 5}},
		{"enhanced", "n", [2]int{4, 5}},
		{"ghc", "r", [2]int{3, 4}},
		{"rh", "n", [2]int{4, 8}},
	}
	reqs := make([]mlvlsi.BuildRequest, n)
	for i := range reqs {
		v := variants[i%len(variants)]
		r := mlvlsi.BuildRequest{Family: mlvlsi.FamilySpec{
			Name:   v.family,
			Params: map[string]int{v.param: v.sizes[(i/len(variants))%2]},
		}}
		if (i/(2*len(variants)))%2 == 1 {
			r.Layers = 4
		}
		if (i/(4*len(variants)))%2 == 1 {
			r.FoldedRows = true
		}
		reqs[i] = r
	}
	return reqs
}

// mergeRecords reads each file as a benchjson-schema record list (loadgen's
// -out files use the same shape) and concatenates them in argument order.
func mergeRecords(files []string) ([]Record, error) {
	var all []Record
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var recs []Record
		if err := json.Unmarshal(data, &recs); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		all = append(all, recs...)
	}
	return all, nil
}

func writeOut(out string, records []Record) {
	buf, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		fatal(err)
	}
}

// observed runs one instrumented build+verify of the buildDim hypercube at
// Workers=4 and folds the observability layer's output into the snapshot:
// one phase/<name> record per pipeline phase span (duration in ns_op) and a
// final counters record with the full counter snapshot.
func observed(buildDim int) []Record {
	const workers = 4
	sink := obs.NewMetricsSink()
	ob := obs.New(sink)
	spec := core.HypercubeSpec(buildDim, 4, 0)
	spec.Workers = workers
	spec.Obs = ob
	lay, err := core.Build(spec)
	if err != nil {
		fatal(err)
	}
	if v, err := lay.VerifyOpts(nil, grid.CheckOptions{Workers: workers, Observer: ob}); err != nil {
		fatal(err)
	} else if len(v) > 0 {
		fatal(v[0])
	}
	m := ob.Flush()

	var records []Record
	for _, phase := range []string{"placement", "routing", "realization", "verify"} {
		rec, ok := sink.Span(phase)
		if !ok {
			fatal(fmt.Sprintf("observed run produced no %q span", phase))
		}
		records = append(records, Record{
			Bench:   "phase/" + phase,
			NsOp:    float64(rec.Dur.Nanoseconds()),
			Workers: workers,
		})
		fmt.Fprintf(os.Stderr, "%-28s %14.0f ns (one observed run)\n",
			"phase/"+phase, float64(rec.Dur.Nanoseconds()))
	}
	counters := make(map[string]int64, obs.NumCounters)
	for c := obs.Counter(0); int(c) < obs.NumCounters; c++ {
		counters[c.String()] = m.Get(c)
		fmt.Fprintf(os.Stderr, "%-28s %14d\n", "counter/"+c.String(), m.Get(c))
	}
	records = append(records, Record{Bench: "counters", Workers: workers, Counters: counters})
	return records
}

// deriveOut picks the snapshot filename when -out is not given: BENCH_<pr>.json
// for an explicit PR number, otherwise the highest-numbered BENCH_<n>.json in
// the current directory (so a bare rerun refreshes the latest snapshot rather
// than silently clobbering an older one), or BENCH_1.json if none exist yet.
func deriveOut(pr int) string {
	if pr > 0 {
		return fmt.Sprintf("BENCH_%d.json", pr)
	}
	matches, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		fatal(err)
	}
	best := 0
	for _, m := range matches {
		num := strings.TrimSuffix(strings.TrimPrefix(m, "BENCH_"), ".json")
		if n, err := strconv.Atoi(num); err == nil && n > best {
			best = n
		}
	}
	if best == 0 {
		best = 1
	}
	return fmt.Sprintf("BENCH_%d.json", best)
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "benchjson:", v)
	os.Exit(1)
}
