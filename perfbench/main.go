// Command perfbench is the repository's benchmark. It measures layoutd and
// the library end to end on three workloads (see workloads.go) and, in a
// separate traced run, splits each operation across the modules serve,
// resilience, mlvlsi, core/cluster, layout, grid and the Go runtime.
//
// Build and run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload serve-miss --seed 1 --seconds 10 --trace 0
//
// --workload is serve-hit, serve-miss, lib-sweep, or all (the three in turn).
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// prints the per-layer metrics of the traced run. Comment lines (#) carry
// the host, the run metadata and every metric with its unit and sample
// count; the last line is one JSON object with the keys correct, attempted,
// failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// commit is the source revision, stamped in by run.sh.
var commit = "unknown"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "serve-hit, serve-miss, lib-sweep, or all")
	seed := fs.Int64("seed", 1, "workload seed: picks the body spellings and, on serve-hit and lib-sweep, the pass order")
	seconds := fs.Float64("seconds", 10, "length of the timed window (the traced run splits it into two halves of at most 5 s)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
	traceFile := fs.String("trace-file", "", "with --trace 1, also write the Chrome trace to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	for _, name := range names {
		if err := runWorkload(stdout, name, *seed, *seconds, *trace == 1, *traceFile); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
	}
	return 0
}

// gated names the end-to-end metrics BENCHMARK.json bounds. The untraced
// run prints its timing metrics too, but leaves them out of the result: on a
// shared host they spread up to 25% across runs (NOTES.md, Steadiness).
var gated = []string{"setup_s", "alloc_kb_per_op", "live_heap_mb"}

func gatedOnly(m map[string]metric) map[string]metric {
	out := make(map[string]metric, len(gated))
	for _, k := range gated {
		out[k] = m[k]
	}
	return out
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runWorkload(out io.Writer, name string, seed int64, seconds float64, traced bool, traceFile string) error {
	p, err := newPlan(name, seed)
	if err != nil {
		return err
	}
	refs, err := references(p.items)
	if err != nil {
		return err
	}
	var (
		m map[string]metric
		w *window
	)
	if traced {
		m, w, err = perLayer(p, refs, seconds, traceFile)
	} else {
		m, w, err = endToEnd(p, refs, seconds)
	}
	if err != nil {
		return err
	}

	meta := func(v any) string {
		b, _ := json.Marshal(v) // maps of strings and numbers always encode
		return string(b)
	}
	fmt.Fprintf(out, "# host %s\n", meta(map[string]any{
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "go": runtime.Version(),
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "commit": commit,
	}))
	rounds := setupRounds
	if traced {
		rounds = 2 // one per half
	}
	fmt.Fprintf(out, "# run %s\n", meta(map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traced,
		"callers": callers, "setup_rounds": rounds, "items": len(p.items), "pass_ops": len(p.ops),
		"attempted": w.ops, "failed": w.failed,
	}))
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "# %-28s %14.6g %-10s n=%d\n", k, m[k].Value, m[k].Unit, m[k].n)
	}
	if w.failed > 0 {
		fmt.Fprintf(out, "# first failure: %v\n", w.firstErr)
	}
	if !traced {
		m = gatedOnly(m)
	}
	line, err := json.Marshal(result{Correct: w.failed == 0, Attempted: w.ops, Failed: w.failed, Metrics: m})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}
