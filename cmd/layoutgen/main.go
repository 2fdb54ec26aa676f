// Command layoutgen builds a multilayer layout of a named network family,
// verifies it, and prints its cost statistics; -svg writes an SVG rendering.
// Families come from the mlvlsi registry (-list enumerates them with their
// parameters); -params sets family parameters directly, while the legacy
// -n/-k/-c/-seed flags keep their historical meanings per family.
//
// Examples:
//
//	layoutgen -network hypercube -n 8 -L 8
//	layoutgen -network kary -k 4 -n 3 -L 4 -folded
//	layoutgen -network butterfly -params m=5 -L 4 -svg butterfly.svg
//	layoutgen -network hsn -params levels=3,r=4 -workers 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mlvlsi"
	"mlvlsi/internal/cli"
)

// legacyAliases maps each family's registry parameters to the historical
// flag names, so pre-registry invocations keep working: the primary size
// flag -n and the secondary -k fed different parameters per family.
var legacyAliases = map[string]map[string]string{
	"hypercube":     {"n": "n"},
	"kary":          {"k": "k", "n": "n"},
	"ghc":           {"r": "k", "n": "n"},
	"mesh":          {"n": "n", "d": "k"},
	"folded":        {"n": "n"},
	"enhanced":      {"n": "n", "seed": "seed"},
	"ccc":           {"n": "n"},
	"rh":            {"n": "n"},
	"hsn":           {"levels": "k", "r": "n"},
	"hhn":           {"levels": "k", "m": "n"},
	"butterfly":     {"m": "n"},
	"isn":           {"m": "n"},
	"clusterc":      {"k": "k", "n": "n", "c": "c"},
	"star":          {"n": "n"},
	"pancake":       {"n": "n"},
	"bubblesort":    {"n": "n"},
	"transposition": {"n": "n"},
	"scc":           {"n": "n"},
}

func main() {
	network := flag.String("network", "hypercube", strings.Join(cli.FamilyNames(), " | "))
	n := flag.Int("n", 6, "primary size parameter (dimension / m / r)")
	k := flag.Int("k", 4, "radix for kary/ghc/clusterc, levels for hsn/hhn")
	c := flag.Int("c", 4, "cluster size for clusterc")
	params := flag.String("params", "", "comma-separated name=value family parameters (override legacy flags)")
	layers := flag.Int("L", 2, "wiring layers")
	nodeSide := flag.Int("side", 0, "node square side (0 = minimal)")
	folded := flag.Bool("folded", false, "folded row/column order (kary)")
	seed := flag.Int("seed", 1, "seed for enhanced-cube extra links")
	workers := flag.Int("workers", 0, "parallel build/verify workers (0 = GOMAXPROCS, 1 = serial)")
	svgPath := flag.String("svg", "", "write an SVG rendering to this file")
	skipVerify := flag.Bool("skip-verify", false, "skip the legality verifier (big instances)")
	strict := flag.Bool("strict", false, "also check Thompson-strict node clearance")
	simulate := flag.Bool("sim", false, "run a wire-delay permutation simulation")
	list := flag.Bool("list", false, "list the registered families and their parameters")
	timeout := flag.Duration("timeout", 0, "abort build and verify after this long (0 = no deadline)")
	maxCells := flag.Int("max-cells", 0, "fail fast if the planned grid exceeds this many cells (0 = unlimited)")
	verifyMem := flag.String("verify-mem", "", "cap the verifier's occupancy working set (bytes, k/m/g suffixes; empty = no cap)")
	counters := flag.Bool("counters", false, "print the observer counter totals after the run, one 'name value' line per counter")
	tracePath := flag.String("trace", "", "write a Chrome-trace (chrome://tracing) span file of the build and verify phases")
	flag.Parse()

	if *list {
		for _, f := range mlvlsi.Families() {
			fmt.Printf("%-14s %s\n", f.Name, f.Doc)
			for _, p := range f.Params {
				fmt.Printf("    %-8s [%d..%d] default %-4d %s\n", p.Name, p.Min, p.Max, p.Default, p.Doc)
			}
		}
		return
	}

	if err := cli.CheckFamily(*network); err != nil {
		cli.Usagef("-network: %v", err)
	}
	legacy := map[string]int{"n": *n, "k": *k, "c": *c, "seed": *seed}
	p := map[string]int{}
	for param, flagName := range legacyAliases[*network] {
		p[param] = legacy[flagName]
	}
	override, err := cli.ParseParams("-params", *params)
	if err != nil {
		cli.Usagef("%v", err)
	}
	for name, v := range override {
		p[name] = v
	}

	memBytes := 0
	if *verifyMem != "" {
		memBytes, err = cli.ParseBytes("-verify-mem", *verifyMem)
		if err != nil {
			cli.Usagef("%v", err)
		}
	}

	ctx, cancel := cli.Timeout(*timeout)
	defer cancel()
	obsv, traceDone, err := cli.Trace(*tracePath)
	if err != nil {
		cli.Usagef("%v", err)
	}
	if *counters && obsv == nil {
		// Counters need an observer even when no trace file is requested; a
		// sink-less one records totals and writes nothing.
		obsv = mlvlsi.NewObserver()
	}
	// The same request shape layoutd serves: the content key printed below
	// is the layoutd cache key for this exact geometry.
	req := mlvlsi.BuildRequest{
		Family:   mlvlsi.FamilySpec{Name: *network, Params: p},
		Layers:   *layers,
		NodeSide: *nodeSide, FoldedRows: *folded,
		Workers: *workers, MaxCells: *maxCells,
		VerifyMemBytes: memBytes,
	}
	o := req.Options()
	o.Context = ctx
	o.Observer = obsv
	start := time.Now()
	lay, err := mlvlsi.BuildSpecObserved(ctx, req, obsv)
	if err != nil {
		cli.Failf("build: %v", err)
	}

	if !*skipVerify {
		v, err := mlvlsi.VerifyLayout(lay, o)
		if err != nil {
			cli.Failf("verify: %v (after %v)", err, time.Since(start).Round(time.Millisecond))
		}
		if len(v) == 0 && *strict {
			v = lay.VerifyStrict()
		}
		if len(v) > 0 {
			cli.Failf("ILLEGAL LAYOUT: %d violations, first: %v", len(v), v[0])
		}
		if *strict {
			fmt.Println("verified: legal and Thompson-strict under the multilayer grid model")
		} else {
			fmt.Println("verified: layout is legal under the multilayer grid model")
		}
	}
	fmt.Println(lay.Stats())
	fmt.Printf("key: %s\n", req.Key())
	fmt.Println(lay.WireDistribution())
	fmt.Printf("max path wire (sampled): %d\n", mlvlsi.MaxPathWire(lay, 16))

	if *simulate {
		res := mlvlsi.Simulate(lay, mlvlsi.SimConfig{
			Pattern: mlvlsi.Permutation, Velocity: 1, Seed: 42,
		})
		fmt.Println("simulation:", res)
	}
	if *svgPath != "" {
		if err := os.WriteFile(*svgPath, []byte(mlvlsi.RenderSVG(lay, 4)), 0o644); err != nil {
			cli.Failf("svg: %v", err)
		}
		fmt.Println("wrote", *svgPath)
	}
	if *counters {
		m := obsv.Snapshot()
		for i := 0; i < mlvlsi.NumCounters; i++ {
			c := mlvlsi.Counter(i)
			fmt.Printf("%s %d\n", c, m.Get(c))
		}
	}
	if err := traceDone(); err != nil {
		cli.Failf("%v", err)
	}
	if *tracePath != "" {
		fmt.Println("wrote", *tracePath)
	}
}
