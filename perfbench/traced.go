package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"mlvlsi"
	"mlvlsi/internal/obs"
)

// traceHalf caps each half of the traced run; per-layer means need far
// fewer samples than the end-to-end tails, and the span store grows with
// every operation.
const traceHalf = 5 * time.Second

// perLayer is the traced run. Its first half is an untraced window on a
// fresh system; it gives the untraced p50 for trace.overhead_pct and the
// runtime.* figures, which the in-memory span store would otherwise
// inflate. Its second half is a traced window on another fresh system whose
// spans and counters give every other figure. Neither feeds the end-to-end
// metrics.
func perLayer(p *plan, refs []ref, seconds float64, traceFile string) (map[string]metric, *window, error) {
	half := min(time.Duration(seconds/2*float64(time.Second)), traceHalf)

	// Untraced half.
	sys, _, err := setUp(p, refs, nil)
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	before := read()
	uw := drive(sys, len(p.ops), time.Now().Add(half), false, true)
	after := read()
	sys.close()
	run, err := timing(uw, before, after)
	if err != nil {
		return nil, nil, err
	}
	up50 := run["p50_ms"].Value

	// Traced half.
	sink := obs.NewMetricsSink()
	o := obs.New(sink)
	sys, _, err = setUp(p, refs, o)
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	c0 := o.Snapshot()
	win := o.StartSpan("bench.window")
	tw := drive(sys, len(p.ops), time.Now().Add(half), false, false)
	win.End()
	c1 := o.Snapshot()
	var handler time.Duration
	if s, ok := sys.(*serveSystem); ok {
		handler = time.Duration(s.handlerNanos.Load())
	}
	sys.close()
	tp50 := median50(tw.lat[:])

	if err := writeTrace(o, sink, traceFile); err != nil {
		return nil, nil, err
	}

	// Sum span time by name over the timed window. The warm-up pass ended
	// before the window span opened, so a start time inside the window
	// marks a span of the window.
	winRec, _ := sink.Span("bench.window")
	spans := make(map[string]time.Duration)
	for _, s := range sink.Spans() {
		if s.ID != winRec.ID && s.Start >= winRec.Start {
			spans[s.Name] += s.Dur
		}
	}
	ops := float64(tw.ops)
	perOp := func(d time.Duration) float64 { return float64(d) / 1e6 / ops }
	delta := func(c obs.Counter) float64 { return float64(c1.Get(c) - c0.Get(c)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	var client time.Duration
	for _, l := range tw.lat {
		for _, ns := range l {
			client += time.Duration(ns)
		}
	}
	keyUS, err := keyCost(p)
	if err != nil {
		return nil, nil, err
	}
	programSpans := spans["build"] + spans["assemble"] + spans["verify"]
	var transport, handlerSelf, unattributed time.Duration
	if handler > 0 {
		transport = client - handler
		// Inside the handler, the program's spans and the separately timed
		// Canonical+Key are attributed; decode, cache bookkeeping, stats on
		// a miss and encode are not yet.
		handlerSelf = handler - programSpans
		unattributed = handlerSelf - time.Duration(keyUS*1e3*ops)
	} else {
		unattributed = client - spans["bench.build_family"] - spans["bench.stats"] - spans["bench.verify"]
	}
	lookups := delta(obs.CacheHits) + delta(obs.CacheMisses) + delta(obs.CacheInflightWaits)
	uops := float64(uw.ops)

	m := map[string]metric{
		"serve.handler_ms":           {perOp(handler), "ms", tw.ops},
		"serve.transport_ms":         {perOp(transport), "ms", tw.ops},
		"serve.handler_self_ms":      {perOp(handlerSelf), "ms", tw.ops},
		"serve.hit_ratio":            {ratio(delta(obs.CacheHits), lookups), "ratio", int(lookups)},
		"serve.evictions_per_op":     {delta(obs.CacheEvictions) / ops, "1/op", tw.ops},
		"serve.cache_mb":             {float64(c1.Get(obs.CacheBytes)) / mib, "MiB", 1},
		"resilience.queue_max_depth": {float64(c1.Get(obs.QueueMaxDepth)), "count", 1},
		"resilience.sheds":           {delta(obs.ShedQueueFull) + delta(obs.ShedDeadline) + delta(obs.ShedDraining), "count", tw.ops},
		"mlvlsi.key_us":              {keyUS, "us", len(p.ops)},
		"mlvlsi.build_family_ms":     {perOp(spans["bench.build_family"]), "ms", tw.ops},
		"core.build_ms":              {perOp(spans["build"]), "ms", tw.ops},
		"core.placement_ms":          {perOp(spans["placement"]), "ms", tw.ops},
		"core.routing_ms":            {perOp(spans["routing"]), "ms", tw.ops},
		"core.realization_ms":        {perOp(spans["realization"]), "ms", tw.ops},
		"cluster.assemble_ms":        {perOp(spans["assemble"]), "ms", tw.ops},
		"core.wires_per_op":          {delta(obs.WiresRealized) / ops, "wires/op", tw.ops},
		"core.cells_per_op":          {delta(obs.CellsPlanned) / ops, "cells/op", tw.ops},
		"core.scratch_reuse_ratio":   {ratio(delta(obs.ScratchReuses), delta(obs.CacheMisses)), "ratio", int(delta(obs.CacheMisses))},
		"layout.stats_ms":            {perOp(spans["bench.stats"]), "ms", tw.ops},
		"grid.verify_ms":             {perOp(spans["verify"]), "ms", tw.ops},
		"grid.measure_ms":            {perOp(spans["measure"]), "ms", tw.ops},
		"grid.walk_ms":               {perOp(spans["walk"]), "ms", tw.ops},
		"grid.merge_ms":              {perOp(spans["merge"]), "ms", tw.ops},
		"grid.resolve_ms":            {perOp(spans["resolve"]), "ms", tw.ops},
		"grid.unit_edges_per_op":     {delta(obs.UnitEdgesChecked) / ops, "edges/op", tw.ops},
		"grid.dense_checks":          {delta(obs.DenseChecks) / ops, "1/op", tw.ops},
		"grid.tiled_checks":          {delta(obs.TiledChecks) / ops, "1/op", tw.ops},
		"grid.sparse_checks":         {delta(obs.SparseChecks) / ops, "1/op", tw.ops},
		"runtime.gc_cpu_share":       {ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "ratio", uw.ops},
		"runtime.gc_cycles_per_kop":  {float64(after.gcCycles-before.gcCycles) / uops * 1000, "cycles/kop", uw.ops},
		"runtime.peak_heap_mb":       {float64(uw.peakHeap) / mib, "MiB", uw.ops / heapSampleEvery},
		"trace.unattributed_pct":     {100 * ratio(float64(unattributed), float64(client)), "%", tw.ops},
		"trace.overhead_pct":         {100 * (tp50 - up50) / up50, "%", tw.ops},
	}
	// The untraced half's end-to-end timing, which BENCHMARK.json does not
	// gate (NOTES.md, Steadiness), is reported here under run.*.
	for k, v := range run {
		m["run."+k] = v
	}
	// Both windows' checks count: a wrong answer is wrong in either.
	tw.ops += uw.ops
	tw.failed += uw.failed
	if tw.firstErr == nil {
		tw.firstErr = uw.firstErr
	}
	return m, tw, nil
}

// writeTrace replays every retained span (warm-up included, so parent links
// resolve) and the counter snapshot into a Chrome trace, checks it with
// obs.ValidateTrace, and writes it to path when path is not empty.
func writeTrace(o *obs.Observer, sink *obs.MetricsSink, path string) error {
	var buf bytes.Buffer
	ts := obs.NewTraceSink(&buf)
	for _, s := range sink.Spans() {
		ts.SpanEnd(s)
	}
	ts.Flush(o.Flush())
	if err := ts.Err(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := obs.ValidateTrace(buf.Bytes()); err != nil {
		return fmt.Errorf("trace fails validation: %w", err)
	}
	if path == "" {
		return nil
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// keyTiming is how long keyCost times Canonical plus Key.
const keyTiming = 200 * time.Millisecond

// keyCost times BuildRequest.Canonical plus Key, in microseconds per
// request, over the workload's own requests: the bodies as the daemon
// decodes them on the serve workloads, the items on lib-sweep.
func keyCost(p *plan) (float64, error) {
	reqs := make([]mlvlsi.BuildRequest, len(p.ops))
	for i, o := range p.ops {
		if o.body == nil {
			reqs[i] = p.items[o.item].request()
		} else if err := json.Unmarshal(o.body, &reqs[i]); err != nil {
			return 0, fmt.Errorf("decoding body %s: %w", o.body, err)
		}
	}
	n := 0
	t := time.Now()
	for time.Since(t) < keyTiming || n < len(reqs) {
		c, err := reqs[n%len(reqs)].Canonical()
		if err != nil {
			return 0, fmt.Errorf("canonicalizing %s: %w", p.items[p.ops[n%len(reqs)].item], err)
		}
		_ = c.Key()
		n++
	}
	return float64(time.Since(t).Nanoseconds()) / 1e3 / float64(n), nil
}
