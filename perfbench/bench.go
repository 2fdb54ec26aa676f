package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"mlvlsi/internal/obs"
	"mlvlsi/internal/par"
)

// callers is the closed loop's concurrency: each caller sends its next
// operation only after the previous reply, like layoutd's real callers (cmd
// tools, CI jobs, loadgen -batch).
const callers = 2

// setupRounds is how many times a run sets up from scratch; setup_s is the
// median, and the last round's system serves the timed window.
const setupRounds = 7

// system is one system under test, started fresh for every set-up round.
type system interface {
	// do runs pass operation i for caller c, checks its output, and returns
	// how long the caller waited. warm relaxes the cache-outcome check in
	// the warm-up pass, whose first request for a key builds it.
	do(c, i int, warm bool) (time.Duration, error)
	close()
}

// start brings up the workload's system. A non-nil o turns on the traced
// mode: spans from the benchmark and the program, and the program's
// counters, go to o.
func start(p *plan, refs []ref, o *obs.Observer) system {
	if p.workload == "lib-sweep" {
		return &libSystem{plan: p, refs: refs, obs: o}
	}
	return startServe(p, refs, o)
}

// dispenser hands out operation indices in pass order. Once the deadline
// has passed it stops at the next pass boundary, so every window covers
// whole passes: each run issues the same sequence, and the cache ends in
// the same state. A zero deadline means exactly one pass.
type dispenser struct {
	mu       sync.Mutex
	next     int
	passLen  int
	deadline time.Time
}

func (d *dispenser) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.next > 0 && d.next%d.passLen == 0 && (d.deadline.IsZero() || !time.Now().Before(d.deadline)) {
		return 0, false
	}
	i := d.next % d.passLen
	d.next++
	return i, true
}

// window is what one drive over the system measured.
type window struct {
	lat      [callers][]uint32 // per-caller latencies in ns; failures read as the 4.29 s ceiling
	ops      int
	failed   int
	firstErr error
	wall     time.Duration
	peakHeap uint64 // max sampled live heap; only when sampling
}

// heapSampleEvery is how many operations a caller runs between live-heap
// samples when sampling is on.
const heapSampleEvery = 32

// drive runs whole passes with the closed loop of callers until deadline
// (zero: one pass).
func drive(sys system, passLen int, deadline time.Time, warm, sampleHeap bool) *window {
	d := &dispenser{passLen: passLen, deadline: deadline}
	w := &window{}
	var (
		failed [callers]int
		errs   [callers]error
		peaks  [callers]uint64
	)
	t0 := time.Now()
	par.Chunks(callers, callers, func(c, _, _ int) {
		lat := make([]uint32, 0, 1<<14)
		for n := 0; ; n++ {
			i, ok := d.take()
			if !ok {
				break
			}
			dur, err := sys.do(c, i, warm)
			if err != nil {
				failed[c]++
				if errs[c] == nil {
					errs[c] = err
				}
				dur = 1<<32 - 1
			}
			lat = append(lat, clampNanos(dur))
			if sampleHeap && n%heapSampleEvery == 0 {
				peaks[c] = max(peaks[c], heapLive())
			}
		}
		w.lat[c] = lat
	})
	w.wall = time.Since(t0)
	for c := range callers {
		w.ops += len(w.lat[c])
		w.failed += failed[c]
		if w.firstErr == nil {
			w.firstErr = errs[c]
		}
		w.peakHeap = max(w.peakHeap, peaks[c])
	}
	return w
}

// setUp starts a fresh system and runs the untimed warm-up pass over the
// whole operation sequence, which fills the cache, the scratch pool and the
// sync.Pools. It returns the system and the set-up time.
func setUp(p *plan, refs []ref, o *obs.Observer) (system, time.Duration, error) {
	runtime.GC()
	t := time.Now()
	sys := start(p, refs, o)
	w := drive(sys, len(p.ops), time.Time{}, true, false)
	d := time.Since(t)
	if w.failed > 0 {
		sys.close()
		return nil, d, fmt.Errorf("warm-up pass: %d of %d operations failed, first: %w", w.failed, w.ops, w.firstErr)
	}
	return sys, d, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value
}

// endToEnd is the untraced run: set up setupRounds times, then time one
// window of the given length on the last round's system.
func endToEnd(p *plan, refs []ref, seconds float64) (map[string]metric, *window, error) {
	var setups []float64
	var sys system
	for r := range setupRounds {
		s, d, err := setUp(p, refs, nil)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if r < setupRounds-1 {
			s.close()
		} else {
			sys = s
		}
	}
	defer sys.close()

	runtime.GC()
	before := read()
	w := drive(sys, len(p.ops), time.Now().Add(time.Duration(seconds*float64(time.Second))), false, false)
	after := read()
	// Two collections: the second empties the sync.Pool victim caches, whose
	// contents at this instant depend on timing. The benchmark's own latency
	// record is still live; it grows with throughput, so it is taken out to
	// leave what the program retains.
	runtime.GC()
	runtime.GC()
	live := heapLive() - latencyBytes(w)

	m, err := timing(w, before, after)
	if err != nil {
		return nil, nil, err
	}
	sort.Float64s(setups)
	m["setup_s"] = metric{setups[len(setups)/2], "s", len(setups)}
	m["alloc_kb_per_op"] = metric{float64(after.allocBytes-before.allocBytes) / 1024 / float64(w.ops), "KiB", w.ops}
	m["live_heap_mb"] = metric{float64(live) / mib, "MiB", 1}
	return m, w, nil
}

// timing returns a window's latency percentiles, throughput and CPU per
// operation.
func timing(w *window, before, after probe) (map[string]metric, error) {
	p50, p95, n, err := percentiles(w.lat[:])
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"p50_ms":        {p50, "ms", n},
		"p95_ms":        {p95, "ms", n},
		"ops_per_s":     {float64(w.ops) / w.wall.Seconds(), "1/s", w.ops},
		"cpu_ms_per_op": {float64(after.cpu-before.cpu) / 1e6 / float64(w.ops), "ms", w.ops},
	}, nil
}

func latencyBytes(w *window) uint64 {
	var b uint64
	for _, l := range w.lat {
		b += uint64(cap(l)) * 4
	}
	return b
}
