// Package obs is the observability layer for the build and verify engines:
// hierarchical spans over the pipeline phases (placement, routing,
// realization, verify and their sub-steps) plus a small set of typed
// counters, fanned out to pluggable sinks (a Chrome-trace writer and an
// in-memory metrics snapshot ship with the package).
//
// The central contract is zero overhead when disabled. The *Observer handle
// is a concrete pointer, not an interface, and every method — including
// those of the *Span values it hands out — is nil-safe: a nil observer
// yields nil spans, and calls on either are a nil-check branch that touches
// no memory and allocates nothing. Instrumentation points therefore sit at
// phase granularity on the engines' coordinator paths, never per wire or
// per unit edge, and the //mlvlsi:hotpath functions stay allocation-free
// with or without an observer attached (see DESIGN.md and BenchmarkCheck).
//
// Counters are classified (Class) by how they may vary across runs:
// ClassWork counters are schedule-independent — the engines add them once
// per phase from already-reduced aggregates, and atomic adds commute, so
// totals are identical for every worker count. ClassConfig gauges reflect
// the configuration and ClassTiming counters reflect wall time; neither is
// expected to reproduce.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter names one typed counter. Values index Metrics.Counts.
type Counter uint8

const (
	// WiresRealized counts wires realized by the build engines (ClassWork).
	WiresRealized Counter = iota
	// UnitEdgesChecked counts unit grid edges examined by the verifier
	// (ClassWork; added once per check from the measure pass's total).
	UnitEdgesChecked
	// DenseChecks counts verifier runs whose tile partition is a single
	// tile: the whole bounding box fits one occupancy bitset (ClassWork:
	// with no memory ceiling the partition depends only on the input).
	DenseChecks
	// SparseChecks counts verifier runs on the map rung: boxes the tiling
	// cannot partition, checked by grid.Reference's hash map (ClassWork).
	SparseChecks
	// CellsPlanned accumulates the planned grid occupancy of builds:
	// (width+1)·(height+1)·(L+1) per realized spec (ClassWork).
	CellsPlanned
	// CellsAllocated accumulates the tiled verifier's occupancy bitset
	// capacity in bits: one tile's unit-edge slots times the tiles walked
	// (ClassWork).
	CellsAllocated
	// BudgetHeadroom gauges MaxCells minus the planned cells of the most
	// recent budgeted build; negative when the plan was over budget
	// (ClassConfig, written with Set).
	BudgetHeadroom
	// WorkerCount gauges the most recently resolved worker fan-out
	// (ClassConfig, written with Set).
	WorkerCount
	// MergeNanos accumulates wall time of the tiled verifier's
	// border-reconcile phase (the "merge" span), in nanoseconds
	// (ClassTiming).
	MergeNanos
	// CacheHits counts serving-cache lookups answered from memory
	// (ClassServe).
	CacheHits
	// CacheMisses counts serving-cache lookups that had to build — exactly
	// one per singleflight group, however many requests piled onto it
	// (ClassServe).
	CacheMisses
	// CacheEvictions counts entries evicted to hold the cache under its byte
	// budget (ClassServe).
	CacheEvictions
	// CacheInflightWaits counts lookups that found an identical build already
	// in flight and waited for its result instead of building again
	// (ClassServe).
	CacheInflightWaits
	// CacheBytes gauges the retained bytes of the serving cache after the
	// most recent insert or eviction (ClassServe, written with Set).
	CacheBytes
	// QueueDepth gauges the admission queue's current waiter count
	// (ClassServe, written with Set).
	QueueDepth
	// QueueMaxDepth gauges the admission queue's high-water waiter count
	// since process start; the chaos sweep asserts it never exceeds the
	// configured bound (ClassServe, written with Set).
	QueueMaxDepth
	// ShedQueueFull counts requests shed because the admission queue was at
	// its bound (ClassServe).
	ShedQueueFull
	// ShedDeadline counts requests shed because their remaining deadline
	// could not cover the predicted queue wait (ClassServe).
	ShedDeadline
	// ShedDraining counts requests shed because the server was draining for
	// shutdown (ClassServe).
	ShedDraining
	// DegradedServed counts overloaded requests answered with a cached
	// coarser layout carrying an explicit degraded marker instead of a shed
	// rejection (ClassServe).
	DegradedServed
	// PanicsRecovered counts handler panics the recover middleware mapped to
	// the 500 internal envelope instead of killing the connection
	// (ClassServe).
	PanicsRecovered
	// ClientRetries counts retry attempts issued by resilience.Client after
	// a retryable failure (ClassServe).
	ClientRetries
	// BreakerOpens counts circuit-breaker transitions to the open state in
	// resilience.Client (ClassServe).
	BreakerOpens
	// ChaosInjected counts network faults injected by the resilience chaos
	// transport (ClassServe).
	ChaosInjected
	// ScratchReuses counts arena builds that reused an already-warm
	// BuildScratch (every build on a scratch after its first). Serial reuse
	// of one scratch is deterministic, but pooled scratches are handed to
	// builds in arrival order, so totals reproduce only for serial streams
	// (ClassServe).
	ScratchReuses
	// ScratchBytes gauges the retained slab capacity of the scratch used by
	// the most recent arena build (ClassConfig, written with Set).
	ScratchBytes
	// BatchPipelineStalls counts times a batch pipeline stage had to block —
	// the builder on a full hand-off queue or the verifier on an empty one —
	// a backpressure signal that depends on scheduling (ClassServe).
	BatchPipelineStalls
	// TiledChecks counts full verifier runs (grid.Verify calls that reach
	// the measure pass), whichever rung they take (ClassWork).
	TiledChecks
	// TilesChecked counts tiles walked by the tiled verifier: every tile of
	// the partition on a full check, exactly the dirty tiles on a
	// ReverifyTiles call (ClassWork; added once per check from the tile
	// count, which is what lets tests assert incremental re-checks touched
	// only the k dirty tiles).
	TilesChecked
	// BorderEdgesReconciled counts unit-edge claims processed by the tiled
	// verifier's border-reconciliation pass — edges whose two endpoints lie
	// in different tiles, checked against a shared map after the per-tile
	// walks (ClassWork: border membership is a function of the tiling, not
	// the schedule).
	BorderEdgesReconciled
	// TileBytesPeak gauges the peak occupancy-bitset working set of the most
	// recent tiled check: per-tile bitset bytes times the number of tiles
	// concurrently in flight (ClassConfig, written with Set — it reflects
	// the configured ceiling and worker fan-out).
	TileBytesPeak

	numCounters
)

// NumCounters is the number of defined counters; Metrics.Counts has this
// length and every Counter constant is a valid index below it.
const NumCounters = int(numCounters)

// String returns the counter's snake_case name, used as the metrics key in
// trace files and benchmark snapshots.
func (c Counter) String() string {
	switch c {
	case WiresRealized:
		return "wires_realized"
	case UnitEdgesChecked:
		return "unit_edges_checked"
	case DenseChecks:
		return "dense_checks"
	case SparseChecks:
		return "sparse_checks"
	case CellsPlanned:
		return "cells_planned"
	case CellsAllocated:
		return "cells_allocated"
	case BudgetHeadroom:
		return "budget_headroom"
	case WorkerCount:
		return "worker_count"
	case MergeNanos:
		return "merge_ns"
	case CacheHits:
		return "cache_hits"
	case CacheMisses:
		return "cache_misses"
	case CacheEvictions:
		return "cache_evictions"
	case CacheInflightWaits:
		return "cache_inflight_waits"
	case CacheBytes:
		return "cache_bytes"
	case QueueDepth:
		return "queue_depth"
	case QueueMaxDepth:
		return "queue_max_depth"
	case ShedQueueFull:
		return "shed_queue_full"
	case ShedDeadline:
		return "shed_deadline"
	case ShedDraining:
		return "shed_draining"
	case DegradedServed:
		return "degraded_served"
	case PanicsRecovered:
		return "panics_recovered"
	case ClientRetries:
		return "client_retries"
	case BreakerOpens:
		return "breaker_opens"
	case ChaosInjected:
		return "chaos_injected"
	case ScratchReuses:
		return "scratch_reuses"
	case ScratchBytes:
		return "scratch_bytes"
	case BatchPipelineStalls:
		return "batch_pipeline_stalls"
	case TiledChecks:
		return "tiled_checks"
	case TilesChecked:
		return "tiles_checked"
	case BorderEdgesReconciled:
		return "border_edges_reconciled"
	case TileBytesPeak:
		return "tile_bytes_peak"
	}
	return "counter_unknown"
}

// Class groups counters by reproducibility.
type Class uint8

const (
	// ClassWork counters are deterministic: identical totals for every
	// worker count and schedule, given the same inputs and options.
	ClassWork Class = iota
	// ClassConfig gauges reflect the run's configuration (worker count,
	// budget headroom); they differ across configurations by design.
	ClassConfig
	// ClassTiming counters are wall-clock derived and never reproduce.
	ClassTiming
	// ClassServe counters belong to the serving layer's cache: their totals
	// depend on request arrival order and interleaving (a lookup is a hit,
	// a miss, or an in-flight wait depending on what raced it there), so
	// they reproduce only for serial request streams.
	ClassServe
)

// Class returns the counter's reproducibility class.
func (c Counter) Class() Class {
	switch c {
	case BudgetHeadroom, WorkerCount, ScratchBytes, TileBytesPeak:
		return ClassConfig
	case MergeNanos:
		return ClassTiming
	case CacheHits, CacheMisses, CacheEvictions, CacheInflightWaits, CacheBytes,
		QueueDepth, QueueMaxDepth, ShedQueueFull, ShedDeadline, ShedDraining,
		DegradedServed, PanicsRecovered, ClientRetries, BreakerOpens, ChaosInjected,
		ScratchReuses, BatchPipelineStalls:
		return ClassServe
	}
	return ClassWork
}

// Metrics is a point-in-time snapshot of every counter.
type Metrics struct {
	Counts [NumCounters]int64
}

// Get returns one counter's value.
func (m Metrics) Get(c Counter) int64 { return m.Counts[c] }

// Attr is one key/value annotation on a span. Values are int64 — the
// engines annotate with sizes and counts, never strings, so attribute
// recording stays cheap and trace files stay uniform.
type Attr struct {
	Key string
	Val int64
}

// SpanRecord is the immutable form of a completed span delivered to sinks.
// ID is unique within the observer and Parent is the enclosing span's ID
// (zero for roots). Start is monotonic time since the observer's creation.
type SpanRecord struct {
	ID     uint64
	Parent uint64
	Name   string
	Start  time.Duration
	Dur    time.Duration
	Attrs  []Attr
}

// Sink receives completed spans and, at flush time, the counter snapshot.
// Sinks must tolerate concurrent SpanEnd calls being serialized by the
// observer: calls arrive one at a time, in span end order (children before
// their parents).
type Sink interface {
	SpanEnd(SpanRecord)
	Flush(Metrics)
}

// Observer collects spans and counters and fans them out to sinks. Create
// one with New; the zero value is not usable, but a nil *Observer is — it
// is the disabled state, and every method on it (and on the nil spans it
// returns) is a no-op.
type Observer struct {
	mu    sync.Mutex // serializes sink emission
	sinks []Sink
	epoch time.Time
	// now returns monotonic time since epoch; tests substitute a fake.
	now    func() time.Duration
	lastID atomic.Uint64
	counts [NumCounters]atomic.Int64
}

// New creates an observer fanning out to the given sinks. Sinks may be nil
// or empty, in which case only the counter snapshot (Snapshot/Flush) is
// observable.
func New(sinks ...Sink) *Observer {
	o := &Observer{sinks: sinks, epoch: time.Now()}
	o.now = func() time.Duration { return time.Since(o.epoch) }
	return o
}

// Add adds delta to a counter. Nil-safe and safe for concurrent use; adds
// commute, so ClassWork totals are schedule-independent.
func (o *Observer) Add(c Counter, delta int64) {
	if o == nil {
		return
	}
	o.counts[c].Add(delta)
}

// Set overwrites a gauge counter. Nil-safe and safe for concurrent use.
func (o *Observer) Set(c Counter, v int64) {
	if o == nil {
		return
	}
	o.counts[c].Store(v)
}

// Snapshot returns the current counter values without flushing sinks.
// Nil-safe: a nil observer returns zero metrics.
func (o *Observer) Snapshot() Metrics {
	var m Metrics
	if o == nil {
		return m
	}
	for i := range m.Counts {
		m.Counts[i] = o.counts[i].Load()
	}
	return m
}

// Flush snapshots the counters, delivers the snapshot to every sink, and
// returns it. Call it once after the observed work; trace sinks write their
// counter event and closing bracket here. Nil-safe.
func (o *Observer) Flush() Metrics {
	m := o.Snapshot()
	if o == nil {
		return m
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, s := range o.sinks {
		s.Flush(m)
	}
	return m
}

// StartSpan opens a root span. Nil-safe: a nil observer returns a nil span,
// on which every Span method is a no-op.
func (o *Observer) StartSpan(name string) *Span {
	if o == nil {
		return nil
	}
	return &Span{obs: o, id: o.lastID.Add(1), name: name, start: o.now()}
}

// emit delivers a completed span to the sinks, serialized under o.mu.
func (o *Observer) emit(rec SpanRecord) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, s := range o.sinks {
		s.SpanEnd(rec)
	}
}

// Span is one timed, attributed region of work. Spans form a tree through
// Child; a span is delivered to sinks when End is called (a span never
// ended is dropped). A single span's methods are not safe for concurrent
// use, but distinct spans of one observer may end concurrently.
//
// All methods are nil-safe: the nil *Span is the disabled state handed out
// by a nil observer, and Child on it returns nil again, so instrumented
// code never branches on observer presence itself.
type Span struct {
	obs    *Observer
	id     uint64
	parent uint64
	name   string
	start  time.Duration
	attrs  []Attr
	ended  bool
}

// Child opens a sub-span. Nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := s.obs.StartSpan(name)
	c.parent = s.id
	return c
}

// SetAttr annotates the span, returning it for chaining. Nil-safe.
func (s *Span) SetAttr(key string, v int64) *Span {
	if s == nil {
		return s
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: v})
	return s
}

// Observer returns the owning observer, so code holding only a span can
// add counters. Nil-safe: a nil span yields a nil (disabled) observer.
func (s *Span) Observer() *Observer {
	if s == nil {
		return nil
	}
	return s.obs
}

// End completes the span, delivers it to the sinks, and returns its
// duration. Ending twice is a no-op the second time. Nil-safe: a nil span
// returns 0, which keeps derived timing counters silent when disabled.
func (s *Span) End() time.Duration {
	if s == nil || s.ended {
		return 0
	}
	s.ended = true
	d := s.obs.now() - s.start
	if d < 0 {
		d = 0
	}
	s.obs.emit(SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start,
		Dur:    d,
		Attrs:  s.attrs,
	})
	return d
}
