package mlvlsi

import (
	"io"

	"mlvlsi/internal/obs"
)

// Observability. The build and verify engines report hierarchical spans
// (build → placement/routing/realization; verify → measure/walk/merge/
// resolve) and typed counters to an Observer set on Options.Observer. A nil
// observer — the default — disables observation at zero cost: the engines
// branch on nil and their hot paths stay allocation-free (the contract
// DESIGN.md pins and BenchmarkCheck enforces).

// Observer collects spans and counters and fans them out to sinks. Create
// one with NewObserver; set it on Options.Observer; call Flush once after
// the observed work to deliver the counter snapshot (and, for trace sinks,
// the file terminator).
type Observer = obs.Observer

// ObserverSink receives completed spans and, at flush time, the counter
// snapshot. TraceSink and MetricsSink are the two provided implementations;
// custom sinks only need these two methods.
type ObserverSink = obs.Sink

// SpanRecord is the immutable form of a completed span delivered to sinks.
type SpanRecord = obs.SpanRecord

// ObsMetrics is a point-in-time snapshot of every counter, indexed by the
// Counter* constants.
type ObsMetrics = obs.Metrics

// Counter names one typed observability counter.
type Counter = obs.Counter

// The typed counters the engines maintain. Counters whose value derives
// only from the work done (wires, unit edges, path choices, cells) are
// deterministic across worker counts; worker_count and budget_headroom are
// configuration gauges and merge_ns is wall-clock time.
const (
	CounterWiresRealized    = obs.WiresRealized
	CounterUnitEdgesChecked = obs.UnitEdgesChecked
	CounterDenseChecks      = obs.DenseChecks
	CounterSparseChecks     = obs.SparseChecks
	CounterCellsPlanned     = obs.CellsPlanned
	CounterCellsAllocated   = obs.CellsAllocated
	CounterBudgetHeadroom   = obs.BudgetHeadroom
	CounterWorkerCount      = obs.WorkerCount
	CounterMergeNanos       = obs.MergeNanos

	// Serving-cache counters, maintained by the layoutd daemon's
	// content-addressed build cache (internal/serve): lookups answered from
	// memory, lookups that built, entries evicted under the byte budget,
	// lookups that waited on an identical in-flight build, and the retained
	// byte gauge. Their totals depend on request arrival order, so they
	// reproduce only for serial request streams.
	CounterCacheHits          = obs.CacheHits
	CounterCacheMisses        = obs.CacheMisses
	CounterCacheEvictions     = obs.CacheEvictions
	CounterCacheInflightWaits = obs.CacheInflightWaits
	CounterCacheBytes         = obs.CacheBytes

	// Resilience counters, maintained by the serving layer's overload
	// protection and by resilience.Client (internal/resilience): admission
	// queue depth gauges, shed rejections by reason, degraded responses,
	// recovered handler panics, client retries, breaker opens, and injected
	// chaos faults. Like the cache counters they depend on request timing.
	CounterQueueDepth      = obs.QueueDepth
	CounterQueueMaxDepth   = obs.QueueMaxDepth
	CounterShedQueueFull   = obs.ShedQueueFull
	CounterShedDeadline    = obs.ShedDeadline
	CounterShedDraining    = obs.ShedDraining
	CounterDegradedServed  = obs.DegradedServed
	CounterPanicsRecovered = obs.PanicsRecovered
	CounterClientRetries   = obs.ClientRetries
	CounterBreakerOpens    = obs.BreakerOpens
	CounterChaosInjected   = obs.ChaosInjected

	// Tiled-verifier counters: full verifier runs, tiles walked (all of
	// them on a full check, only the dirty ones on an incremental
	// re-check), border unit-edge claims reconciled across tile seams, and
	// the peak tile-bitset working set gauge. See internal/obs for how
	// dense_checks, sparse_checks, cells_allocated and merge_ns count the
	// tiled verifier's runs.
	CounterTiledChecks           = obs.TiledChecks
	CounterTilesChecked          = obs.TilesChecked
	CounterBorderEdgesReconciled = obs.BorderEdgesReconciled
	CounterTileBytesPeak         = obs.TileBytesPeak
)

// NumCounters is the number of defined counters; every Counter* constant is
// a valid ObsMetrics index below it.
const NumCounters = obs.NumCounters

// TraceSink streams spans to w in the Chrome trace event format, loadable
// in chrome://tracing or Perfetto (see README "Observability"). The cmd
// tools' -trace flags are built on it.
type TraceSink = obs.TraceSink

// MetricsSink retains spans and the counter snapshot in memory, for
// programmatic inspection after a run.
type MetricsSink = obs.MetricsSink

// NewObserver creates an observer fanning out to the given sinks. An
// observer with no sinks still aggregates counters (read them with
// Observer.Snapshot or Flush).
func NewObserver(sinks ...ObserverSink) *Observer { return obs.New(sinks...) }

// NewTraceSink wraps a writer with a Chrome-trace span sink. Call
// Observer.Flush before closing the writer, then TraceSink.Err.
func NewTraceSink(w io.Writer) *TraceSink { return obs.NewTraceSink(w) }

// NewMetricsSink returns an empty in-memory sink.
func NewMetricsSink() *MetricsSink { return obs.NewMetricsSink() }

// ValidateTrace checks that data is a well-formed trace file as TraceSink
// writes it; cmd/tracelint and `make trace-smoke` gate on it.
func ValidateTrace(data []byte) error { return obs.ValidateTrace(data) }
