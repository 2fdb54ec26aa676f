package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// rank returns the nearest-rank order statistic for percentile p (0 < p <=
// 100) of sorted: the value at 1-based rank ceil(p/100·n), and how many
// samples lie beyond it. sorted must be ascending and non-empty.
func rank(sorted []uint32, p float64) (v uint32, beyond int) {
	n := len(sorted)
	r := int(math.Ceil(p / 100 * float64(n)))
	r = min(max(r, 1), n)
	return sorted[r-1], n - r
}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// percentiles merges per-caller latencies and returns p50 and p95 in
// milliseconds. p95 is an error when fewer than minBeyond samples lie
// beyond it.
func percentiles(lat [][]uint32) (p50, p95 float64, n int, err error) {
	all := merged(lat)
	if len(all) == 0 {
		return 0, 0, 0, fmt.Errorf("no timed operations")
	}
	v50, _ := rank(all, 50)
	v95, beyond := rank(all, 95)
	if beyond < minBeyond {
		return 0, 0, len(all), fmt.Errorf("p95 has %d samples beyond it, want at least %d (n=%d)", beyond, minBeyond, len(all))
	}
	return nanosMS(v50), nanosMS(v95), len(all), nil
}

// median50 returns the p50 of the merged latencies in milliseconds; lat
// must hold at least one sample.
func median50(lat [][]uint32) float64 {
	v, _ := rank(merged(lat), 50)
	return nanosMS(v)
}

// merged returns every caller's latencies in one ascending slice.
func merged(lat [][]uint32) []uint32 {
	var all []uint32
	for _, l := range lat {
		all = append(all, l...)
	}
	slices.Sort(all)
	return all
}

func nanosMS(ns uint32) float64 { return float64(ns) / 1e6 }

// clampNanos stores a latency as uint32 nanoseconds (4.29 s ceiling), which
// keeps the per-operation record at 4 bytes.
func clampNanos(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// The runtime/metrics the benchmark reads.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mHeapLive   = "/memory/classes/heap/objects:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
)

// probe is a point-in-time reading of process resources.
type probe struct {
	wall       time.Time
	cpu        time.Duration // user+sys from getrusage
	allocBytes uint64
	heapLive   uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

func read() probe {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mHeapLive}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return probe{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: s[0].Value.Uint64(),
		heapLive:   s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

// heapLive reads the bytes of live and not-yet-swept heap objects.
func heapLive() uint64 {
	s := []metrics.Sample{{Name: mHeapLive}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

const mib = 1 << 20
