// Command layoutd serves the mlvlsi registry engines over HTTP: POST a
// canonical BuildRequest to /v1/build, /v1/verify, or /v1/svg and the daemon
// builds the layout — or returns it from a content-addressed cache when the
// same geometry was already built, however the request spelled it. Errors
// leave as one JSON envelope with a stable kind (param/budget/overload/
// canceled/request/internal) and the typed error's fields.
//
// Endpoints:
//
//	POST /v1/build     build (or fetch) a layout, return key + stats
//	POST /v1/verify    build through the same cache, run the verifier
//	POST /v1/svg       build and render (?scale=1..64, default 4)
//	GET  /v1/families  the family registry with parameter ranges
//	GET  /healthz      liveness (alias /livez)
//	GET  /readyz       readiness: 503 while draining or the queue is full
//	GET  /metricsz     the full observability counter snapshot
//
// Example:
//
//	layoutd -addr :8080 -cache-mb 256 -max-cells 200000000 &
//	curl -s localhost:8080/v1/build -d '{"family":{"name":"hypercube","params":{"n":8}},"layers":4}'
//
// The cache is keyed on the canonicalized request (defaults resolved, params
// sorted), so execution knobs — workers, max_cells, deadlines — never split
// the cache. -timeout bounds every request server-side on top of the
// client's own disconnect cancellation.
//
// Overload protection: at most -max-concurrent builds run at once (-family-
// limits caps individual families), at most -max-queue more wait, and
// everything beyond that — or whose deadline cannot cover the predicted
// wait — is shed with a 429/503 "overload" envelope carrying a Retry-After
// hint. With -degrade, a shed build is answered from a retained coarser
// layout of the same network when one exists, marked degraded.
//
// Shutdown is two-phase: SIGINT/SIGTERM first flips /readyz to 503 and sheds
// new builds (ReasonDraining) so a fronting balancer routes away, then after
// -drain-grace the listener closes and in-flight requests drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mlvlsi/internal/cli"
	"mlvlsi/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (:0 picks an ephemeral port)")
	cacheMB := flag.Int("cache-mb", 256, "build cache byte budget in MiB (0 = unlimited retention)")
	maxCells := flag.Int("max-cells", 0, "admission ceiling on planned grid cells per request (0 = admit everything)")
	workers := flag.Int("workers", 0, "clamp per-request build/verify workers (0 = requests choose, up to GOMAXPROCS)")
	verifyMem := flag.String("verify-mem", "", "clamp per-request verifier working set (bytes, k/m/g suffixes; empty = requests choose)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request deadline (0 = none)")
	maxConcurrent := flag.Int("max-concurrent", 0, "concurrent build/verify slots (0 = available parallelism)")
	maxQueue := flag.Int("max-queue", 0, "admission waiters beyond the slots (0 = 4x slots, negative = no waiting)")
	familyLimits := flag.String("family-limits", "", "per-family concurrency caps, e.g. hypercube=2,kary=1")
	degrade := flag.Bool("degrade", false, "answer shed builds from a retained coarser layout when one exists")
	drainGrace := flag.Duration("drain-grace", time.Second, "time between flipping readiness off and closing the listener on SIGTERM")
	tracePath := flag.String("trace", "", "write a Chrome-trace span file on shutdown (spans + counter snapshot)")
	flag.Parse()
	if flag.NArg() > 0 {
		cli.Usagef("layoutd takes no positional arguments (got %q)", flag.Args())
	}
	limits, err := parseFamilyLimits(*familyLimits)
	if err != nil {
		cli.Usagef("%v", err)
	}
	memBytes := 0
	if *verifyMem != "" {
		memBytes, err = cli.ParseBytes("-verify-mem", *verifyMem)
		if err != nil {
			cli.Usagef("%v", err)
		}
		if memBytes < 0 {
			cli.Usagef("-verify-mem: the admission clamp must be positive (per-request zero or negative means no cap)")
		}
	}

	obsv, traceDone, err := cli.Trace(*tracePath)
	if err != nil {
		cli.Usagef("%v", err)
	}
	s := serve.New(serve.Config{
		CacheBytes:     int64(*cacheMB) << 20,
		MaxCells:       *maxCells,
		Workers:        *workers,
		VerifyMemBytes: memBytes,
		Timeout:        *timeout,
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		FamilyLimits:   limits,
		Degrade:        *degrade,
		Obs:            obsv,
	})

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Two-phase drain: the signal flips readiness off immediately; the
	// listener only closes after the grace period, giving a fronting balancer
	// time to observe /readyz and route away. context.AfterFunc owns the
	// goroutine, so no raw go statement leaves this package.
	serveCtx, cancelServe := context.WithCancel(context.Background())
	defer cancelServe()
	grace := *drainGrace
	stopAfter := context.AfterFunc(sigCtx, func() {
		s.BeginDrain()
		fmt.Fprintf(os.Stderr, "layoutd: draining (readiness off), closing listener in %v\n", grace)
		time.Sleep(grace)
		cancelServe()
	})
	defer stopAfter()

	err = s.ListenAndServe(serveCtx, *addr, func(a net.Addr) {
		fmt.Fprintf(os.Stderr, "layoutd listening on %s\n", a)
	})
	if err != nil {
		cli.Failf("layoutd: %v", err)
	}
	if err := traceDone(); err != nil {
		cli.Failf("%v", err)
	}
}

// parseFamilyLimits parses "name=cap,name=cap" into the serve config map;
// "" means no caps.
func parseFamilyLimits(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	limits := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("-family-limits entry %q is not name=cap", part)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-family-limits cap %q for %s is not a positive integer", val, name)
		}
		limits[name] = n
	}
	return limits, nil
}
