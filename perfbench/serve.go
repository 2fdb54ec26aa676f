package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"mlvlsi"
	"mlvlsi/internal/obs"
	"mlvlsi/internal/serve"
)

// daemonTimeout is layoutd's default per-request deadline.
const daemonTimeout = 2 * time.Minute

// serveSystem is an in-process layoutd (serve.New(...).Handler()) behind a
// loopback HTTP listener, plus a keep-alive net/http client for the callers.
type serveSystem struct {
	plan   *plan
	refs   []ref
	want   string // X-Cache every timed response must carry
	srv    *serve.Server
	hs     *httptest.Server
	tr     *http.Transport
	client *http.Client
	url    string
	obs    *obs.Observer
	bufs   [callers]bytes.Buffer
	// handlerNanos sums time inside the daemon's handler; only the traced
	// run installs the middleware that adds to it.
	handlerNanos atomic.Int64
}

// startServe starts a fresh daemon with the workload's cache budget. A
// non-nil o is passed as serve.Config.Obs and also times the handler.
func startServe(p *plan, refs []ref, o *obs.Observer) *serveSystem {
	s := &serveSystem{plan: p, refs: refs, obs: o}
	cfg := serve.Config{Timeout: daemonTimeout, Obs: o, Log: io.Discard}
	switch p.workload {
	case "serve-hit":
		s.want = "HIT"
		// layoutd's default budget (256 MiB) holds the whole working set.
		cfg.CacheBytes = 256 * mib
	case "serve-miss":
		s.want = "MISS"
		var total int64
		for _, r := range refs {
			total += r.mem
		}
		cfg.CacheBytes = total / missCacheShare
	}
	s.srv = serve.New(cfg)
	h := s.srv.Handler()
	if o != nil {
		h = s.timed(h)
	}
	s.hs = httptest.NewServer(h)
	s.tr = &http.Transport{MaxIdleConnsPerHost: callers, DisableCompression: true}
	s.client = &http.Client{Transport: s.tr}
	s.url = s.hs.URL + "/v1/build"
	return s
}

// timed is the benchmark's middleware: it measures time inside the
// daemon's handler and records it as a bench.handler span.
func (s *serveSystem) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := s.obs.StartSpan("bench.handler")
		t := time.Now()
		h.ServeHTTP(w, r)
		s.handlerNanos.Add(int64(time.Since(t)))
		sp.End()
	})
}

// buildResponse is the part of the /v1/build body the benchmark checks.
type buildResponse struct {
	Cache    string       `json:"cache"`
	Stats    mlvlsi.Stats `json:"stats"`
	MemBytes int64        `json:"mem_bytes"`
}

func (s *serveSystem) do(c, i int, warm bool) (time.Duration, error) {
	o := s.plan.ops[i]
	it := s.plan.items[o.item]
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(o.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	buf := &s.bufs[c]
	buf.Reset()
	sp := s.obs.StartSpan("bench.request")
	t := time.Now()
	resp, err := s.client.Do(req)
	if err == nil {
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(t)
	sp.End()
	if err != nil {
		return d, fmt.Errorf("%s: %w", it, err)
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("%s: status %d: %s", it, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	var got buildResponse
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		return d, fmt.Errorf("%s: decoding response: %v", it, err)
	}
	if x := resp.Header.Get("X-Cache"); (!warm && x != s.want) || x != got.Cache {
		return d, fmt.Errorf("%s: X-Cache %q, body cache %q, want %q", it, x, got.Cache, s.want)
	}
	if ref := s.refs[o.item]; got.Stats != ref.stats || got.MemBytes != ref.mem {
		return d, fmt.Errorf("%s: got stats %+v mem %d, reference %+v mem %d", it, got.Stats, got.MemBytes, ref.stats, ref.mem)
	}
	return d, nil
}

func (s *serveSystem) close() {
	s.hs.Close()
	s.tr.CloseIdleConnections()
}
