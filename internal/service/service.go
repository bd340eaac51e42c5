// Package service implements sddsd, the resident experiment service: a
// long-lived HTTP/JSON server wrapping harness.Session behind the
// canonical harness.Request submission model. Every run is
// content-addressed (Request.ContentKey) into a persistent store shared
// across process lifetimes, so identical submissions — from any client,
// before or after a restart — dedup onto one simulation. The endpoint
// surface is versioned under /v1: runs, sweeps, run lookup, an SSE
// progress stream, status, doctor, and Prometheus metrics.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"sdds/internal/diag"
	"sdds/internal/harness"
	"sdds/internal/probe"
	"sdds/internal/shard"
	"sdds/internal/store"
)

// latencyBuckets are the fixed run-latency histogram bounds (seconds):
// spanning cache hits (sub-millisecond) through full-scale simulations.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 30, 120, 600}

// Options configures the service.
type Options struct {
	// StorePath is the persistent content-addressed result store (the
	// crash-safe JSONL journal). Required; the service always opens it in
	// resume mode so results survive restarts.
	StorePath string
	// Workers bounds concurrent cluster simulations; ≤0 means GOMAXPROCS.
	Workers int
	// RunTimeout, when positive, bounds each simulation's wall time (the
	// session-wide deadline; per-request TimeoutMS bounds individual calls).
	RunTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: inflight run handlers get this
	// long to finish before the listener is torn down (default 30s).
	DrainTimeout time.Duration
	// Tail is how many recent store entries /v1/doctor reports (default 8).
	Tail int
	// CaptureDir, when non-empty, arms diagnostics capture: failing,
	// timed-out, panicking, and watchdog-flagged runs are captured as
	// content-addressed bundles there, and the /v1/bundles endpoints serve
	// them. Empty disables capture (the endpoints then report it so).
	CaptureDir string
	// SlowMultiplier tunes the slow-run watchdog when capture is armed: a
	// run slower than multiplier × the rolling median of recent runs is
	// captured. 0 means the default (4); a negative value disarms only the
	// watchdog, keeping failure capture.
	SlowMultiplier float64
	// Log, when non-nil, receives structured service, session, and store
	// events (JSON slog records with per-run request_key correlation).
	Log *slog.Logger

	// LeaseTTL is how long a shard lease granted to a sddsworker lives
	// without renewal (default 15s).
	LeaseTTL time.Duration
	// ShardSize is the default requests-per-shard for sharded sweeps
	// (default 4); submitters may override per sweep.
	ShardSize int
	// MaxShardAttempts bounds lease grants per shard before it is
	// poisoned (default 5).
	MaxShardAttempts int
	// LocalGrace is how long a sharded sweep waits for any worker to
	// register before degrading to local single-process execution
	// (default 3s; negative disables the fallback entirely).
	LocalGrace time.Duration
}

// Server is the service state: one session, one persistent store, one
// event hub. Create with NewServer, serve with Serve (or mount Handler
// under an existing mux), and Close when done.
type Server struct {
	opts    Options
	journal *harness.Journal
	sess    *harness.Session
	hub     *hub
	start   time.Time
	log     *slog.Logger

	// diag is the diagnostics recorder behind /v1/bundles and the
	// session's automatic capture; nil when capture is disabled.
	diag *diag.Recorder
	// spanProbe is the session's span-only trace, captured into bundles;
	// nil when capture is disabled.
	spanProbe *probe.Probe

	// reg holds the service's own counters. probe.Registry is single-owner
	// by contract, so every access goes through regMu.
	regMu     sync.Mutex
	reg       *probe.Registry
	submitted probe.Counter
	simulated probe.Counter
	cached    probe.Counter
	failed    probe.Counter
	sweeps    probe.Counter
	// Compile-cache gauges, refreshed from the cache's counters each time
	// the registry is rendered (/v1/metrics, /v1/doctor).
	ccHits    probe.Gauge
	ccMisses  probe.Gauge
	ccEntries probe.Gauge
	// latency is the request-latency histogram (seconds), observed per
	// /v1/runs and sweep cell, cache hits included.
	latency probe.Histogram
	// Diagnostics gauges, refreshed at render time like the compile-cache
	// ones; registered only when capture is armed.
	diagCaptured  probe.Gauge
	diagFailures  probe.Gauge
	wdMedianMS    probe.Gauge
	spanCount     probe.Gauge
	spanContended probe.Gauge

	// Shard-sweep counters, driven by coordinator lifecycle events.
	shardSweeps     probe.Counter
	shardsLeased    probe.Counter
	shardsCompleted probe.Counter
	shardsRequeued  probe.Counter
	shardsDuplicate probe.Counter
	shardsPoisoned  probe.Counter

	// life spans the server's lifetime; the sharded sweeps' local-fallback
	// goroutines hang off it so Close reaps them.
	life     context.Context
	lifeStop context.CancelFunc

	// shardMu guards the active sweep coordinator (one at a time).
	shardMu sync.Mutex
	coord   *shard.Coordinator

	mu       sync.Mutex
	seen     map[string]harness.Request // content key → request, for GET /v1/runs/{key}
	inflight map[string]int             // content key → active submissions
}

// NewServer opens the store and builds the service around a fresh
// session preloaded with every stored result.
func NewServer(o Options) (*Server, error) {
	if o.StorePath == "" {
		return nil, errors.New("service: Options.StorePath is required")
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 30 * time.Second
	}
	if o.Tail <= 0 {
		o.Tail = 8
	}
	j, err := harness.OpenJournalWith(o.StorePath, true, o.Log)
	if err != nil {
		return nil, err
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.ShardSize <= 0 {
		o.ShardSize = 4
	}
	if o.MaxShardAttempts <= 0 {
		o.MaxShardAttempts = 5
	}
	if o.LocalGrace == 0 {
		o.LocalGrace = 3 * time.Second
	}
	s := &Server{
		opts:     o,
		journal:  j,
		hub:      newHub(),
		log:      o.Log,
		reg:      probe.NewRegistry(),
		seen:     make(map[string]harness.Request),
		inflight: make(map[string]int),
	}
	s.life, s.lifeStop = context.WithCancel(context.Background())
	if o.CaptureDir != "" {
		mult := o.SlowMultiplier
		if mult == 0 {
			mult = 4
		}
		s.diag, err = diag.NewRecorder(diag.Options{
			Dir:            o.CaptureDir,
			SlowMultiplier: mult,
			Log:            o.Log,
		})
		if err != nil {
			s.closeStores()
			return nil, err
		}
		s.spanProbe = probe.NewSpanProbe()
	}
	s.submitted = s.reg.Counter("sddsd.runs.submitted")
	s.simulated = s.reg.Counter("sddsd.runs.simulated")
	s.cached = s.reg.Counter("sddsd.runs.cached")
	s.failed = s.reg.Counter("sddsd.runs.failed")
	s.sweeps = s.reg.Counter("sddsd.sweeps.submitted")
	s.ccHits = s.reg.Gauge("compile_cache.hits")
	s.ccMisses = s.reg.Gauge("compile_cache.misses")
	s.ccEntries = s.reg.Gauge("compile_cache.entries")
	s.latency = s.reg.Histogram("sddsd.run_latency_seconds", latencyBuckets)
	s.shardSweeps = s.reg.Counter("sddsd.shards.sweeps")
	s.shardsLeased = s.reg.Counter("sddsd.shards.leased")
	s.shardsCompleted = s.reg.Counter("sddsd.shards.completed")
	s.shardsRequeued = s.reg.Counter("sddsd.shards.requeued")
	s.shardsDuplicate = s.reg.Counter("sddsd.shards.duplicate")
	s.shardsPoisoned = s.reg.Counter("sddsd.shards.poisoned")
	if s.diag != nil {
		s.diagCaptured = s.reg.Gauge("diag.bundles_captured")
		s.diagFailures = s.reg.Gauge("diag.capture_failures")
		s.wdMedianMS = s.reg.Gauge("diag.watchdog_median_ms")
		s.spanCount = s.reg.Gauge("probe.spans")
		s.spanContended = s.reg.Gauge("probe.span_contention")
	}
	s.sess = harness.NewSession(harness.SessionOptions{
		Workers:    o.Workers,
		RunTimeout: o.RunTimeout,
		Journal:    j,
		Progress:   s.onProgress,
		Probe:      s.spanProbe,
		Diag:       s.diag,
		Log:        o.Log,
	})
	s.start = time.Now() //sddsvet:ignore simdet -- wall-clock service uptime, not simulated time
	return s, nil
}

// onProgress fans session run events into the SSE hub and the service
// counters. The session serializes calls.
func (s *Server) onProgress(p harness.Progress) {
	ev := Event{
		Key:         p.Key,
		Done:        p.Done,
		Total:       p.Total,
		Hits:        p.Hits,
		Hit:         p.Hit,
		FromJournal: p.FromJournal,
		CompileProv: p.CompileProv,
		ElapsedMS:   p.Elapsed.Milliseconds(),
	}
	if p.Err != nil {
		ev.Err = p.Err.Error()
	}
	s.hub.broadcast(ev)
}

// runOne resolves one normalized request through the session, tracking
// it as inflight for GET /v1/runs/{key} and counting the outcome.
func (s *Server) runOne(ctx context.Context, req harness.Request) RunResponse {
	key := req.ContentKey()
	s.mu.Lock()
	s.seen[key] = req
	s.inflight[key]++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		if s.inflight[key]--; s.inflight[key] <= 0 {
			delete(s.inflight, key)
		}
		s.mu.Unlock()
	}()

	s.regMu.Lock()
	s.submitted.Inc()
	s.regMu.Unlock()

	start := time.Now() //sddsvet:ignore simdet -- wall-clock request latency, not simulated time
	res, hit, err := s.sess.RunRequest(ctx, req)
	elapsed := time.Since(start) //sddsvet:ignore simdet -- wall-clock request latency, not simulated time
	resp := RunResponse{
		Key:       key,
		Request:   req,
		Cached:    hit,
		ElapsedMS: elapsed.Milliseconds(),
	}
	s.regMu.Lock()
	switch {
	case err != nil:
		s.failed.Inc()
	case hit:
		s.cached.Inc()
	default:
		s.simulated.Inc()
	}
	s.latency.Observe(elapsed.Seconds())
	s.regMu.Unlock()
	if err != nil {
		resp.Error = err.Error()
		return resp
	}
	rec := harness.NewRunRecord(res)
	resp.Result = &rec
	return resp
}

// Status snapshots the service health surface behind GET /v1/status.
func (s *Server) Status() StatusResponse {
	simulated, hits := s.sess.Stats()
	s.mu.Lock()
	keys := make([]string, 0, len(s.inflight))
	for k := range s.inflight {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	resp := StatusResponse{
		UptimeMS:     time.Since(s.start).Milliseconds(),
		Workers:      s.sess.Workers(),
		InFlight:     s.sess.InFlight(),
		InFlightKeys: keys,
		CacheEntries: s.sess.MemoSize(),
		Preloaded:    s.sess.Preloaded(),
		Simulated:    simulated,
		CacheHits:    hits,
		StoreEntries: s.journal.Len(),
		StoreAppends: s.journal.Appends(),
		StorePath:    s.journal.Path(),
		Subscribers:  s.hub.count(),
		SetupGroups:  s.sess.SetupGroups(),
		CompileCache: s.sess.CompileCacheStats(),
	}
	if coord := s.activeCoord(); coord != nil {
		snap := coord.Snapshot()
		resp.Shards = &snap
	}
	return resp
}

// Doctor runs the diagnostic checks behind GET /v1/doctor: a store
// integrity scan, worker-pool sanity, store↔cache consistency, the
// journal tail, and the service metrics in Prometheus text form.
func (s *Server) Doctor() DoctorResponse {
	var checks []Check

	rep, err := store.Verify(s.journal.Path())
	switch {
	case err != nil:
		checks = append(checks, Check{Name: "store-integrity", Status: "fail", Detail: err.Error()})
	case rep.TornBytes > 0:
		checks = append(checks, Check{Name: "store-integrity", Status: "warn",
			Detail: fmt.Sprintf("%d torn trailing bytes (recoverable: truncated on next open)", rep.TornBytes)})
	case rep.DupKeys > 0:
		checks = append(checks, Check{Name: "store-integrity", Status: "warn",
			Detail: fmt.Sprintf("%d duplicate keys", rep.DupKeys)})
	default:
		checks = append(checks, Check{Name: "store-integrity", Status: "ok",
			Detail: fmt.Sprintf("%d entries, %d bytes intact", rep.Entries, rep.ValidBytes)})
	}

	inflight, workers := s.sess.InFlight(), s.sess.Workers()
	if inflight > workers {
		checks = append(checks, Check{Name: "worker-pool", Status: "fail",
			Detail: fmt.Sprintf("%d runs in flight exceeds the %d-worker pool", inflight, workers)})
	} else {
		checks = append(checks, Check{Name: "worker-pool", Status: "ok",
			Detail: fmt.Sprintf("%d/%d workers busy", inflight, workers)})
	}

	// Every stored result is either preloaded at startup or appended after
	// a run this process executed, so the cache must cover the store.
	if sl, cl := s.journal.Len(), s.sess.MemoSize(); sl > cl {
		checks = append(checks, Check{Name: "store-cache-consistency", Status: "warn",
			Detail: fmt.Sprintf("store holds %d entries but cache only %d", sl, cl)})
	} else {
		checks = append(checks, Check{Name: "store-cache-consistency", Status: "ok",
			Detail: fmt.Sprintf("cache (%d) covers store (%d)", cl, sl)})
	}

	// The compile memo's live counters.
	cc := s.sess.CompileCacheStats()
	checks = append(checks, Check{Name: "compile-cache", Status: "ok",
		Detail: fmt.Sprintf("%d entries, %d hits, %d misses", cc.Entries, cc.Hits, cc.Misses)})

	// Diagnostics capture health: bundles on disk and capture failures.
	var bundles []BundleSummary
	if s.diag == nil {
		checks = append(checks, Check{Name: "diagnostics", Status: "ok", Detail: "capture disabled"})
	} else {
		captured, failures := s.diag.Stats()
		infos, err := s.diag.List()
		switch {
		case err != nil:
			checks = append(checks, Check{Name: "diagnostics", Status: "fail", Detail: err.Error()})
		case failures > 0:
			checks = append(checks, Check{Name: "diagnostics", Status: "warn",
				Detail: fmt.Sprintf("%d capture failures (%d captured, %d bundles in %s)",
					failures, captured, len(infos), s.diag.Dir())})
		default:
			checks = append(checks, Check{Name: "diagnostics", Status: "ok",
				Detail: fmt.Sprintf("%d captured this lifetime, %d bundles in %s",
					captured, len(infos), s.diag.Dir())})
		}
		if n := len(infos); n > s.opts.Tail {
			infos = infos[:s.opts.Tail]
		}
		for _, b := range infos {
			bundles = append(bundles, newBundleSummary(b))
		}
	}

	status := "ok"
	for _, c := range checks {
		if c.Status == "fail" {
			status = "fail"
			break
		}
		if c.Status == "warn" {
			status = "warn"
		}
	}

	tailReqs := s.journal.Tail(s.opts.Tail)
	tail := make([]TailRun, 0, len(tailReqs))
	for _, r := range tailReqs {
		tail = append(tail, TailRun{Key: r.ContentKey(), Request: r})
	}

	return DoctorResponse{
		Status:  status,
		Checks:  checks,
		Store:   rep,
		Tail:    tail,
		Bundles: bundles,
		Metrics: s.metricsText(),
	}
}

// metricsText renders the service registry in Prometheus text form,
// refreshing the compile-cache gauges from the cache's live counters
// first so scrapes always see current values.
func (s *Server) metricsText() string {
	st := s.sess.CompileCacheStats()
	var b strings.Builder
	s.regMu.Lock()
	s.ccHits.Set(float64(st.Hits))
	s.ccMisses.Set(float64(st.Misses))
	s.ccEntries.Set(float64(st.Entries))
	if s.diag != nil {
		captured, failures := s.diag.Stats()
		s.diagCaptured.Set(float64(captured))
		s.diagFailures.Set(float64(failures))
		s.wdMedianMS.Set(float64(s.diag.Watchdog().Median().Milliseconds()))
		s.spanCount.Set(float64(s.spanProbe.SpanCount()))
		s.spanContended.Set(float64(s.spanProbe.SpanContention()))
	}
	s.reg.WritePrometheus(&b)
	s.regMu.Unlock()
	return b.String()
}

// CaptureBundle assembles a manual diagnostics bundle for one resolved
// request: its canonical form, the stored result (from the session cache
// or the persistent store), the service's caches' state, the journal
// tail, and the session trace. It answers POST /v1/bundles.
func (s *Server) CaptureBundle(req harness.Request) (*diag.BundleInfo, error) {
	if s.diag == nil {
		return nil, errors.New("service: diagnostics capture is disabled (start sddsd with -capture-dir)")
	}
	c := diag.Capture{
		Trigger:      diag.TriggerManual,
		Key:          req.Key(),
		ContentKey:   req.ContentKey(),
		Request:      req,
		CompileCache: s.sess.CompileCacheStats(),
		JournalTail:  s.journal.Tail(s.opts.Tail),
	}
	res, rerr, ok := s.sess.Cached(req)
	if !ok {
		// Not resolved this lifetime: the persistent store may still hold it.
		if sreq, sres, found, err := s.journal.Lookup(req.ContentKey()); err == nil && found {
			req, res, ok = sreq, sres, true
		}
	}
	if ok {
		c.Err = rerr
		if res != nil {
			rec := harness.NewRunRecord(res)
			c.Result = rec
			c.Metrics = res.Metrics
			c.Faults = res.Faults
		}
	}
	if p := s.spanProbe; p != nil {
		c.Trace = func(w io.Writer) error {
			return probe.WriteChromeTrace(w, p, probe.ChromeOptions{})
		}
	}
	return s.diag.Capture(c)
}

// Serve runs the HTTP server on ln until ctx is cancelled, then shuts
// down gracefully: the SSE stream is ended (so drain isn't held open by
// long-lived subscribers), inflight run handlers get DrainTimeout to
// finish through the session's context plumbing, and the store is closed
// last so every drained run is durably journaled.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}
	s.hub.shutdown()
	drainCtx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(drainCtx)
	if cerr := s.closeStores(); err == nil {
		err = cerr
	}
	return err
}

// closeStores stops the sweep-lifetime goroutines and closes the result
// journal.
func (s *Server) closeStores() error {
	s.lifeStop()
	return s.journal.Close()
}

// Close ends the event stream and closes the stores. Serve does this
// itself; Close is for servers mounted via Handler.
func (s *Server) Close() error {
	s.hub.shutdown()
	return s.closeStores()
}
