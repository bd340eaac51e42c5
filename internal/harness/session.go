package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"sdds/internal/cluster"
	"sdds/internal/compilecache"
	"sdds/internal/diag"
	"sdds/internal/loop"
	"sdds/internal/probe"
)

// simulateShared builds and executes the request's cluster run through
// the session's shared-prefix machinery: the run's (app, scale, procs)
// Setup is resolved through the setup cache (built once per sweep group,
// forked per variant) and the compile pass goes through the session's
// compile cache when one is enabled. The session probe is attached so the
// run's compile/simulate spans land in the session trace.
func (s *Session) simulateShared(ctx context.Context, req Request) (*cluster.Result, error) {
	prog, cfg, err := req.BuildRun()
	if err != nil {
		return nil, err
	}
	cfg.Probe = s.probe
	if s.compileCache != nil {
		cfg.CompileCache = s.compileCache
	}
	setup, err := s.setupFor(ctx, setupKey{app: req.App, scale: req.Scale, procs: cfg.Procs}, prog)
	if err != nil {
		return nil, err
	}
	return cluster.RunPrepared(ctx, setup, cfg)
}

// panicError is a worker panic converted to a per-run error. It keeps the
// panic value and stack addressable with errors.As, so the diagnostics
// layer can classify the failure as a panic (and capture a bundle tagged
// accordingly) without parsing the message.
type panicError struct {
	tag   string
	value any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("harness: run %s panicked: %v\n%s", e.tag, e.value, e.stack)
}

// safeSimulate runs the request's simulation, converting a panic anywhere
// in the compile or event loop into a per-run error carrying the stack.
// One misbehaving configuration then fails only its own run; sibling runs
// on the worker pool complete normally.
func (s *Session) safeSimulate(ctx context.Context, req Request) (res *cluster.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &panicError{tag: req.Tag(), value: r, stack: debug.Stack()}
		}
	}()
	return s.simulate(ctx, req)
}

// setupKey identifies one shared pre-simulation snapshot: sweep variants
// that agree on workload, scale and process count fork off one Setup.
type setupKey struct {
	app   string
	scale float64
	procs int
}

// setupEntry is a singleflight cell for one Setup build.
type setupEntry struct {
	done  chan struct{}
	setup *cluster.Setup
	err   error
}

// setupFor resolves the shared Setup for key through the session's setup
// cache: the first run of a sweep group builds it, every sibling variant
// waits and then forks off the same immutable snapshot. Build errors are
// deterministic properties of (app, scale, procs) and are cached like
// results.
func (s *Session) setupFor(ctx context.Context, key setupKey, prog *loop.Program) (*cluster.Setup, error) {
	s.setupMu.Lock()
	if e, ok := s.setups[key]; ok {
		s.setupMu.Unlock()
		select {
		case <-e.done:
			return e.setup, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &setupEntry{done: make(chan struct{})}
	s.setups[key] = e
	s.setupMu.Unlock()
	e.setup, e.err = cluster.NewSetup(prog, key.procs)
	close(e.done)
	return e.setup, e.err
}

// Progress is one run-level progress event, delivered after each planned
// run of a Prime/Run/RunAll call resolves.
type Progress struct {
	// Done and Total count resolved vs. planned runs of the current call.
	Done, Total int
	// Hits counts runs of the current call resolved from the session cache
	// (including waits on a run another experiment had in flight).
	Hits int
	// Key names the run, e.g. "sar/history+sched (theta=4)".
	Key string
	// Elapsed is the wall-clock duration of this run (≈0 on a cache hit).
	Elapsed time.Duration
	// Hit reports whether this run was a cache hit.
	Hit bool
	// Err is the run's error, if it failed (cancellation included).
	Err error
	// Metrics is the run's counter/gauge snapshot (nil when the run
	// failed). Cache hits carry the metrics of the original execution.
	Metrics []probe.Metric
	// FromJournal reports whether a hit was served from an entry a resumed
	// journal preloaded (a cross-process store hit) rather than from a run
	// this session executed.
	FromJournal bool
	// CompileProv names where the run's compile pass came from
	// ("compiled", "memo", "uncacheable"); empty for
	// scheduling-off runs and journal-restored results (the journal does
	// not record compiler output).
	CompileProv string
}

// ProgressFunc observes session progress. Calls are serialized; the
// callback must not invoke Prime/Run/RunAll on the same session.
type ProgressFunc func(Progress)

// SessionOptions configures NewSession.
type SessionOptions struct {
	// Workers bounds concurrent cluster simulations; ≤0 means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives a run-level event stream.
	Progress ProgressFunc
	// Probe, when non-nil, records session phase spans (plan derivation,
	// per-run execution) and is handed to every cluster run so compile and
	// simulate phases appear in the same trace. Because the worker pool is
	// concurrent it must be span-only (probe.NewSpanProbe); a ring-bearing
	// probe would race on record storage.
	Probe *probe.Probe
	// RunTimeout, when positive, bounds each cluster simulation's wall
	// time. A run that exceeds it fails with an error wrapping
	// context.DeadlineExceeded — and, unlike a parent cancellation, the
	// failure is cached: the deadline is a property of the configuration
	// at this timeout, so waiters and retries see the same verdict.
	RunTimeout time.Duration
	// Journal, when non-nil, records every successfully simulated run
	// (fsynced per append) and seeds the session cache with the entries a
	// resumed journal loaded, so an interrupted sweep re-executes only the
	// missing configurations.
	Journal *Journal
	// CompileCache, when non-nil, is the compile memo every scheduled run
	// resolves its compile pass through — share one across sessions to
	// reuse compiles between them. When nil the session creates its own.
	CompileCache *compilecache.Cache
	// DisableCompileCache compiles every scheduled run inline (the
	// pre-cache behaviour); for A/B measurement and ablation.
	DisableCompileCache bool
	// Diag, when non-nil, arms automatic diagnostics capture: every run
	// that fails, times out, or panics — and, when the recorder's
	// slow-run watchdog is armed, every run far slower than the rolling
	// median — is captured as a content-addressed bundle. Capture happens
	// after the run's result is fully collected, so it cannot perturb
	// simulation output; capture failures are logged, never surfaced as
	// run errors.
	Diag *diag.Recorder
	// Log, when non-nil, receives one structured event per executed run
	// (request_key, elapsed_ms, outcome) plus capture events. Per-run,
	// not per-simulation-event: the probe hot path stays allocation-free.
	Log *slog.Logger
}

// Session owns a run cache and a bounded worker pool for executing
// experiments. Methods are safe for concurrent use: overlapping
// Run/RunAll calls share the cache, and singleflight deduplication
// guarantees each distinct configuration is simulated at most once per
// session regardless of interleaving. Create one per logical batch of
// experiments.
type Session struct {
	workers    int
	progress   ProgressFunc
	probe      *probe.Probe   // span-only session trace; nil when untraced
	sem        chan struct{}  // worker-pool slots; len == workers
	runTimeout time.Duration  // per-run deadline; 0 = none
	journal    *Journal       // crash-safe result journal; nil = none
	diag       *diag.Recorder // diagnostics capture; nil = disabled
	log        *slog.Logger   // per-run structured log; nil = silent

	// simulate executes one claimed run; NewSession sets it to
	// simulateShared.
	simulate func(context.Context, Request) (*cluster.Result, error)

	progMu sync.Mutex // serializes RunRequest progress emissions

	mu        sync.Mutex
	memo      map[Request]*memoEntry
	preloaded int // runs seeded from a resumed journal

	// compileCache memoizes compile results across the worker pool; nil
	// when disabled.
	compileCache *compilecache.Cache
	// setups shares the pre-simulation Setup per (app, scale, procs).
	setupMu sync.Mutex
	setups  map[setupKey]*setupEntry

	simulated atomic.Int64 // cluster runs actually executed
	hits      atomic.Int64 // cache hits (completed or in-flight)
}

// memoEntry is a singleflight cell: the first goroutine to claim a key
// simulates it; everyone else waits on done.
type memoEntry struct {
	done chan struct{}
	res  *cluster.Result
	err  error
	// preloaded marks entries seeded from a resumed journal, so hits on
	// them report store provenance instead of in-process provenance.
	preloaded bool
}

// errAbandoned marks an entry whose owner was cancelled before the
// simulation ran; waiters retry (and re-claim) instead of inheriting the
// owner's cancellation.
var errAbandoned = errors.New("harness: run abandoned by cancelled owner")

// NewSession returns a Session with its own empty run cache.
func NewSession(o SessionOptions) *Session {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	s := &Session{
		workers:    w,
		progress:   o.Progress,
		probe:      o.Probe,
		sem:        make(chan struct{}, w),
		runTimeout: o.RunTimeout,
		journal:    o.Journal,
		diag:       o.Diag,
		log:        o.Log,
		memo:       make(map[Request]*memoEntry),
		setups:     make(map[setupKey]*setupEntry),
	}
	s.simulate = s.simulateShared
	if !o.DisableCompileCache {
		if o.CompileCache != nil {
			s.compileCache = o.CompileCache
		} else {
			s.compileCache = compilecache.New()
		}
	}
	if o.Journal != nil {
		s.preloaded = o.Journal.preload(s.memo)
	}
	return s
}

// CompileCacheStats snapshots the session's compile-cache counters; the
// zero Stats when the cache is disabled.
func (s *Session) CompileCacheStats() compilecache.Stats {
	if s.compileCache == nil {
		return compilecache.Stats{}
	}
	return s.compileCache.Stats()
}

// SetupGroups reports how many distinct (app, scale, procs) setup
// snapshots the session has built — the sweep groups sharing a
// pre-simulation fork point.
func (s *Session) SetupGroups() int {
	s.setupMu.Lock()
	defer s.setupMu.Unlock()
	return len(s.setups)
}

// Preloaded reports how many runs the session cache was seeded with from
// a resumed journal.
func (s *Session) Preloaded() int { return s.preloaded }

// Workers reports the worker-pool bound.
func (s *Session) Workers() int { return s.workers }

// MemoSize reports how many distinct configurations the session has
// resolved (or has in flight).
func (s *Session) MemoSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.memo)
}

// Stats reports lifetime counters: cluster simulations actually executed
// and cache hits served.
func (s *Session) Stats() (simulated, hits int64) {
	return s.simulated.Load(), s.hits.Load()
}

// runOutcome reports how run resolved a request: served from the session
// cache or simulated fresh, and — for hits — whether the entry came from
// a resumed journal rather than a run this session executed.
type runOutcome struct {
	hit         bool
	fromJournal bool
}

// run resolves one normalized request through the cache, simulating it
// under a worker slot if this call is the first to want it. The request
// is the memo key as given, so it must be canonical (Normalize, then no
// TimeoutMS).
func (s *Session) run(ctx context.Context, key Request) (*cluster.Result, runOutcome, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, runOutcome{}, err
		}
		s.mu.Lock()
		if e, ok := s.memo[key]; ok {
			s.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, runOutcome{}, ctx.Err()
			}
			if errors.Is(e.err, errAbandoned) {
				continue // owner cancelled before simulating; re-claim
			}
			s.hits.Add(1)
			return e.res, runOutcome{hit: true, fromJournal: e.preloaded}, e.err
		}
		e := &memoEntry{done: make(chan struct{})}
		s.memo[key] = e
		s.mu.Unlock()
		res, err := s.execute(ctx, key, e)
		return res, runOutcome{}, err
	}
}

// execute runs a claimed entry under a worker-pool slot.
func (s *Session) execute(ctx context.Context, key Request, e *memoEntry) (*cluster.Result, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.abandon(key, e)
		return nil, ctx.Err()
	}
	defer func() { <-s.sem }()
	if err := ctx.Err(); err != nil {
		s.abandon(key, e)
		return nil, err
	}
	runCtx := ctx
	cancel := func() {}
	if s.runTimeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, s.runTimeout)
	}
	start := time.Now() //sddsvet:ignore detflow -- wall-clock run timing for the watchdog and log, not simulated time
	res, err := s.safeSimulate(runCtx, key)
	elapsed := time.Since(start) //sddsvet:ignore detflow -- wall-clock run timing for the watchdog and log, not simulated time
	cancel()
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		if ctx.Err() != nil {
			// Cancellation is a property of this call's context, not of the
			// configuration; don't poison the cache with it. And it says
			// nothing about the run, so no diagnostics are captured either.
			s.abandon(key, e)
			return nil, err
		}
		// The per-run deadline fired: that IS a property of the
		// configuration (at this timeout), so cache the failure — waiters
		// and retries should see the same verdict, not re-simulate.
		err = fmt.Errorf("harness: run %s exceeded the %v per-run deadline: %w", key.Tag(), s.runTimeout, err)
	}
	e.res, e.err = res, err
	close(e.done)
	s.simulated.Add(1)
	s.finishRun(key, res, err, elapsed)
	if err == nil && s.journal != nil {
		if jerr := s.journal.append(key, res); jerr != nil {
			// The run itself succeeded and stays cached; surface the
			// journal failure to this caller so the sweep stops cleanly
			// (a dead journal cannot protect a crash-resume).
			return res, jerr
		}
	}
	return res, err
}

// finishRun is the diagnostics tail of every executed (non-abandoned)
// run: it classifies the outcome, logs it, feeds the slow-run watchdog,
// and captures a bundle when the outcome warrants one. It runs strictly
// after the run's result is final — nothing here can influence what the
// caller or the cache sees.
func (s *Session) finishRun(key Request, res *cluster.Result, err error, elapsed time.Duration) {
	trigger := ""
	var median time.Duration
	if err == nil {
		if slow, m := s.diag.Watchdog().Observe(elapsed); slow {
			trigger, median = diag.TriggerSlow, m
		}
	} else {
		var pe *panicError
		switch {
		case errors.As(err, &pe):
			trigger = diag.TriggerPanic
		case errors.Is(err, context.DeadlineExceeded):
			trigger = diag.TriggerTimeout
		default:
			trigger = diag.TriggerError
		}
	}
	if s.log != nil {
		if err != nil {
			s.log.Error("run failed", "request_key", key.Key(), "trigger", trigger,
				"elapsed_ms", elapsed.Milliseconds(), "err", err.Error())
		} else {
			attrs := []any{"request_key", key.Key(), "elapsed_ms", elapsed.Milliseconds()}
			if res != nil {
				attrs = append(attrs, "compile", res.CompileProvenance.String())
			}
			if trigger == diag.TriggerSlow {
				attrs = append(attrs, "slow", true, "median_ms", median.Milliseconds())
			}
			s.log.Info("run complete", attrs...)
		}
	}
	if trigger != "" && s.diag != nil {
		s.captureRun(trigger, key, res, err, elapsed, median)
	}
}

// captureRun assembles the diagnostics capture for one run: the canonical
// request (resubmitting it reproduces the run exactly — the simulator is
// deterministic in its inputs), the result evidence when there is any,
// the session's caches' state, the journal tail, and the session trace.
// Capture errors are the recorder's to log; a failed capture never fails
// the run it was documenting.
func (s *Session) captureRun(trigger string, key Request, res *cluster.Result, err error, elapsed, median time.Duration) {
	c := diag.Capture{
		Trigger:      trigger,
		Key:          key.Key(),
		ContentKey:   key.ContentKey(),
		Err:          err,
		Request:      key.canonical(),
		CompileCache: s.CompileCacheStats(),
		ElapsedMS:    elapsed.Milliseconds(),
		MedianMS:     median.Milliseconds(),
	}
	if res != nil {
		c.Result = NewRunRecord(res)
		c.Metrics = res.Metrics
		c.Faults = res.Faults
	}
	if s.journal != nil {
		c.JournalTail = s.journal.Tail(8)
	}
	if p := s.probe; p != nil {
		c.Trace = func(w io.Writer) error {
			return probe.WriteChromeTrace(w, p, probe.ChromeOptions{})
		}
	}
	s.diag.Capture(c)
}

// abandon releases a claimed-but-unsimulated entry so other waiters can
// re-claim the key under their own contexts.
func (s *Session) abandon(key Request, e *memoEntry) {
	s.mu.Lock()
	delete(s.memo, key)
	s.mu.Unlock()
	e.err = errAbandoned
	close(e.done)
}

// planFor derives the complete distinct run plan the experiments need, in
// deterministic order (first experiment to need a request wins its slot).
func planFor(exps []Experiment, c Config) []Request {
	seen := make(map[Request]bool)
	var out []Request
	for _, e := range exps {
		if e.plan == nil {
			continue
		}
		for _, req := range e.plan(c) {
			if seen[req] {
				continue
			}
			seen[req] = true
			out = append(out, req)
		}
	}
	return out
}

// Prime derives the run plan for the experiments and executes it over the
// worker pool, warming the session cache so the experiments themselves
// resolve from memory. It returns the first run error (cancellation
// included); the cache keeps whatever completed.
func (s *Session) Prime(ctx context.Context, exps []Experiment, c Config) error {
	c = c.withDefaults()
	planSpan := s.probe.StartSpan(probe.TrackPlan, "derive run plan")
	reqs := planFor(exps, c)
	planSpan.End()
	if len(reqs) == 0 {
		return ctx.Err()
	}
	var (
		pmu      sync.Mutex
		done     int
		hits     int
		firstErr error
	)
	total := len(reqs)
	work := make(chan Request)
	var wg sync.WaitGroup
	n := s.workers
	if n > total {
		n = total
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		track := probe.TrackWorkerBase + int32(i)
		go func() {
			defer wg.Done()
			for req := range work {
				tag := req.Tag()
				start := time.Now() //sddsvet:ignore detflow -- wall-clock progress telemetry, not simulated time
				runSpan := s.probe.StartSpan(track, tag)
				res, out, err := s.run(ctx, req)
				runSpan.End()
				pmu.Lock()
				done++
				if out.hit {
					hits++
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if s.progress != nil {
					p := Progress{
						Done: done, Total: total, Hits: hits,
						Key: tag, Elapsed: time.Since(start), //sddsvet:ignore detflow -- wall-clock progress telemetry, not simulated time
						Hit: out.hit, FromJournal: out.fromJournal, Err: err,
					}
					if res != nil {
						p.Metrics = res.Metrics
						p.CompileProv = res.CompileProvenance.String()
					}
					s.progress(p)
				}
				pmu.Unlock()
			}
		}()
	}
feed:
	for _, req := range reqs {
		select {
		case work <- req:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// Run executes one experiment: it primes the experiment's run plan in
// parallel, then renders the result (which resolves from the cache).
func (s *Session) Run(ctx context.Context, e Experiment, c Config) (*Result, error) {
	if e.run == nil {
		return nil, fmt.Errorf("harness: experiment %q has no run function", e.ID)
	}
	c = c.withDefaults()
	if err := s.Prime(ctx, []Experiment{e}, c); err != nil {
		return nil, fmt.Errorf("%s: %w", e.ID, err)
	}
	return e.run(ctx, s, c)
}

// RunAll derives the union plan of all the experiments up front, executes
// it over the worker pool, then renders each experiment in order. On error
// it returns the results completed so far alongside the error.
func (s *Session) RunAll(ctx context.Context, exps []Experiment, c Config) ([]*Result, error) {
	c = c.withDefaults()
	if err := s.Prime(ctx, exps, c); err != nil {
		return nil, err
	}
	out := make([]*Result, 0, len(exps))
	for _, e := range exps {
		r, err := e.run(ctx, s, c)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// RunRequest resolves one canonical Request through the session cache and
// worker pool: a cached key returns immediately, an in-flight key waits on
// the existing execution, and a new key simulates under a worker slot
// (journaled when the session has a store attached). The bool reports
// whether the run was served from cache. A positive Request.TimeoutMS
// bounds this call's wall time without poisoning the cache — unlike the
// session-wide RunTimeout, it is a property of the caller, not of the
// configuration.
func (s *Session) RunRequest(ctx context.Context, req Request) (*cluster.Result, bool, error) {
	norm, err := req.Normalize()
	if err != nil {
		return nil, false, err
	}
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	start := time.Now() //sddsvet:ignore detflow -- wall-clock progress telemetry, not simulated time
	res, out, err := s.run(ctx, norm.canonical())
	if s.progress != nil {
		p := Progress{
			Done: 1, Total: 1,
			Key: norm.Tag(), Elapsed: time.Since(start), //sddsvet:ignore detflow -- wall-clock progress telemetry, not simulated time
			Hit: out.hit, FromJournal: out.fromJournal, Err: err,
		}
		if out.hit {
			p.Hits = 1
		}
		if res != nil {
			p.Metrics = res.Metrics
			p.CompileProv = res.CompileProvenance.String()
		}
		s.progMu.Lock()
		s.progress(p)
		s.progMu.Unlock()
	}
	return res, out.hit, err
}

// Cached reports the session's resolved verdict for req, if it has one:
// the result (or the cached failure) and true, without executing or
// waiting on anything. An unknown or still-in-flight key returns false.
func (s *Session) Cached(req Request) (*cluster.Result, error, bool) {
	norm, err := req.Normalize()
	if err != nil {
		return nil, err, false
	}
	s.mu.Lock()
	e, ok := s.memo[norm.canonical()]
	s.mu.Unlock()
	if !ok {
		return nil, nil, false
	}
	select {
	case <-e.done:
	default:
		return nil, nil, false // still simulating
	}
	if errors.Is(e.err, errAbandoned) {
		return nil, nil, false
	}
	return e.res, e.err, true
}

// InFlight reports how many claimed configurations are still simulating.
func (s *Session) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.memo {
		select {
		case <-e.done:
		default:
			n++
		}
	}
	return n
}
