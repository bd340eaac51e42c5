package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"sdds/internal/cluster"
	"sdds/internal/compiler"
	"sdds/internal/harness"
	"sdds/internal/power"
	"sdds/internal/probe"
	"sdds/internal/workloads"
)

// bench is one benchmark run of one workload: its generated inputs, the
// fingerprint of every distinct request it has seen, and its failures.
type bench struct {
	w    workload
	seed int64
	out  string
	tr   *tracer // nil unless this is the traced run

	reqs []harness.Request // request order of a pass (all but the sweep)
	plan []harness.Request // distinct runs of a pass, in key order
	exps []harness.Experiment
	cfg  harness.Config // the sweep's harness config

	fps      map[string]string          // request key → fingerprint
	results  map[string]*cluster.Result // request key → first result
	rendered string                     // the sweep's rendered tables

	attempted, failed int
	failures          []string
}

func newBench(w workload, seed int64, out string) (*bench, error) {
	b := &bench{w: w, seed: seed, out: out, fps: map[string]string{}, results: map[string]*cluster.Result{}}
	var err error
	if b.plan, err = w.plan(seed); err != nil {
		return nil, err
	}
	if w.sweep() {
		b.cfg = w.sweepConfig(seed)
		b.exps, err = experiments()
	} else {
		b.reqs, err = w.requests(seed)
	}
	return b, err
}

// fail records one failed run or check.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

// check counts one run and compares its fingerprint with every earlier
// run of the same request: timed passes, the warm-up and the decomposed
// run must all agree bit for bit.
func (b *bench) check(key string, res *cluster.Result, err error) {
	b.attempted++
	if err != nil {
		b.fail("%s: %v", key, err)
		return
	}
	fp := strings.Join(cluster.Fingerprint(res), " ")
	prev, seen := b.fps[key]
	switch {
	case !seen:
		b.fps[key] = fp
		b.results[key] = res
	case prev != fp:
		b.fail("%s: fingerprint differs between runs of the same request", key)
	}
}

// setUp builds every program of the workload and its cluster setup, then
// runs one untimed warm-up request, setupReps times. The first repetition
// is timed from process start. It returns each repetition's time and the
// per-repetition totals spent in workloads.Spec.Build and
// cluster.NewSetup (those two only under the tracer).
func (b *bench) setUp(ctx context.Context) (total, build, newSetup []float64) {
	procs := cluster.DefaultConfig().Procs
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			runtime.GC()
		}
		start := time.Now()
		if rep == 0 {
			start = procStart
		}
		root := b.tr.begin(spanSetupRep, noParent, "")
		var bs, ss time.Duration
		for _, app := range b.w.apps {
			spec, err := workloads.ByName(app)
			if err != nil {
				b.fail("setup: %v", err)
				continue
			}
			i := b.tr.begin(spanBuild, root, app)
			prog := spec.Build(scale)
			bs += b.tr.end(i)
			i = b.tr.begin(spanNewSetup, root, app)
			_, err = cluster.NewSetup(prog, procs)
			ss += b.tr.end(i)
			if err != nil {
				b.fail("setup %s: %v", app, err)
			}
		}
		warm := b.warmUp()
		warm.TimeoutMS = runTimeout.Milliseconds()
		i := b.tr.begin(spanRunReq, root, warm.Key())
		res, _, err := b.session().RunRequest(ctx, warm)
		b.tr.end(i)
		b.check(warm.Key(), res, err)
		b.tr.end(root)
		total = append(total, time.Since(start).Seconds())
		build = append(build, bs.Seconds())
		newSetup = append(newSetup, ss.Seconds())
	}
	return total, build, newSetup
}

// warmUp returns the set-up's warm-up request: the first app under the
// first variant (for the sweep, the first app's scheduled history-policy
// run), with the simulation seed the passes give it. It has the same shape
// on every seed, so set-up does the same work on every seed.
func (b *bench) warmUp() harness.Request {
	want := harness.Request{App: b.w.apps[0], Policy: "history-based", Scheduling: true}
	if !b.w.sweep() {
		want = b.w.variants[0]
		want.App = b.w.apps[0]
	}
	want.Scale = scale
	if n, err := want.Normalize(); err == nil {
		for _, r := range b.plan {
			if r.App == n.App && r.Policy == n.Policy && r.Scheduling == n.Scheduling && r.Variant == n.Variant {
				return r
			}
		}
	}
	return b.plan[0]
}

// session returns a fresh session as the workload runs single requests:
// one worker, or the sweep's 2-worker pool.
func (b *bench) session() *harness.Session {
	o := harness.SessionOptions{Workers: 1, RunTimeout: runTimeout}
	if b.w.sweep() {
		o.Workers = sweepWorkers
	}
	return harness.NewSession(o)
}

// passStats is one pass over the workload's request set.
type passStats struct {
	wall       float64   // host seconds for the pass, forced collections excluded
	runs       []float64 // host seconds per executed run
	requested  int64     // runs asked of the harness, hits included
	simulated  int64     // runs the harness executed
	hits       int64     // runs served from the session memo
	groups     int64     // setup snapshots built
	ccHits     int64     // compile-cache hits
	ccMisses   int64     // compile-cache misses
	journalRec int64     // runs appended to the journal
	journalB   int64     // journal file bytes
	workers    int
}

// pass runs the workload's request set once, untraced.
func (b *bench) pass(ctx context.Context) passStats {
	if b.w.sweep() {
		return b.sweepPass(ctx, nil)
	}
	ps := passStats{workers: 1}
	for _, req := range b.reqs {
		req.TimeoutMS = runTimeout.Milliseconds()
		runtime.GC() // start each request from a collected heap, as a fresh process does
		start := time.Now()
		s := b.session()
		t := time.Now()
		res, hit, err := s.RunRequest(ctx, req)
		d := time.Since(t).Seconds()
		ps.wall += time.Since(start).Seconds()
		if err == nil && hit {
			err = fmt.Errorf("served from a fresh session's memo")
		}
		b.check(req.Key(), res, err)
		if err == nil {
			ps.runs = append(ps.runs, d)
		}
		sim, hits := s.Stats()
		cc := s.CompileCacheStats()
		ps.requested += sim + hits
		ps.simulated += sim
		ps.hits += hits
		ps.groups += int64(s.SetupGroups())
		ps.ccHits += cc.Hits
		ps.ccMisses += cc.Misses
	}
	return ps
}

// sweepPass runs the four figures through one RunAll on a fresh journaled
// session, then checks every distinct run and the rendered tables. Under
// a tracer the RunAll is a span and the session's span probe is attached.
func (b *bench) sweepPass(ctx context.Context, tr *tracer) passStats {
	ps := passStats{workers: sweepWorkers}
	dir, err := os.MkdirTemp(b.out, "journal-")
	if err != nil {
		b.fail("journal dir: %v", err)
		return ps
	}
	defer os.RemoveAll(dir)
	j, err := harness.OpenJournal(filepath.Join(dir, "sweep.journal"), false)
	if err != nil {
		b.fail("journal: %v", err)
		return ps
	}
	var sp *probe.Probe
	if tr != nil {
		sp = probe.NewSpanProbe()
	}
	s := harness.NewSession(harness.SessionOptions{
		Workers: sweepWorkers, RunTimeout: runTimeout, Journal: j, Probe: sp,
		// Progress calls are serialized by the session and all happen
		// before RunAll returns.
		Progress: func(p harness.Progress) {
			if p.Err == nil && !p.Hit {
				ps.runs = append(ps.runs, p.Elapsed.Seconds())
			}
		},
	})
	runtime.GC()
	root := tr.begin(spanRunAll, noParent, "batch")
	start := time.Now()
	results, err := s.RunAll(ctx, b.exps, b.cfg)
	ps.wall = time.Since(start).Seconds()
	tr.end(root)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		b.fail("RunAll: %v", err)
	}
	ps.simulated, ps.hits = s.Stats()
	ps.requested = ps.simulated + ps.hits
	ps.groups = int64(s.SetupGroups())
	cc := s.CompileCacheStats()
	ps.ccHits, ps.ccMisses = cc.Hits, cc.Misses
	ps.journalRec = j.Appends()
	if fi, err := os.Stat(j.Path()); err == nil {
		ps.journalB = fi.Size()
	}
	for _, req := range b.plan {
		res, rerr, ok := s.Cached(req)
		if !ok && rerr == nil {
			rerr = fmt.Errorf("not resolved by RunAll")
		}
		b.check(req.Key(), res, rerr)
	}
	var sb strings.Builder
	for _, r := range results {
		sb.WriteString(r.Render())
	}
	switch {
	case b.rendered == "":
		b.rendered = sb.String()
	case b.rendered != sb.String():
		b.fail("sweep: rendered tables differ between batches")
	}
	if sp != nil {
		if err := sessionTrace(sp); err != nil {
			b.fail("%v", err)
		}
	}
	return ps
}

// measurement is the timed, untraced phase.
type measurement struct {
	passes  []passStats
	runs    []float64 // every executed run, pooled over passes
	allocMB float64   // Go heap MB allocated during the phase
	rssMB   float64   // peak resident set of the process so far
}

// minRuns is the executed-run count at which run_s.p90 has ten samples
// above it; the measured phase runs until it has at least that many.
var minRuns = samplesFor(0.90)

// measure runs whole passes until d has elapsed and at least minRuns runs
// were executed, or maxMeasure is reached.
func (b *bench) measure(ctx context.Context, d time.Duration) measurement {
	var m measurement
	before := totalAlloc()
	start := time.Now()
	for len(m.passes) == 0 || ((time.Since(start) < d || len(m.runs) < minRuns) && time.Since(start) < maxMeasure) {
		if ctx.Err() != nil {
			b.fail("interrupted: %v", ctx.Err())
			break
		}
		ps := b.pass(ctx)
		m.passes = append(m.passes, ps)
		m.runs = append(m.runs, ps.runs...)
	}
	m.allocMB = float64(totalAlloc()-before) / bytesPerMB
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return m
}

// decomposedPass runs every distinct request of a pass call by call under
// tr. The sweep's pass shares one compile memo, as its session does.
func (b *bench) decomposedPass(ctx context.Context, tr *tracer) (time.Duration, []*layerRun) {
	var memo map[string]*compiler.Result
	if b.w.sweep() {
		memo = map[string]*compiler.Result{}
	}
	var runs []*layerRun
	var wall time.Duration
	for _, req := range b.plan {
		runtime.GC()
		start := time.Now()
		lr, err := decomposed(ctx, tr, req, memo)
		wall += time.Since(start)
		if err != nil {
			b.check(req.Key(), nil, err)
			continue
		}
		b.check(lr.key, lr.res, nil)
		runs = append(runs, lr)
	}
	return wall, runs
}

// layerMeasurement is the traced phase.
type layerMeasurement struct {
	passes []float64 // traced host seconds per pass
	runs   []*layerRun
}

// tracedRun repeats traced passes for d (at least one). For the sweep a
// traced pass is a RunAll with the session span probe attached, followed
// by the decomposed run of its distinct requests; the RunAll's time is
// the pass time.
func (b *bench) tracedRun(ctx context.Context, d time.Duration) layerMeasurement {
	var lm layerMeasurement
	start := time.Now()
	for len(lm.passes) == 0 || time.Since(start) < d {
		if ctx.Err() != nil {
			b.fail("interrupted: %v", ctx.Err())
			break
		}
		var wall float64
		if b.w.sweep() {
			wall = b.sweepPass(ctx, b.tr).wall
		}
		dt, runs := b.decomposedPass(ctx, b.tr)
		if !b.w.sweep() {
			wall = dt.Seconds()
		}
		lm.passes = append(lm.passes, wall)
		lm.runs = append(lm.runs, runs...)
	}
	return lm
}

// endToEnd derives the end-to-end metrics from the timed phase.
func (b *bench) endToEnd(m measurement, setupS []float64) map[string]metric {
	var walls []float64
	for _, p := range m.passes {
		walls = append(walls, p.wall)
	}
	out := map[string]metric{
		"run_s.p50":        {median(m.runs), "s"},
		"wall_s":           {median(walls), "s"},
		"alloc_mb_per_run": {ratio(m.allocMB, float64(len(m.runs))), "MB"},
		"max_rss_mb":       {m.rssMB, "MB"},
		"setup_s":          {median(setupS), "s"},
	}
	p90, ok := percentile(m.runs, 0.90)
	if ok {
		out["run_s.p90"] = metric{p90, "s"}
	}
	q1, q3 := quartiles(m.runs)
	fmt.Printf("  %-28s %.4f s   n=%d runs (q1 %.4f, q3 %.4f)\n", "run_s.p50", median(m.runs), len(m.runs), q1, q3)
	if ok {
		fmt.Printf("  %-28s %.4f s   n=%d runs\n", "run_s.p90", p90, len(m.runs))
	} else {
		fmt.Printf("  %-28s not reported: %d runs leave fewer than %d above it (needs %d)\n", "run_s.p90", len(m.runs), minBeyond, minRuns)
	}
	fmt.Printf("  %-28s %.4f s   n=%d passes\n", "wall_s", median(walls), len(walls))
	fmt.Printf("  %-28s %s\n", "pass walls", fmtSeconds(walls))
	fmt.Printf("  %-28s %.3f MB  n=%d runs\n", "alloc_mb_per_run", out["alloc_mb_per_run"].Value, len(m.runs))
	fmt.Printf("  %-28s %.1f MB  n=1 process\n", "max_rss_mb", m.rssMB)
	fmt.Printf("  %-28s %.4f s   n=%d set-ups: %s\n", "setup_s", median(setupS), len(setupS), fmtSeconds(setupS))
	return out
}

// perLayer derives the per-layer metrics from the untraced and traced
// phases and the set-up repetitions.
func (b *bench) perLayer(m measurement, lm layerMeasurement, buildS, newSetupS []float64) map[string]metric {
	out := map[string]metric{}
	put := func(name string, v float64, unit string) { out[name] = metric{v, unit} }

	put("workloads.build_s", median(buildS), "s")
	put("cluster.setup_s", median(newSetupS), "s")

	// Per executed run of the traced phase.
	n := float64(len(lm.runs))
	var analyze, compile, simulate, compileMB, clusterMB, virt, records, total []float64
	var accesses float64
	for _, r := range lm.runs {
		analyze = append(analyze, r.analyze.Seconds())
		compile = append(compile, r.compile.Seconds())
		simulate = append(simulate, r.simulate.Seconds())
		compileMB = append(compileMB, r.compileAllocMB)
		clusterMB = append(clusterMB, r.clusterAllocMB)
		virt = append(virt, r.res.ExecTime.Seconds())
		records = append(records, float64(r.records))
		total = append(total, r.total.Seconds())
		accesses += float64(r.accesses)
	}
	put("polyhedral.analyze_s", ratio(sum(analyze), n), "s")
	put("compiler.compile_s", ratio(sum(compile), n), "s")
	put("core.schedule_s", ratio(sum(compile)-sum(analyze), n), "s")
	put("compiler.alloc_mb", ratio(sum(compileMB), n), "MB")
	put("compiler.accesses", ratio(accesses, float64(len(lm.passes))), "count")
	put("cluster.simulate_s", ratio(sum(simulate), n), "s")
	put("cluster.alloc_mb", ratio(sum(clusterMB), n), "MB")
	put("cluster.virt_s_per_host_s", ratio(sum(virt), sum(simulate)), "s/s")
	put("cluster.host_ns_per_record", ratio(sum(simulate)*1e9, sum(records)), "ns")
	put("trace.run_s.p50", median(total), "s")

	// Self time and unaccounted share, from the spans themselves.
	self := b.tr.selfTimes()
	var unaccounted []float64
	selfBy := map[string]time.Duration{}
	countBy := map[string]int{}
	for i, s := range b.tr.spans {
		selfBy[s.name] += self[i]
		countBy[s.name]++
		if s.name == spanRequest && s.end > s.start {
			unaccounted = append(unaccounted, 100*float64(self[i])/float64(s.end-s.start))
		}
	}
	put("trace.unaccounted_pct", ratio(sum(unaccounted), float64(len(unaccounted))), "%")
	put("trace.spans", float64(len(b.tr.spans)), "count")

	// Harness, compile cache and store, per untraced pass.
	var walls, busy, util []float64
	for _, p := range m.passes {
		walls = append(walls, p.wall)
		busy = append(busy, sum(p.runs))
		util = append(util, ratio(sum(p.runs), float64(p.workers)*p.wall))
	}
	p0 := m.passes[0]
	put("harness.requested", float64(p0.requested), "count")
	put("harness.distinct_runs", float64(p0.simulated), "count")
	put("harness.memo_hits", float64(p0.hits), "count")
	put("harness.setup_groups", float64(p0.groups), "count")
	put("harness.busy_s", median(busy), "s")
	put("harness.pool_util", median(util), "ratio")
	put("compilecache.hits", float64(p0.ccHits), "count")
	put("compilecache.misses", float64(p0.ccMisses), "count")
	put("compilecache.hit_ratio", ratio(float64(p0.ccHits), float64(p0.ccHits+p0.ccMisses)), "ratio")
	put("store.journal_records", float64(p0.journalRec), "count")
	put("store.journal_bytes", float64(p0.journalB), "bytes")
	put("trace.overhead_pct", 100*(ratio(median(lm.passes), median(walls))-1), "%")

	for name, v := range b.modelCounts() {
		put(name, v.Value, v.Unit)
	}

	fmt.Printf("  traced passes=%d runs=%d; untraced passes=%d\n", len(lm.passes), len(lm.runs), len(m.passes))
	fmt.Printf("  %-28s %12s %12s %6s\n", "span", "total_s", "self_s", "count")
	var names []string
	for name := range selfBy {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var tot time.Duration
		for _, s := range b.tr.spans {
			if s.name == name {
				tot += s.end - s.start
			}
		}
		fmt.Printf("  %-28s %12.4f %12.4f %6d\n", name, tot.Seconds(), selfBy[name].Seconds(), countBy[name])
	}
	if b.w.sweep() {
		fmt.Println("  not split on paper_sweep: compile and simulate inside the pool (the decomposed pass supplies them)")
	}
	fmt.Println("  not measured: the split of cluster.simulate_s among sim, disk, power, ionode, netsim, mpiio and sched (inside the event loop); service and shard (no workload uses them)")
	var keys []string
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-28s %.6g %s\n", k, out[k].Value, out[k].Unit)
	}
	return out
}

// modelCounts sums the simulated model's counters over the distinct runs
// of one pass. They are exact: a change that only speeds up the host code
// leaves every one unchanged.
func (b *bench) modelCounts() map[string]metric {
	get := func(res *cluster.Result, name string) float64 {
		for _, m := range res.Metrics {
			if m.Name == name {
				return m.Value
			}
		}
		return 0
	}
	c := map[string]float64{}
	for _, req := range b.plan {
		res := b.results[req.Key()]
		if res == nil {
			continue
		}
		for _, name := range []string{"disk.requests", "disk.spin_ups", "disk.spin_downs", "disk.rpm_shifts",
			"power.wrong_predictions", "power.pre_activations"} {
			c[name] += get(res, name)
		}
		c["disk.queue_high_water"] = max(c["disk.queue_high_water"], get(res, "disk.queue_high_water"))
		c["ionode.cache_hits"] += float64(res.StorageCacheHits)
		c["ionode.cache_misses"] += float64(res.StorageCacheMisses)
		c["ionode.prefetches"] += float64(res.PrefetchIssued)
		c["sched.buffer_hits"] += float64(res.BufferHits)
		c["sched.buffer_misses"] += float64(res.BufferMisses)
		c["sched.agent_issued"] += float64(res.AgentIssued)
		c["sched.agent_blocked"] += float64(res.AgentBlocked)
		c["sched.agent_deferred"] += float64(res.AgentDeferred)
		c["model.exec_s"] += res.ExecTime.Seconds()
		c["model.energy_j"] += res.EnergyJ
	}
	c["ionode.cache_hit_ratio"] = ratio(c["ionode.cache_hits"], c["ionode.cache_hits"]+c["ionode.cache_misses"])
	c["sched.buffer_hit_ratio"] = ratio(c["sched.buffer_hits"], c["sched.buffer_hits"]+c["sched.buffer_misses"])
	c["sched.prefetch_use_ratio"] = ratio(c["sched.buffer_hits"], c["sched.agent_issued"])
	out := map[string]metric{}
	for name, v := range c {
		unit := "count"
		switch {
		case strings.HasSuffix(name, "_ratio"):
			unit = "ratio"
		case name == "model.exec_s":
			unit = "s"
		case name == "model.energy_j":
			unit = "J"
		}
		out[name] = metric{v, unit}
	}
	return out
}

// replayGolden re-runs the repository's golden matrix entries for the
// workload's apps at the golden scale and seed and compares each
// fingerprint bit for bit. It is untimed.
func (b *bench) replayGolden(path string) {
	const goldenScale, goldenSeed = 0.05, 42
	data, err := os.ReadFile(path)
	if err != nil {
		b.attempted++
		b.fail("golden: %v", err)
		return
	}
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		b.attempted++
		b.fail("golden: %v", err)
		return
	}
	matched := 0
	for _, app := range b.w.apps {
		spec, err := workloads.ByName(app)
		if err != nil {
			b.attempted++
			b.fail("golden: %v", err)
			continue
		}
		prog := spec.Build(goldenScale)
		for _, kind := range []power.Kind{power.KindDefault, power.KindHistory} {
			for _, scheduling := range []bool{false, true} {
				b.attempted++
				key := cluster.FingerprintKey(app, kind, scheduling)
				cfg := cluster.DefaultConfig()
				cfg.Seed = goldenSeed
				cfg.Policy = power.Config{Kind: kind}
				cfg.Scheduling = scheduling
				res, err := cluster.Run(prog, cfg)
				if err != nil {
					b.fail("golden %s: %v", key, err)
					continue
				}
				if got, exp := strings.Join(cluster.Fingerprint(res), " "), strings.Join(want[key], " "); got != exp {
					b.fail("golden %s: fingerprint differs from %s", key, path)
					continue
				}
				matched++
			}
		}
	}
	fmt.Printf("golden replay: %d/%d fingerprints match %s\n", matched, 4*len(b.w.apps), path)
}

// printDigest prints one hash over every distinct request's fingerprint.
func (b *bench) printDigest() {
	keys := make([]string, 0, len(b.fps))
	for k := range b.fps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s\n%s\n", k, b.fps[k])
	}
	fmt.Printf("fingerprint digest %s seed=%d: %s (%d requests)\n", b.w.name, b.seed, hex.EncodeToString(h.Sum(nil)), len(keys))
}

// fmtSeconds renders xs with millisecond resolution.
func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
