// Command sddstables regenerates the tables and figures of the paper's
// evaluation section. With no flags it runs every experiment at full scale;
// use --experiment to run one (table2, table3, fig12a..fig14b, cachesens,
// compile, ablations) and --scale to shrink the workloads for a quick pass.
//
// The cluster simulations an experiment needs are planned up front and
// fanned out over a bounded worker pool (--workers, default GOMAXPROCS);
// distinct configurations are simulated once and cached for the whole
// invocation. A live status line on stderr (--progress) reports runs
// completed/planned, cache hits, and per-run timing. SIGINT cancels queued
// and in-flight simulations promptly, keeping whatever output had already
// been rendered.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"sdds/internal/cliutil"
	"sdds/internal/harness"
	"sdds/internal/probe"
	"sdds/internal/shard"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runCtx(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sddstables:", err)
		os.Exit(1)
	}
}

// run is the signal-free entry point used by tests.
func run(args []string) error { return runCtx(context.Background(), args) }

func runCtx(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sddstables", flag.ContinueOnError)
	var sf cliutil.SweepFlags
	sf.Register(fs)
	var df cliutil.DiagFlags
	df.Register(fs)
	var (
		experiment = fs.String("experiment", "", "experiment id to run (default: all)")
		progress   = fs.Bool("progress", stderrIsTerminal(), "render a live run-progress line on stderr")
		list       = fs.Bool("list", false, "list experiment ids and exit")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write an allocation profile to this file at exit")
		showMetric = fs.Bool("metrics", false, "print each simulated run's counter/gauge registry as a '# metrics' line on stdout")
		tracePath  = fs.String("trace", "", "write a Chrome trace of the session's phases (plan, per-worker runs, compile/simulate) to this file")
		coord      = fs.String("coordinator", "", "run the sweep sharded through this sddsd coordinator URL; results merge back before rendering")
		shardSize  = fs.Int("shard-size", 0, "with -coordinator: requests per shard (0 = the coordinator's default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sddstables: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap numbers before the snapshot
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "sddstables: memprofile:", err)
			}
		}()
	}
	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return nil
	}

	// Validate every name-shaped flag before simulating anything: an
	// unknown app or experiment must fail here, not minutes into a run.
	cfg, err := sf.Config()
	if err != nil {
		return err
	}
	experiments := harness.All()
	if *experiment != "" {
		e, err := harness.ByID(*experiment)
		if err != nil {
			return err
		}
		experiments = []harness.Experiment{e}
	}

	resolvedWorkers := sf.Workers
	if resolvedWorkers <= 0 {
		resolvedWorkers = runtime.GOMAXPROCS(0)
	}
	log, closeLog, err := df.NewLogger()
	if err != nil {
		return err
	}
	defer closeLog()
	recorder, err := df.NewRecorder(log)
	if err != nil {
		return err
	}
	// The session probe is span-only: the concurrent worker pool may not
	// share a record ring, but mutex-guarded spans are safe. Diagnostics
	// capture wants the session trace in its bundles, so a capture dir
	// arms the probe even without -trace.
	var sessProbe *probe.Probe
	if *tracePath != "" || recorder != nil {
		sessProbe = probe.NewSpanProbe()
	}
	jrn, err := sf.OpenJournalWith(log)
	if err != nil {
		return err
	}
	if jrn != nil {
		defer jrn.Close()
	}
	cache, cacheOff, err := sf.OpenCompileCache()
	if err != nil {
		return err
	}
	sess := harness.NewSession(harness.SessionOptions{
		Workers:             sf.Workers,
		Progress:            combineProgress(metricsPrinter(*showMetric), progressLine(*progress, resolvedWorkers)),
		Probe:               sessProbe,
		RunTimeout:          sf.Timeout,
		Journal:             jrn,
		CompileCache:        cache,
		DisableCompileCache: cacheOff,
		Diag:                recorder,
		Log:                 log,
	})
	if jrn != nil && sf.Resume {
		fmt.Fprintf(os.Stderr, "journal %s: resumed %d completed runs\n", jrn.Path(), sess.Preloaded())
	}
	if *coord != "" {
		// Sharded mode: the coordinator's worker fleet executes the plan,
		// the merged results are installed into the session cache, and the
		// experiments below render entirely from hits.
		if err := runSharded(ctx, *coord, *shardSize, experiments, cfg, sess); err != nil {
			return err
		}
	}
	for i, e := range experiments {
		start := time.Now()
		res, err := sess.Run(ctx, e, cfg)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				return fmt.Errorf("interrupted after %d/%d experiments (partial output above)",
					i, len(experiments))
			}
			return err
		}
		// The rendered tables are the deliverable: surface a failed stdout
		// write (closed pipe, full disk) instead of exiting 0 with output
		// missing.
		if _, err := fmt.Print(res.Render()); err != nil {
			return fmt.Errorf("writing %s: %w", e.ID, err)
		}
		if _, err := fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond)); err != nil {
			return fmt.Errorf("writing %s: %w", e.ID, err)
		}
	}
	simulated, hits := sess.Stats()
	if *progress {
		fmt.Fprintf(os.Stderr, "%d distinct configurations simulated, %d reads served from cache, %d workers\n",
			simulated, hits, sess.Workers())
		if cc := sess.CompileCacheStats(); !cacheOff {
			fmt.Fprintf(os.Stderr, "compile cache: %d compiled, %d memo hits; %d setup groups shared\n",
				cc.Misses, cc.Hits, sess.SetupGroups())
		}
	}
	if jrn != nil {
		fmt.Fprintf(os.Stderr, "journal %s: %d runs appended (%d resumed)\n",
			jrn.Path(), jrn.Appends(), sess.Preloaded())
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := probe.WriteChromeTrace(f, sessProbe, probe.ChromeOptions{}); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d session spans to %s\n", sessProbe.SpanCount(), *tracePath)
	}
	return nil
}

// runSharded executes the experiments' full run plan through a sddsd
// coordinator: submit the deterministically ordered canonical plan,
// wait for the worker fleet (or the coordinator's local fallback) to
// drain it, then fetch every merged result and install it into the
// session cache — the experiments afterwards resolve from hits and
// render byte-identical output to a single-process run.
func runSharded(ctx context.Context, baseURL string, shardSize int, exps []harness.Experiment, cfg harness.Config, sess *harness.Session) error {
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	plan := harness.PlanRequests(exps, cfg)
	cl := &shard.Client{BaseURL: baseURL}
	sub, err := cl.Submit(ctx, shard.SubmitRequest{Requests: plan, ShardSize: shardSize})
	if err != nil {
		return fmt.Errorf("submitting sharded sweep: %w", err)
	}
	fmt.Fprintf(os.Stderr, "sharded sweep: %d requests (%d already stored) across %d shards via %s\n",
		sub.Requests, sub.Resumed, sub.Shards, baseURL)
	snap, err := cl.WaitDone(ctx, 500*time.Millisecond)
	if err != nil {
		return err
	}
	if snap.Requeues > 0 || snap.Duplicates > 0 {
		fmt.Fprintf(os.Stderr, "sharded sweep survived %d lease expiries and deduped %d duplicate completions\n",
			snap.Requeues, snap.Duplicates)
	}
	installed := 0
	for _, req := range plan {
		r, rec, err := cl.Run(ctx, req.ContentKey())
		if err != nil {
			return fmt.Errorf("collecting %s: %w", req.Key(), err)
		}
		res, err := rec.Restore(r)
		if err != nil {
			return fmt.Errorf("restoring %s: %w", req.Key(), err)
		}
		if ok, err := sess.Install(req, res); err != nil {
			return err
		} else if ok {
			installed++
		}
	}
	fmt.Fprintf(os.Stderr, "sharded sweep merged: %d results installed from %d workers\n",
		installed, len(snap.Workers))
	return nil
}

// combineProgress fans one progress stream out to several observers,
// skipping nil ones. Returns nil when none are active.
func combineProgress(fns ...harness.ProgressFunc) harness.ProgressFunc {
	active := fns[:0]
	for _, fn := range fns {
		if fn != nil {
			active = append(active, fn)
		}
	}
	switch len(active) {
	case 0:
		return nil
	case 1:
		return active[0]
	}
	return func(p harness.Progress) {
		for _, fn := range active {
			fn(p)
		}
	}
}

// metricsPrinter emits each simulated run's registry snapshot as one
// greppable stdout line: "# metrics <key>: name=value ...". Cache hits are
// skipped — their metrics already printed when the run executed.
func metricsPrinter(enabled bool) harness.ProgressFunc {
	if !enabled {
		return nil
	}
	return func(p harness.Progress) {
		if p.Err != nil || p.Hit || len(p.Metrics) == 0 {
			return
		}
		var b strings.Builder
		fmt.Fprintf(&b, "# metrics %s:", p.Key)
		for _, m := range p.Metrics {
			fmt.Fprintf(&b, " %s=%g", m.Name, m.Value)
		}
		fmt.Println(b.String())
	}
}

// progressLine renders session progress as a single rewritten stderr line
// with throughput and an ETA. The rate is overall completed runs (hits
// included) per wall second; the ETA scales the mean wall time of completed
// simulations by the runs remaining, spread over the worker pool. Progress
// callbacks are serialized by the session, so the state needs no lock.
func progressLine(enabled bool, workers int) harness.ProgressFunc {
	if !enabled {
		return nil
	}
	var (
		start   time.Time     // first event's arrival, minus its run time
		simTime time.Duration // summed wall time of completed simulations
		simRuns int
		memo    int // hits on runs this session executed
		journal int // hits preloaded from a resumed journal
		ccReuse int // simulated runs whose compile came from the cache
	)
	return func(p harness.Progress) {
		if p.Err != nil {
			return // the run loop reports errors
		}
		if start.IsZero() {
			start = time.Now().Add(-p.Elapsed)
		}
		switch {
		case p.FromJournal:
			journal++
		case p.Hit:
			memo++
		default:
			simTime += p.Elapsed
			simRuns++
			if p.CompileProv == "memo" {
				ccReuse++
			}
		}
		line := fmt.Sprintf("\r\x1b[K[%d/%d] %d sim / %d memo / %d journal",
			p.Done, p.Total, simRuns, memo, journal)
		if ccReuse > 0 {
			line += fmt.Sprintf(" / %d compile-cached", ccReuse)
		}
		if wall := time.Since(start); wall > 0 {
			line += fmt.Sprintf(" | %.1f runs/s", float64(p.Done)/wall.Seconds())
		}
		if remaining := p.Total - p.Done; remaining > 0 && simRuns > 0 {
			avg := simTime / time.Duration(simRuns)
			eta := avg * time.Duration(remaining) / time.Duration(workers)
			line += fmt.Sprintf(" | ETA %v", eta.Round(time.Second))
		}
		line += fmt.Sprintf(" | %s (%v)", p.Key, p.Elapsed.Round(time.Millisecond))
		fmt.Fprint(os.Stderr, line)
		if p.Done == p.Total {
			fmt.Fprint(os.Stderr, "\r\x1b[K")
		}
	}
}

// stderrIsTerminal reports whether stderr looks like an interactive
// terminal (the default for showing the progress line).
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}
