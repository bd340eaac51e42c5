// Command sddsim runs one application on the simulated cluster under one
// power policy, with or without the compiler-directed data access
// scheduling framework, and prints the measurements: execution time, disk
// energy, idle-period CDF, cache/buffer behaviour.
//
// Flags translate (via internal/cliutil) into the same canonical
// harness.Request the sddsd HTTP service accepts, so a CLI invocation and
// a POST /v1/runs of the equivalent JSON body are byte-identical runs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"sdds/internal/cliutil"
	"sdds/internal/cluster"
	"sdds/internal/diag"
	"sdds/internal/disk"
	"sdds/internal/fault"
	"sdds/internal/harness"
	"sdds/internal/metrics"
	"sdds/internal/probe"
	"sdds/internal/workloads"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runCtx(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sddsim:", err)
		os.Exit(1)
	}
}

// run is the signal-free entry point used by tests.
func run(args []string) error { return runCtx(context.Background(), args) }

func runCtx(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sddsim", flag.ContinueOnError)
	var rf cliutil.RunFlags
	rf.Register(fs)
	var df cliutil.DiagFlags
	df.Register(fs)
	var (
		asJSON     = fs.Bool("json", false, "emit the run summary as JSON instead of text")
		describe   = fs.Bool("describe", false, "print the application's loop-nest pseudo-code and exit")
		tables     = fs.String("tables", "", "with -scheduling: write the per-process scheduling tables (JSON) to this file")
		trace      = fs.String("trace", "", "write a Chrome trace-event JSON of the run to this file (load in chrome://tracing or Perfetto)")
		traceRing  = fs.Int("trace-ring", 1<<20, "probe ring capacity in records (oldest overwritten on overflow)")
		showMetric = fs.Bool("metrics", false, "print the run's full counter/gauge registry")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	req, err := rf.Request()
	if err != nil {
		return err
	}
	prog, cfg, err := req.BuildRun()
	if err != nil {
		return err
	}
	if *describe {
		fmt.Print(prog.Render())
		return nil
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
	// A bundle wants the run's flight-recorder trace, so a capture dir
	// arms the probe ring even without -trace.
	if *trace != "" || recorder != nil {
		cfg.Probe = probe.NewProbe(*traceRing)
	}
	if rf.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, rf.Timeout)
		defer cancel()
	}
	res, err := cluster.RunContext(ctx, prog, cfg)
	if err != nil {
		captureRun(recorder, req, cfg, nil, err)
		return err
	}
	if info := captureRun(recorder, req, cfg, res, nil); info != nil {
		fmt.Fprintf(os.Stderr, "captured diagnostics bundle %s at %s\n", info.ID, info.Path)
	}
	if *trace != "" {
		if err := writeTrace(*trace, cfg.Probe); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace records (%d dropped) to %s\n",
			cfg.Probe.Len(), cfg.Probe.Dropped(), *trace)
	}
	if *tables != "" {
		if res.Compile == nil {
			return fmt.Errorf("-tables requires -scheduling")
		}
		f, err := os.Create(*tables)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.Compile.WriteTables(f, cfg.Procs); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote scheduling tables to %s\n", *tables)
	}
	if *asJSON {
		return res.WriteJSON(os.Stdout)
	}

	spec, err := workloads.ByName(req.App)
	if err != nil {
		return err
	}
	fmt.Printf("application:      %s (%s)\n", spec.Name, spec.Description)
	fmt.Printf("policy:           %s, scheduling=%v\n", req.Policy, req.Scheduling)
	fmt.Printf("execution time:   %.1f s\n", res.ExecTime.Seconds())
	fmt.Printf("disk energy:      %.1f J\n", res.EnergyJ)
	fmt.Printf("disk requests:    %d (spin-ups %d, RPM shifts %d)\n",
		res.DiskRequests, res.SpinUps, res.RPMShifts)
	fmt.Printf("storage cache:    %d hits / %d misses\n", res.StorageCacheHits, res.StorageCacheMisses)
	if req.Scheduling {
		fmt.Printf("client buffer:    %d hits / %d misses (agents issued %d prefetches, %d moved entries)\n",
			res.BufferHits, res.BufferMisses, res.AgentIssued, res.AgentMoved)
		prov := ""
		if s := res.CompileProvenance.String(); s != "" {
			prov = ", " + s
		}
		fmt.Printf("compile:          %d accesses over %d slots in %v (profiler=%v%s)\n",
			len(res.Compile.Accesses), res.Compile.Program.Slots(cfg.Procs),
			res.Compile.CompileTime.Round(1e6), res.Compile.UsedProfiler, prov)
	}
	if fs := res.Faults; fs != nil {
		fmt.Printf("faults injected:  %d (disk errors %d, remaps %d, spin-up fail/delay %d/%d, net drop/dup %d/%d, stalls %d)\n",
			fs.Total(), fs.DiskTransientErrors, fs.BadSectorRemaps, fs.SpinUpFailures, fs.SpinUpDelays,
			fs.NetDrops, fs.NetDups, fs.NodeStalls)
		fmt.Printf("degradation:      node retries %d (exhausted %d), mw retries %d, io re-issues %d (abandoned %d), prefetch aborts %d (fallbacks %d)\n",
			fs.NodeRetries, fs.NodeRetriesExhausted, fs.MWRetries, fs.IORetries, fs.IOAbandoned,
			fs.PrefetchAborts, fs.Fallbacks)
	}
	fmt.Printf("idle periods:     %d recorded, mean %.0f ms\n", res.Idle.Count(), res.Idle.Mean().Milliseconds())
	fmt.Println()
	rows := make([][]string, 0, len(metrics.PaperBucketsMs))
	for _, p := range res.Idle.CDF() {
		rows = append(rows, []string{fmt.Sprintf("%.0f", p.BoundMs), metrics.Pct(p.Frac)})
	}
	fmt.Print(metrics.Table([]string{"Idleness (msec)", "CDF"}, rows))
	if *showMetric {
		fmt.Println()
		mrows := make([][]string, 0, len(res.Metrics))
		for _, m := range res.Metrics {
			mrows = append(mrows, []string{m.Name, fmt.Sprintf("%g", m.Value)})
		}
		fmt.Print(metrics.Table([]string{"Metric", "Value"}, mrows))
	}
	return nil
}

// captureRun assembles a diagnostics bundle for the finished (or failed)
// run when -capture-dir is set. Capture problems are reported on stderr
// but never mask the run's own outcome.
func captureRun(rec *diag.Recorder, req harness.Request, cfg cluster.Config, res *cluster.Result, runErr error) *diag.BundleInfo {
	if rec == nil {
		return nil
	}
	trigger := diag.TriggerManual
	if runErr != nil {
		trigger = diag.TriggerError
		if errors.Is(runErr, context.DeadlineExceeded) {
			trigger = diag.TriggerTimeout
		}
	}
	c := diag.Capture{
		Trigger:    trigger,
		Key:        req.Key(),
		ContentKey: req.ContentKey(),
		Err:        runErr,
		Request:    req,
	}
	if res != nil {
		c.Result = harness.NewRunRecord(res)
		c.Metrics = res.Metrics
		c.Faults = res.Faults
	}
	if cfg.Probe != nil {
		c.Trace = func(w io.Writer) error {
			return probe.WriteChromeTrace(w, cfg.Probe, chromeOptions())
		}
	}
	info, err := rec.Capture(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sddsim: capture:", err)
		return nil
	}
	return info
}

// chromeOptions names disk states and fault sites in exported traces.
func chromeOptions() probe.ChromeOptions {
	return probe.ChromeOptions{
		StateName:     func(arg int64) string { return disk.State(arg).String() },
		FaultSiteName: func(id int32) string { return fault.Site(id).String() },
	}
}

// writeTrace exports the probe as Chrome trace-event JSON.
func writeTrace(path string, p *probe.Probe) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := probe.WriteChromeTrace(f, p, chromeOptions()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
