// Command perfbench is the repository benchmark. It runs one named
// workload of simulator requests in a closed loop with one client, checks
// every result, and prints its metrics; the last line of standard output
// is one JSON object. With -trace 0 it reports the end-to-end metrics;
// with -trace 1 it times the calls into each layer in a separate traced
// run and reports the per-layer metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// procStart stands in for process start: package variables initialize
// before main, after only the runtime's own start-up.
var procStart = time.Now()

// Benchmark constants.
const (
	// setupReps is how many times a run sets up; setup_s is their median.
	setupReps = 15
	// maxMeasure caps the measured phase so a run ends well inside its
	// time limit even on a slow host.
	maxMeasure = 120 * time.Second
	// runTimeout fails any single simulation that takes longer.
	runTimeout = 60 * time.Second
	// sweepWorkers is paper_sweep's worker-pool size.
	sweepWorkers = 2
	// goldenPath is the repository's golden fingerprint file, relative to
	// the checkout root the benchmark runs from.
	goldenPath = "internal/cluster/testdata/golden.json"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: policy_sim, sched_compile or paper_sweep")
		seed    = flag.Int64("seed", 1, "workload seed: picks simulation seeds and request order")
		seconds = flag.Int("seconds", 20, "how long the measured phase runs")
		traced  = flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for journals and the span trace")
	)
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be ≥ 1 and -trace 0 or 1")
		os.Exit(2)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := run(ctx, w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out)
	stop()
	os.Exit(code)
}

// run executes one benchmark run and returns the exit code.
func run(ctx context.Context, w workload, seed int64, measureFor time.Duration, traced bool, out string) int {
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := newBench(w, seed, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("perfbench workload=%s seed=%d scale=%g trace=%v %s GOMAXPROCS=%d NumCPU=%d\n",
		w.name, seed, scale, traced, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	if traced {
		b.tr = newTracer()
	}
	setupS, buildS, newSetupS := b.setUp(ctx)

	var metrics map[string]metric
	if !traced {
		m := b.measure(ctx, measureFor)
		metrics = b.endToEnd(m, setupS)
		b.decomposedPass(ctx, newTracer()) // checks each run against its decomposed twin
	} else {
		m := b.measure(ctx, measureFor/2)
		lm := b.tracedRun(ctx, measureFor/2)
		metrics = b.perLayer(m, lm, buildS, newSetupS)
		if path, err := b.tr.writeTrace(out, w.name, seed); err != nil {
			b.fail("span trace: %v", err)
		} else {
			fmt.Printf("span trace: %s (%d spans)\n", path, len(b.tr.spans))
		}
	}
	b.replayGolden(goldenPath)
	b.printDigest()

	rep := report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
	fmt.Printf("  %-28s %.4g (%d/%d)\n", "failed_frac", ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	for _, f := range b.failures {
		fmt.Println("FAIL", f)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}
