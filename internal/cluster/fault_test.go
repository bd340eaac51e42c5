package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sdds/internal/fault"
	"sdds/internal/power"
	"sdds/internal/workloads"
)

// TestZeroRateInjectorMatchesGolden proves the fault hooks are free: a
// live injector with every rate zero must reproduce the committed golden
// fingerprints bit for bit on all 24 configurations. This is the headline
// acceptance criterion of the fault-injection layer — attaching it cannot
// perturb a fault-free simulation by even one event.
func TestZeroRateInjectorMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix")
	}
	data, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	want := make(map[string][]string)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	zero := fault.DefaultConfig() // all rates zero, knobs at defaults
	checked := 0
	for _, spec := range workloads.All() {
		prog := spec.Build(goldenScale)
		for _, kind := range []power.Kind{power.KindDefault, power.KindHistory} {
			for _, scheduling := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.Seed = goldenSeed
				cfg.Policy = power.Config{Kind: kind}
				cfg.Scheduling = scheduling
				cfg.Faults = &zero
				res, err := Run(prog, cfg)
				if err != nil {
					t.Fatalf("%s/%v/sched=%v: %v", spec.Name, kind, scheduling, err)
				}
				key := goldenKey(spec.Name, kind, scheduling)
				w, ok := want[key]
				if !ok {
					t.Fatalf("%s: missing from golden file", key)
				}
				got := goldenFingerprint(res)
				if len(got) != len(w) {
					t.Fatalf("%s: %d fields vs golden %d", key, len(got), len(w))
				}
				for i := range w {
					if got[i] != w[i] {
						t.Errorf("%s: zero-rate injector changed field %q (golden %q)", key, got[i], w[i])
					}
				}
				if res.Faults == nil {
					t.Fatalf("%s: injected run carries no FaultStats block", key)
				}
				if res.Faults.Total() != 0 {
					t.Fatalf("%s: zero-rate injector fired %d faults", key, res.Faults.Total())
				}
				checked++
			}
		}
	}
	if checked != 24 {
		t.Fatalf("checked %d configurations, want 24", checked)
	}
}

// injectedConfig is the stress fault model the determinism and degradation
// tests share: every site enabled, rates high enough that a small run
// exercises every degradation path.
func injectedConfig() *fault.Config {
	fc := fault.DefaultConfig()
	fc.Rates[fault.SiteDiskRead] = 0.05
	fc.Rates[fault.SiteDiskWrite] = 0.05
	fc.Rates[fault.SiteBadSector] = 0.03
	fc.Rates[fault.SiteSpinUpFail] = 0.2
	fc.Rates[fault.SiteSpinUpDelay] = 0.2
	fc.Rates[fault.SiteNetDrop] = 0.02
	fc.Rates[fault.SiteNetDup] = 0.02
	fc.Rates[fault.SiteNodeStall] = 0.02
	fc.Seed = 5
	return &fc
}

// TestInjectedRunDeterministic asserts the other acceptance criterion: a
// fixed seed plus a fixed fault config reproduces a byte-identical Result
// across repeated executions, fault pattern included.
func TestInjectedRunDeterministic(t *testing.T) {
	spec, err := workloads.ByName("hf")
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.Build(0.05)
	run := func() *Result {
		cfg := DefaultConfig()
		cfg.Seed = goldenSeed
		cfg.Scheduling = true
		cfg.Faults = injectedConfig()
		res, err := Run(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	fa, fb := goldenFingerprint(a), goldenFingerprint(b)
	for i := range fa {
		if fa[i] != fb[i] {
			t.Errorf("injected rerun diverged at field %q vs %q", fa[i], fb[i])
		}
	}
	if a.Faults.Total() == 0 {
		t.Fatal("stress fault config injected nothing")
	}
	if a.Faults.Total() != b.Faults.Total() {
		t.Fatalf("injected fault totals differ: %d vs %d", a.Faults.Total(), b.Faults.Total())
	}
	for i := range a.Faults.Injected {
		if a.Faults.Injected[i] != b.Faults.Injected[i] {
			t.Errorf("site %s: %d vs %d injected", fault.Site(i), a.Faults.Injected[i], b.Faults.Injected[i])
		}
	}
}

// TestInjectedRunDegradesGracefully asserts a heavily faulted run still
// terminates with populated degradation counters and fault metrics.
func TestInjectedRunDegradesGracefully(t *testing.T) {
	spec, err := workloads.ByName("sar")
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.Build(0.05)
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Scheduling = true
	cfg.Faults = injectedConfig()
	res, err := Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs := res.Faults
	if fs == nil || fs.Total() == 0 {
		t.Fatal("no faults recorded")
	}
	if fs.DiskTransientErrors == 0 {
		t.Error("no transient disk errors surfaced")
	}
	if fs.NodeRetries == 0 {
		t.Error("no I/O-node retries despite transient errors")
	}
	if fs.BadSectorRemaps == 0 {
		t.Error("no bad-sector remaps")
	}
	// Every injected fault must be visible in the metrics registry too.
	var metricTotal float64
	for _, m := range res.Metrics {
		if m.Name == "fault.injected_total" {
			metricTotal = m.Value
		}
	}
	if int64(metricTotal) != fs.Total() {
		t.Errorf("fault.injected_total metric %v != FaultStats total %d", metricTotal, fs.Total())
	}
	// The run must have made progress despite the fault storm.
	if res.ExecTime <= 0 || res.DiskRequests == 0 {
		t.Errorf("faulted run made no progress: exec=%v requests=%d", res.ExecTime, res.DiskRequests)
	}
}

// TestFaultFreeRunCarriesNoFaultBlock pins the nil contract: without
// Config.Faults the result has no FaultStats and no fault metrics.
func TestFaultFreeRunCarriesNoFaultBlock(t *testing.T) {
	spec, err := workloads.ByName("hf")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 1
	res, err := Run(spec.Build(0.02), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != nil {
		t.Fatal("fault-free run carries a FaultStats block")
	}
	for _, m := range res.Metrics {
		if len(m.Name) >= 6 && m.Name[:6] == "fault." {
			t.Fatalf("fault-free run exports fault metric %s", m.Name)
		}
	}
}

// TestExtremeRatesTerminate proves the bounded-retry design: even with
// every rate at 1.0 the executor abandons instances after MaxRetries
// rather than looping forever, and the run completes.
func TestExtremeRatesTerminate(t *testing.T) {
	spec, err := workloads.ByName("hf")
	if err != nil {
		t.Fatal(err)
	}
	fc := fault.DefaultConfig()
	for s := 0; s < fault.NumSites(); s++ {
		fc.Rates[s] = 1.0
	}
	// Keep rate-1 spin-up failures from deadlocking progress is the model's
	// job; the test just demands termination.
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.Faults = &fc
	res, err := Run(spec.Build(0.01), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.IOAbandoned == 0 {
		t.Error("rate-1 faults abandoned no instances (retry loop unbounded?)")
	}
	if res.Faults.NodeRetriesExhausted == 0 {
		t.Error("rate-1 faults never exhausted node retries")
	}
}

// goldenFaultEntry pins one stress-injected run: the bit-exact fingerprint
// and the per-layer fault and degradation counters.
type goldenFaultEntry struct {
	Fingerprint []string    `json:"fingerprint"`
	Faults      *FaultStats `json:"faults"`
}

// TestInjectedMatchesGolden pins the fault-injected path against committed
// fingerprints: all six apps × {scheduling off, on} under the history
// policy and injectedConfig. The retry paths resubmit requests and re-read
// chunks, so they are where a pooled record reused too early would show.
// Regenerate with `go test ./internal/cluster -run TestInjectedMatchesGolden -update`.
func TestInjectedMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix")
	}
	path := filepath.Join("testdata", "golden_faults.json")
	got := make(map[string]goldenFaultEntry)
	for _, spec := range workloads.All() {
		prog := spec.Build(goldenScale)
		for _, scheduling := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Seed = goldenSeed
			cfg.Policy = power.Config{Kind: power.KindHistory}
			cfg.Scheduling = scheduling
			cfg.Faults = injectedConfig()
			res, err := Run(prog, cfg)
			if err != nil {
				t.Fatalf("%s/sched=%v: %v", spec.Name, scheduling, err)
			}
			if res.Faults.Total() == 0 {
				t.Fatalf("%s/sched=%v: stress fault config injected nothing", spec.Name, scheduling)
			}
			got[goldenKey(spec.Name, power.KindHistory, scheduling)] = goldenFaultEntry{goldenFingerprint(res), res.Faults}
		}
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *goldenUpdate {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fault fingerprints to %s", len(got), path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fault golden file (regenerate with -update): %v", err)
	}
	want := make(map[string]goldenFaultEntry)
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("have %d configurations, fault golden file has %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: missing from this run", k)
			continue
		}
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if string(gj) != string(wj) {
			t.Errorf("%s: injected run diverged from golden\n got %s\nwant %s", k, gj, wj)
		}
	}
}
