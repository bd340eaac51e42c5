package cluster

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"sdds/internal/compilecache"
	"sdds/internal/compiler"
	"sdds/internal/power"
	"sdds/internal/probe"
	"sdds/internal/workloads"
)

// goldenUpdate regenerates testdata/golden.json from the current simulator.
// The committed file was produced by the pre-refactor (container/heap,
// closure-scheduling, O(Procs)-scan) executor; the event-core rewrite must
// reproduce it bit for bit.
var goldenUpdate = flag.Bool("update", false, "rewrite cluster golden results")

// goldenScale keeps the 24-run matrix (six apps × {Default,History} ×
// {scheduling off,on}) fast enough for every `go test` invocation while
// still exercising barriers, prefetch agents, RPM shifts and spin-downs.
const goldenScale = 0.05

const goldenSeed = 42

// goldenFingerprint is the exported bit-exact Fingerprint (fingerprint.go);
// the local name survives so the golden tests read as before.
func goldenFingerprint(res *Result) []string { return Fingerprint(res) }

func goldenKey(app string, kind power.Kind, scheduling bool) string {
	return FingerprintKey(app, kind, scheduling)
}

// TestGoldenResultsStable asserts same-seed bit-identical Results across
// the event-core refactor for all six apps × {Default, History} ×
// {scheduling off, on}.
func TestGoldenResultsStable(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix")
	}
	path := filepath.Join("testdata", "golden.json")
	got := make(map[string][]string)
	for _, spec := range workloads.All() {
		prog := spec.Build(goldenScale)
		for _, kind := range []power.Kind{power.KindDefault, power.KindHistory} {
			for _, scheduling := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.Seed = goldenSeed
				cfg.Policy = power.Config{Kind: kind}
				cfg.Scheduling = scheduling
				res, err := Run(prog, cfg)
				if err != nil {
					t.Fatalf("%s/%v/sched=%v: %v", spec.Name, kind, scheduling, err)
				}
				fp := goldenFingerprint(res)
				got[goldenKey(spec.Name, kind, scheduling)] = fp

				// Tracing must be pure observation: re-run with a probe
				// attached and demand a bit-identical fingerprint.
				traced := cfg
				traced.Probe = probe.NewProbe(1 << 16)
				tres, err := Run(prog, traced)
				if err != nil {
					t.Fatalf("%s/%v/sched=%v traced: %v", spec.Name, kind, scheduling, err)
				}
				tfp := goldenFingerprint(tres)
				for i := range fp {
					if tfp[i] != fp[i] {
						t.Errorf("%s/%v/sched=%v: tracing changed field %q -> %q",
							spec.Name, kind, scheduling, fp[i], tfp[i])
					}
				}
				if traced.Probe.Emitted() == 0 {
					t.Errorf("%s/%v/sched=%v: traced run emitted no records", spec.Name, kind, scheduling)
				}
			}
		}
	}
	if *goldenUpdate {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden fingerprints to %s", len(got), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	want := make(map[string][]string)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(got) != len(want) {
		t.Errorf("have %d configurations, golden file has %d", len(got), len(want))
	}
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: missing from this run", k)
			continue
		}
		w := want[k]
		if len(g) != len(w) {
			t.Errorf("%s: %d fields vs golden %d", k, len(g), len(w))
			continue
		}
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("%s: field %q, golden %q", k, g[i], w[i])
			}
		}
	}
}

// loadGolden reads the committed golden fingerprints.
func loadGolden(t *testing.T) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	want := make(map[string][]string)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenCacheModes runs the full 24-config matrix with the compile
// cache disabled (every scheduled run compiles inline), cold (compiling
// once per app) and warm (every compile a memo hit), and demands every
// fingerprint stay bit-identical to the committed golden file: a memoized
// compile must be indistinguishable from a live one.
func TestGoldenCacheModes(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix")
	}
	if *goldenUpdate {
		t.Skip("golden file being regenerated")
	}
	want := loadGolden(t)

	type mode struct {
		name string
		// wantProv is the acceptable provenance set for scheduled runs.
		// The cold pass compiles once per distinct compile key; runs that
		// share a key (same app, different power policy) legitimately hit
		// the memo even on the first pass.
		wantProv map[compiler.Provenance]bool
	}
	runMatrix := func(t *testing.T, cache CompileService, m mode) {
		for _, spec := range workloads.All() {
			prog := spec.Build(goldenScale)
			for _, kind := range []power.Kind{power.KindDefault, power.KindHistory} {
				for _, scheduling := range []bool{false, true} {
					cfg := DefaultConfig()
					cfg.Seed = goldenSeed
					cfg.Policy = power.Config{Kind: kind}
					cfg.Scheduling = scheduling
					cfg.CompileCache = cache
					res, err := RunContext(context.Background(), prog, cfg)
					if err != nil {
						t.Fatalf("%s/%v/sched=%v: %v", spec.Name, kind, scheduling, err)
					}
					key := goldenKey(spec.Name, kind, scheduling)
					if scheduling {
						if !m.wantProv[res.CompileProvenance] {
							t.Errorf("%s: provenance %q unexpected in mode %s",
								key, res.CompileProvenance, m.name)
						}
					} else if res.CompileProvenance != compiler.ProvNone {
						t.Errorf("%s: scheduling-off run has provenance %q", key, res.CompileProvenance)
					}
					fp := goldenFingerprint(res)
					w, ok := want[key]
					if !ok {
						t.Fatalf("%s: missing from golden file", key)
					}
					if len(fp) != len(w) {
						t.Fatalf("%s: %d fields vs golden %d", key, len(fp), len(w))
					}
					for i := range w {
						if fp[i] != w[i] {
							t.Errorf("%s: mode %s: field %q, golden %q", key, m.name, fp[i], w[i])
						}
					}
				}
			}
		}
	}

	runMatrix(t, nil, mode{name: "disabled", wantProv: map[compiler.Provenance]bool{
		compiler.ProvCompiled: true,
	}})

	cache := compilecache.New()
	runMatrix(t, cache, mode{name: "cold", wantProv: map[compiler.Provenance]bool{
		compiler.ProvCompiled: true, compiler.ProvMemory: true,
	}})
	apps := len(workloads.All())
	if st := cache.Stats(); int(st.Misses) != apps {
		t.Errorf("cold pass misses = %d, want %d (one compile per app)", st.Misses, apps)
	}

	// Warm pass: every scheduled run is now an in-process memo hit.
	runMatrix(t, cache, mode{name: "warm", wantProv: map[compiler.Provenance]bool{
		compiler.ProvMemory: true,
	}})
	if st := cache.Stats(); int(st.Misses) != apps {
		t.Errorf("warm pass misses = %d, want %d (no recompiles)", st.Misses, apps)
	}
}
