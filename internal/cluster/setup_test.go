package cluster

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"

	"sdds/internal/compilecache"
	"sdds/internal/compiler"
	"sdds/internal/fault"
	"sdds/internal/loop"
	"sdds/internal/power"
	"sdds/internal/workloads"
)

// A Setup built once must be shareable across concurrent RunPrepared calls
// without perturbing determinism: every run over the same config must match
// a plain Run, and runs over different configs must not interfere.
func TestRunPreparedSharedSetup(t *testing.T) {
	prog := workloads.HF(0.02)
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Scheduling = true

	baseline, err := Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(goldenFingerprint(baseline), "\n")

	setup, err := NewSetup(prog, cfg.Procs)
	if err != nil {
		t.Fatal(err)
	}
	cache := compilecache.New()

	const n = 8
	var wg sync.WaitGroup
	results := make([]*Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cfg
			c.CompileCache = cache
			results[i], errs[i] = RunPrepared(context.Background(), setup, c)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		got := strings.Join(goldenFingerprint(results[i]), "\n")
		if got != want {
			t.Errorf("run %d diverged from plain Run:\n%s\nwant:\n%s", i, got, want)
		}
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != n-1 {
		t.Errorf("cache stats = %+v, want 1 miss / %d hits", st, n-1)
	}
}

// RunPrepared must reject a config whose Procs disagrees with the Setup —
// the IO index and slot metadata are functions of Procs.
func TestRunPreparedProcsMismatch(t *testing.T) {
	prog := workloads.HF(0.02)
	cfg := DefaultConfig()
	setup, err := NewSetup(prog, cfg.Procs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Procs = cfg.Procs * 2
	if _, err := RunPrepared(context.Background(), setup, cfg); err == nil {
		t.Fatal("procs mismatch accepted")
	}
}

// Runtime knobs — seed, power policy, buffer capacity, fault injection —
// must not move the compile key: a sweep over them shares one artifact.
// The key is computed from the normalized config, which is what the run
// path hands to the cache.
func TestCompileKeyExcludesRuntimeKnobs(t *testing.T) {
	prog := workloads.HF(0.02)
	base := DefaultConfig()
	base.Scheduling = true
	baseKey, ok := compiler.KeyFor(prog, base.normalized().Compiler)
	if !ok {
		t.Fatal("workload uncacheable")
	}

	variants := map[string]func(*Config){
		"seed":    func(c *Config) { c.Seed = 999 },
		"policy":  func(c *Config) { c.Policy = power.Config{Kind: power.KindHistory} },
		"buffer":  func(c *Config) { c.BufferBytes = 32 << 20 },
		"faults":  func(c *Config) { fc := fault.DefaultConfig(); c.Faults = &fc },
		"hittime": func(c *Config) { c.BufferHitTime = base.BufferHitTime * 2 },
	}
	for name, mut := range variants {
		c := base
		mut(&c)
		k, ok := compiler.KeyFor(prog, c.normalized().Compiler)
		if !ok {
			t.Fatalf("%s: uncacheable", name)
		}
		if k != baseKey {
			t.Errorf("%s: runtime knob moved the compile key", name)
		}
	}

	// And a genuinely semantic knob does move it.
	c := base
	c.Compiler.Theta = 16
	if k, _ := compiler.KeyFor(prog, c.normalized().Compiler); k == baseKey {
		t.Error("theta change did not move the compile key")
	}
}

// countingSortIndex is the former Setup index construction: a counting
// sort of Instances keyed by (proc, slot), which keeps Instances' statement
// order within a pair.
func countingSortIndex(insts []loop.IOInstance, procs, slots int) ([]loop.IOInstance, []int32) {
	cells := procs * slots
	off := make([]int32, cells+1)
	for _, in := range insts {
		off[in.Proc*slots+in.Slot+1]++
	}
	for k := 0; k < cells; k++ {
		off[k+1] += off[k]
	}
	flat := make([]loop.IOInstance, len(insts))
	cur := make([]int32, cells)
	for _, in := range insts {
		k := in.Proc*slots + in.Slot
		flat[off[k]+cur[k]] = in
		cur[k]++
	}
	return flat, off
}

// The one-pass (proc, slot) enumeration must build exactly the index the
// counting sort of Instances built, for every workload and process count.
func TestSetupIndexMatchesCountingSort(t *testing.T) {
	for _, spec := range workloads.All() {
		prog := spec.Build(goldenScale)
		for _, procs := range []int{1, 7, 32} {
			s, err := NewSetup(prog, procs)
			if err != nil {
				t.Fatal(err)
			}
			flat, off := countingSortIndex(prog.Instances(procs), procs, s.slots)
			if !slices.Equal(s.ioOff, off) {
				t.Errorf("%s procs=%d: offsets differ from the counting sort", spec.Name, procs)
			}
			if !slices.Equal(s.ioFlat, flat) {
				t.Errorf("%s procs=%d: instances differ from the counting sort", spec.Name, procs)
			}
		}
	}
}
