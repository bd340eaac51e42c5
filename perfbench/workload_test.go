package main

import (
	"context"
	"reflect"
	"testing"

	"sdds/internal/harness"
)

func TestRequestsDeterministicPerSeed(t *testing.T) {
	for _, w := range benchWorkloads {
		if w.sweep() {
			a, b, c := w.sweepConfig(7), w.sweepConfig(7), w.sweepConfig(8)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: seed 7 gave %+v then %+v", w.name, a, b)
			}
			if reflect.DeepEqual(a, c) {
				t.Errorf("%s: seeds 7 and 8 gave the same config %+v", w.name, a)
			}
			continue
		}
		a, err := w.requests(7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.requests(7)
		c, _ := w.requests(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 is not deterministic", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same requests", w.name)
		}
		if want := len(w.apps) * len(w.variants); len(a) != want {
			t.Errorf("%s: %d requests, want %d", w.name, len(a), want)
		}
		keys := map[string]bool{}
		for _, r := range a {
			keys[r.Key()] = true
		}
		if len(keys) != len(a) {
			t.Errorf("%s: %d requests but %d distinct keys", w.name, len(a), len(keys))
		}
	}
}

// TestPaperSweepPlanCounts pins the dedup the sweep workload exists to
// exercise: 116 requested runs, 36 distinct, 4 compiles.
func TestPaperSweepPlanCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep once")
	}
	w, err := workloadByName("paper_sweep")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := w.plan(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 36 {
		t.Errorf("plan has %d distinct runs, want 36", len(plan))
	}
	exps, err := experiments()
	if err != nil {
		t.Fatal(err)
	}
	s := harness.NewSession(harness.SessionOptions{Workers: sweepWorkers})
	if _, err := s.RunAll(context.Background(), exps, w.sweepConfig(1)); err != nil {
		t.Fatal(err)
	}
	sim, hits := s.Stats()
	if sim+hits != 116 || sim != 36 {
		t.Errorf("requested %d, distinct %d; want 116, 36", sim+hits, sim)
	}
	if cc := s.CompileCacheStats(); cc.Misses != 4 || cc.Hits != 12 {
		t.Errorf("compile cache %d misses, %d hits; want 4, 12", cc.Misses, cc.Hits)
	}
}

func TestWarmUpIsInThePlan(t *testing.T) {
	for _, w := range benchWorkloads {
		b, err := newBench(w, 3, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		warm := b.warmUp()
		if warm.App != w.apps[0] || (w.sweep() && !warm.Scheduling) {
			t.Errorf("%s: warm-up %s is not the first app's first shape", w.name, warm.Key())
		}
	}
}
