package harness

import (
	"context"
	"os"
	"strings"
	"testing"

	"sdds/internal/cluster"
)

// TestPlanRequestsCanonicalAndStable pins the partitionable plan form:
// deterministic order across derivations, every element canonical, and
// content keys distinct (the dedup invariant shards rely on).
func TestPlanRequestsCanonicalAndStable(t *testing.T) {
	c := Config{Scale: 0.05, Seed: 42}
	a := PlanRequests(All(), c)
	b := PlanRequests(All(), c)
	if len(a) == 0 {
		t.Fatal("PlanRequests returned an empty plan")
	}
	if len(a) != len(b) {
		t.Fatalf("plan lengths differ across derivations: %d vs %d", len(a), len(b))
	}
	seen := make(map[string]bool)
	for i, r := range a {
		if r != b[i] {
			t.Fatalf("plan order diverged at %d: %v vs %v", i, r, b[i])
		}
		norm, err := r.Normalize()
		if err != nil {
			t.Fatalf("plan element %d invalid: %v", i, err)
		}
		if norm != r {
			t.Errorf("plan element %d not canonical: %v normalizes to %v", i, r, norm)
		}
		key := r.ContentKey()
		if seen[key] {
			t.Errorf("plan element %d repeats content key %s", i, key)
		}
		seen[key] = true
	}
}

// TestInstallSeedsCache pins Install semantics: the installed result is
// served as a journal-provenance cache hit, a second install of the same
// key is a first-wins no-op, and an invalid request is rejected.
func TestInstallSeedsCache(t *testing.T) {
	s := NewSession(SessionOptions{})
	req := Request{App: "sar", Policy: "history", Scheduling: true, Scale: 0.05, Seed: 42}
	res := &cluster.Result{Program: "sar", EnergyJ: 123.5}

	added, err := s.Install(req, res)
	if err != nil || !added {
		t.Fatalf("Install = %v, %v, want true, nil", added, err)
	}
	if s.Preloaded() != 1 {
		t.Errorf("Preloaded = %d, want 1", s.Preloaded())
	}
	// Second install (even via a differently-spelled but equal request)
	// must not replace the entry.
	other := &cluster.Result{Program: "sar", EnergyJ: 999}
	added, err = s.Install(Request{App: "sar", Policy: "history-based", Scheduling: true, Scale: 0.05, Seed: 42}, other)
	if err != nil || added {
		t.Fatalf("re-Install = %v, %v, want false, nil", added, err)
	}

	got, hit, err := s.RunRequest(context.Background(), req)
	if err != nil {
		t.Fatalf("RunRequest: %v", err)
	}
	if !hit || got != res {
		t.Fatalf("RunRequest hit=%v res=%p, want the installed result %p", hit, got, res)
	}
	if cres, cerr, ok := s.Cached(req); !ok || cerr != nil || cres != res {
		t.Fatalf("Cached = %p, %v, %v, want installed result", cres, cerr, ok)
	}

	if _, err := s.Install(Request{App: "no-such-app"}, res); err == nil {
		t.Error("Install of invalid request succeeded, want error")
	}
	if _, err := s.Install(req, nil); err == nil {
		t.Error("Install of nil result succeeded, want error")
	}
}

// TestPlanKeysStable pins the run identity of the full paper plan: the
// Key of every planned request over all six apps, in plan order, against
// testdata/plan_keys.golden. Those keys are the store's content
// addresses, so a change here orphans every stored result.
func TestPlanKeysStable(t *testing.T) {
	want, err := os.ReadFile("testdata/plan_keys.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for i, r := range PlanRequests(All(), Config{Scale: 0.05, Seed: 42}) {
		norm, err := r.Normalize()
		if err != nil {
			t.Fatalf("plan element %d invalid: %v", i, err)
		}
		if norm != r {
			t.Errorf("plan element %d not normalized: %+v normalizes to %+v", i, r, norm)
		}
		got.WriteString(r.Key())
		got.WriteByte('\n')
	}
	if got.String() != string(want) {
		t.Fatalf("plan keys drifted from testdata/plan_keys.golden:\n%s", got.String())
	}
}
