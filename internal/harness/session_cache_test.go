package harness

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"sdds/internal/compilecache"
)

// TestSessionCompileCacheShared asserts a policy sweep shares one compile:
// two scheduled requests differing only in power policy resolve to one
// compile-cache miss plus one hit, one setup group, and results identical
// to a cache-disabled session.
func TestSessionCompileCacheShared(t *testing.T) {
	reqs := []Request{
		{App: "sar", Policy: "default", Scheduling: true, Scale: 0.02, Seed: 7},
		{App: "sar", Policy: "history", Scheduling: true, Scale: 0.02, Seed: 7},
	}

	cached := NewSession(SessionOptions{Workers: 2})
	plain := NewSession(SessionOptions{Workers: 2, DisableCompileCache: true})
	for _, req := range reqs {
		cres, _, err := cached.RunRequest(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		pres, _, err := plain.RunRequest(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(NewRunRecord(cres))
		b, _ := json.Marshal(NewRunRecord(pres))
		if string(a) != string(b) {
			t.Errorf("%s/%s: cached run diverged from inline compile:\n%s\n%s",
				req.App, req.Policy, a, b)
		}
	}

	st := cached.CompileCacheStats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("compile cache stats = %+v, want 1 miss / 1 hit", st)
	}
	if g := cached.SetupGroups(); g != 1 {
		t.Errorf("setup groups = %d, want 1 (same app/scale/procs)", g)
	}
	if st := plain.CompileCacheStats(); st != (compilecache.Stats{}) {
		t.Errorf("disabled session reported cache stats %+v", st)
	}
}

// TestSessionCompileProvProgress asserts progress events carry compile
// provenance: "compiled" on the first scheduled run, "memo" via a shared
// cache, and "" for scheduling-off runs.
func TestSessionCompileProvProgress(t *testing.T) {
	var provs []string
	s := NewSession(SessionOptions{
		Workers:      1,
		CompileCache: compilecache.New(),
		Progress:     func(p Progress) { provs = append(provs, p.CompileProv) },
	})
	sched := Request{App: "sar", Scheduling: true, Scale: 0.02, Seed: 7}
	plain := Request{App: "sar", Scheduling: false, Scale: 0.02, Seed: 7}
	if _, _, err := s.RunRequest(context.Background(), sched); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RunRequest(context.Background(), plain); err != nil {
		t.Fatal(err)
	}
	// Different seed: a distinct simulation whose compile memo-hits.
	memoReq := sched
	memoReq.Seed = 8
	if _, _, err := s.RunRequest(context.Background(), memoReq); err != nil {
		t.Fatal(err)
	}
	if want := []string{"compiled", "", "memo"}; len(provs) != 3 ||
		provs[0] != want[0] || provs[1] != want[1] || provs[2] != want[2] {
		t.Fatalf("progress provenance = %v, want %v", provs, want)
	}
}

// TestSessionJournalProgressProvenance asserts a resumed-journal hit is
// distinguishable in progress events: FromJournal is true and CompileProv
// is empty (the journal does not record compiler output), while an
// in-session repeat of a live run reports FromJournal false.
func TestSessionJournalProgressProvenance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	req := Request{App: "sar", Scheduling: true, Scale: 0.02, Seed: 7}

	j1, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewSession(SessionOptions{Workers: 1, Journal: j1})
	if _, _, err := s1.RunRequest(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var events []Progress
	s2 := NewSession(SessionOptions{
		Workers:  1,
		Journal:  j2,
		Progress: func(p Progress) { events = append(events, p) },
	})
	if s2.Preloaded() != 1 {
		t.Fatalf("preloaded = %d, want 1", s2.Preloaded())
	}
	if _, hit, err := s2.RunRequest(context.Background(), req); err != nil || !hit {
		t.Fatalf("journal-preloaded run: hit=%v err=%v", hit, err)
	}
	// A live run of a different seed, then its in-session repeat.
	live := req
	live.Seed = 8
	if _, _, err := s2.RunRequest(context.Background(), live); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := s2.RunRequest(context.Background(), live); err != nil || !hit {
		t.Fatalf("in-session repeat: hit=%v err=%v", hit, err)
	}
	if len(events) != 3 {
		t.Fatalf("progress events = %d, want 3", len(events))
	}
	if !events[0].Hit || !events[0].FromJournal || events[0].CompileProv != "" {
		t.Errorf("journal hit event = %+v, want Hit+FromJournal with empty CompileProv", events[0])
	}
	if events[1].Hit || events[1].FromJournal {
		t.Errorf("live run event = %+v, want miss", events[1])
	}
	if !events[2].Hit || events[2].FromJournal {
		t.Errorf("in-session repeat event = %+v, want Hit without FromJournal", events[2])
	}
}
