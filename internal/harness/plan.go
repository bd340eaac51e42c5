package harness

import (
	"fmt"

	"sdds/internal/cluster"
)

// PlanRequests derives the complete distinct run plan of the experiments
// as canonical Requests, in deterministic order (the first experiment to
// need a key wins its slot — the same order Prime executes). This is the
// partitionable form of the plan: a sharded sweep coordinator hands
// slices of it to workers, and because every element is canonical, the
// shard contents are content-addressed and stable across processes.
func PlanRequests(exps []Experiment, c Config) []Request {
	return planFor(exps, c.withDefaults())
}

// Install seeds the session cache with an externally-produced result —
// one a sharded worker simulated and the coordinator merged back. The
// request is normalized first; the result is installed as a resolved,
// journal-provenance entry so later Run/RunRequest calls hit it without
// simulating. An existing entry (resolved or in flight) wins: Install
// reports false and changes nothing, mirroring the store's first-write-
// wins semantics. The session's own journal is NOT appended — installed
// results were already durably recorded by whoever produced them.
func (s *Session) Install(req Request, res *cluster.Result) (bool, error) {
	norm, err := req.Normalize()
	if err != nil {
		return false, err
	}
	if res == nil {
		return false, fmt.Errorf("harness: install %s: nil result", norm.Key())
	}
	key := norm.canonical()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.memo[key]; exists {
		return false, nil
	}
	done := make(chan struct{})
	close(done)
	s.memo[key] = &memoEntry{done: done, res: res, preloaded: true}
	s.preloaded++
	return true, nil
}
