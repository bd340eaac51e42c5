package sched

import (
	"fmt"
	"sort"

	"sdds/internal/core"
	"sdds/internal/sim"
)

// AccessInfo resolves an access id to the byte range it covers — the
// agent's view of the scheduling-table payload.
type AccessInfo struct {
	File   int
	Offset int64
	Length int64
	// WriterSlot is the producer's slot (-1 if the data pre-exists).
	WriterSlot int
}

// Fetcher issues an asynchronous read on behalf of an agent (implemented by
// the cluster executor on top of the MPI-IO middleware). done's ok reports
// whether the data arrived; under fault injection a fetch that exhausted
// every retry completes with ok=false and the agent aborts the prefetch.
type Fetcher interface {
	Fetch(file int, offset, length int64, done func(now sim.Time, ok bool)) error
}

// LocalClock exposes the processes' progress: MinSlot is the minimum local
// slot any process has completed — the "local time" the paper's scheduler
// threads exchange before fetching cross-process data.
type LocalClock interface {
	MinSlot() int
}

// Agent is one process's scheduler thread. It walks the process's
// scheduling table (only the entries moved earlier than their original
// points) and issues prefetches into the shared global buffer.
type Agent struct {
	proc    int
	table   []core.Entry
	resolve func(accessID int) (AccessInfo, bool)
	fetcher Fetcher
	buf     *GlobalBuffer
	clock   LocalClock

	next      int // first table index not yet issued
	localSlot int

	issued, skippedFull, deferredWriter int64
	fetchAborts                         int64

	// fetchFree recycles completed prefetch records.
	fetchFree []*prefetch
}

// prefetch is one issued fetch of an agent, completed by done. Records are
// recycled through the agent's free list; doneFn is bound once, when the
// record is first built.
type prefetch struct {
	a      *Agent
	id     int // access id the fetch fills
	doneFn func(now sim.Time, ok bool)
}

// NewAgent builds the agent for proc from its full scheduling table; the
// agent keeps only entries scheduled earlier than their original point
// (§III: "the scheduler only performs data accesses scheduled at much
// earlier iterations than their original points").
func NewAgent(proc int, table []core.Entry, resolve func(int) (AccessInfo, bool), fetcher Fetcher, buf *GlobalBuffer, clock LocalClock) (*Agent, error) {
	if resolve == nil || fetcher == nil || buf == nil || clock == nil {
		return nil, fmt.Errorf("sched: agent %d: nil dependency", proc)
	}
	moved := make([]core.Entry, 0, len(table))
	for _, e := range table {
		if e.Slot < e.Orig {
			moved = append(moved, e)
		}
	}
	sort.SliceStable(moved, func(i, j int) bool { return moved[i].Slot < moved[j].Slot })
	return &Agent{
		proc:    proc,
		table:   moved,
		resolve: resolve,
		fetcher: fetcher,
		buf:     buf,
		clock:   clock,
		next:    0,
	}, nil
}

// Stats returns prefetch counters: issued fetches, skips due to a full
// buffer, and deferrals waiting for a producer.
func (a *Agent) Stats() (issued, skippedFull, deferredWriter int64) {
	return a.issued, a.skippedFull, a.deferredWriter
}

// FetchAborts returns how many issued prefetches completed unsuccessfully
// (injected faults, retries exhausted) and released their reservation.
// Always zero without fault injection.
func (a *Agent) FetchAborts() int64 { return a.fetchAborts }

// PendingEntries returns how many table entries have not been issued yet.
func (a *Agent) PendingEntries() int { return len(a.table) - a.next }

// AdvanceTo records that the agent's process reached local slot `slot` and
// pumps the table. It is also the hook other agents' progress re-triggers
// (a producer advancing may unblock a deferred fetch).
func (a *Agent) AdvanceTo(slot int, now sim.Time) {
	if slot > a.localSlot {
		a.localSlot = slot
	}
	a.Pump(now)
}

// Pump issues every table entry that is due, in order, stopping at the
// first entry that must wait — for its producer's local time or for buffer
// space. Stopping (rather than skipping) preserves the table order and
// implements the paper's "stop fetching when the buffer is full".
//
// Dueness follows the *global* minimum local time rather than the agent's
// own process clock: the scheduler threads synchronize with each other
// (§III), so every process's accesses scheduled at slot s are issued
// together when the slowest process reaches s. This is what converts
// slot-space grouping into temporal grouping at the disks — individual
// process clocks drift apart, and pacing each agent by its own clock would
// smear a scheduled burst over the drift window.
func (a *Agent) Pump(now sim.Time) {
	// A small lead over the global clock keeps accesses with short
	// advances fetchable: with zero lead, the slowest process reaches slot
	// s only after faster owners have already passed nearby original
	// points and the entries would all be dropped as stale.
	const dueLead = 2
	due := a.clock.MinSlot() + dueLead
	for a.next < len(a.table) {
		e := a.table[a.next]
		if e.Slot > due {
			return // not due yet
		}
		info, ok := a.resolve(e.AccessID)
		if !ok {
			a.next++ // unknown access: drop
			continue
		}
		// The prefetch is pointless once the process has passed the
		// original point (the application already read it synchronously).
		if a.localSlot >= e.Orig {
			a.next++
			continue
		}
		// Producer check: fetch only after every process has passed the
		// writer's slot, ensuring the data on disk is final.
		if info.WriterSlot >= 0 && a.clock.MinSlot() <= info.WriterSlot {
			a.deferredWriter++
			return // retry on the next AdvanceTo from any process
		}
		if !a.buf.Reserve(e.AccessID, info.Length) {
			a.skippedFull++
			return // buffer full: stop fetching until space frees
		}
		pf := a.newPrefetch(e.AccessID)
		if err := a.fetcher.Fetch(info.File, info.Offset, info.Length, pf.doneFn); err != nil {
			// A fetch that failed to start never completes: the record is
			// left to the garbage collector, which is safe even if part of
			// the read was dispatched.
			a.buf.Abort(e.AccessID)
			a.next++
			continue
		}
		a.issued++
		a.next++
	}
}

// newPrefetch takes a prefetch record for access id from the free list.
func (a *Agent) newPrefetch(id int) *prefetch {
	var pf *prefetch
	if k := len(a.fetchFree); k > 0 {
		pf = a.fetchFree[k-1]
		a.fetchFree = a.fetchFree[:k-1]
	} else {
		pf = &prefetch{a: a} //sddsvet:ignore hotalloc -- free-list warm-up: allocates only until the pool reaches steady state
		pf.doneFn = pf.done
	}
	pf.id = id
	return pf
}

// done completes a prefetch: the data is committed to the global buffer,
// or on failure the reservation is released. The record returns to the
// free list afterwards.
//
//sddsvet:hotpath
func (pf *prefetch) done(now sim.Time, ok bool) {
	a := pf.a
	if !ok {
		// The prefetch failed after every bounded retry: release the
		// reservation and wake any waiting reader as a miss — it falls
		// back to an on-demand read. Producer local-time ordering is
		// untouched: the entry simply behaves as if it was never
		// prefetched.
		a.fetchAborts++
		a.buf.Abort(pf.id)
	} else {
		// Commit reports false when the read bypassed us; space was
		// already released by TryConsume, so there is nothing more to do.
		a.buf.Commit(pf.id)
	}
	a.fetchFree = append(a.fetchFree, pf)
}
