// Package sim provides the discrete-event simulation engine underlying the
// whole reproduction: a virtual clock in microseconds, a 4-ary min-heap
// event queue with deterministic tie-breaking, cancellable timers, and a
// seeded RNG. Every device model (disks, network links, client processes)
// advances exclusively through this engine, so a run with a fixed seed is
// exactly reproducible.
//
// The hot path is allocation-free in steady state: events scheduled through
// ScheduleFunc/ScheduleArg are drawn from a per-engine free list and
// recycled the moment they fire (or are compacted away after cancellation),
// and the heap is specialized to *Event so no interface boxing occurs.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"sdds/internal/fault"
	"sdds/internal/probe"
)

// Time is a point in virtual time, measured in microseconds since the start
// of the simulation.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration = Time

// Common duration units, all expressed in the engine's microsecond base.
const (
	Microsecond Duration = 1
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
	Minute      Duration = 60 * Second
)

// Seconds converts a virtual duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds converts a virtual duration to floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String renders the time as seconds with microsecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// MilliToTime converts floating-point milliseconds into a Duration.
func MilliToTime(ms float64) Duration { return Duration(ms * float64(Millisecond)) }

// Handler is a callback invoked when an event fires. The engine passes the
// current virtual time.
type Handler func(now Time)

// ArgHandler is the de-closured callback form: a reusable function bound
// once (typically a field initialized at construction) that receives the
// argument it was scheduled with. Converting a hot call site from a
// per-schedule closure to (ArgHandler, arg) removes the closure allocation;
// combined with the event free list the whole schedule→fire cycle is
// allocation-free.
type ArgHandler func(now Time, arg any)

// Event is a scheduled callback. It is returned by Schedule so callers can
// cancel pending events (e.g. a power-policy timeout that a new request
// obsoletes).
//
// Handle-returning schedule calls (Schedule, ScheduleAt) produce retained
// events that are never recycled, so a stale handle held after the event
// fired stays inert forever — Cancel on it remains a no-op. Events from the
// fire-and-forget paths (ScheduleFunc, ScheduleArg) never escape to callers
// and are returned to the engine's free list on fire/compaction.
type Event struct {
	at        Time
	seq       uint64
	fn        Handler
	afn       ArgHandler
	arg       any
	eng       *Engine
	queued    bool // still in the heap (cleared on pop/compaction)
	cancelled bool
	retained  bool
}

// At reports the virtual time the event is scheduled to fire.
func (e *Event) At() Time { return e.at }

// Cancelled reports whether Cancel was called before the event fired.
func (e *Event) Cancelled() bool { return e.cancelled }

// Cancel prevents a pending event from firing. Cancelling an event that has
// already fired (or was already cancelled) is a harmless no-op. The event
// stays in the queue and is dropped lazily — either when it reaches the
// heap root or when the engine compacts the queue.
func (e *Event) Cancel() {
	if e.cancelled {
		return
	}
	e.cancelled = true
	if e.queued && e.eng != nil {
		e.eng.cancelledPending++
		e.eng.maybeCompact()
	}
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all model code runs inside event handlers on one goroutine.
type Engine struct {
	now     Time
	queue   []heapEntry
	free    []*Event
	seq     uint64
	rng     *rand.Rand
	stopped bool

	// cancelledPending counts cancelled events still sitting in the queue;
	// Pending subtracts it so callers see live events only, and compaction
	// triggers when it dominates the queue.
	cancelledPending int

	// Stats for observability and tests.
	fired     uint64
	scheduled uint64

	// probe is the optional flight recorder. The engine itself never emits
	// (Step's budget is sacred); it only carries the pointer so models can
	// fetch it once at construction and emit from their own call sites.
	probe *probe.Probe

	// faults is the optional fault injector, carried exactly like the probe:
	// the engine never draws from it, models cache the pointer at New time
	// and consult it at their own decision points.
	faults *fault.Injector
}

// NewEngine returns an engine with the clock at zero and the given RNG seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic RNG. Model code must use this (and
// never the global rand) so runs are reproducible from the seed.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// SetProbe attaches a flight recorder. Call before constructing models:
// they cache the pointer at New time, so a probe set later is invisible to
// them. A nil probe (the default) disables tracing.
func (e *Engine) SetProbe(p *probe.Probe) { e.probe = p }

// Probe returns the attached flight recorder, or nil when tracing is off.
// Model emit sites call through the returned pointer; probe.Emit is
// nil-safe, so callers need no guard of their own.
func (e *Engine) Probe() *probe.Probe { return e.probe }

// SetFaults attaches a fault injector. Like SetProbe, call before
// constructing models: they cache the pointer at New time. A nil injector
// (the default) disables fault injection.
func (e *Engine) SetFaults(f *fault.Injector) { e.faults = f }

// Faults returns the attached fault injector, or nil when injection is off.
// fault.Injector methods are nil-safe, so model decision points need no
// guard of their own.
func (e *Engine) Faults() *fault.Injector { return e.faults }

// EventsFired reports how many events have executed so far.
func (e *Engine) EventsFired() uint64 { return e.fired }

// EventsScheduled reports how many events have been enqueued so far.
func (e *Engine) EventsScheduled() uint64 { return e.scheduled }

// Pending reports the number of live (non-cancelled) events currently
// queued. Cancelled-but-unpopped events are excluded.
func (e *Engine) Pending() int { return len(e.queue) - e.cancelledPending }

// FreeListLen reports the number of recycled events available for reuse
// (observability for the allocation tests).
func (e *Engine) FreeListLen() int { return len(e.free) }

// ErrPastEvent is returned by ScheduleAt when the requested time is before
// the current clock.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// alloc returns an event from the free list (or a fresh one), initialized
// for the given firing time.
func (e *Engine) alloc(at Time, retained bool) *Event {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{} //sddsvet:ignore hotalloc -- free-list warm-up: allocates only until the pool reaches steady state
	}
	e.seq++
	e.scheduled++
	ev.at = at
	ev.seq = e.seq
	ev.eng = e
	ev.retained = retained
	ev.cancelled = false
	return ev
}

// recycle returns a popped, non-retained event to the free list. Retained
// events (whose handles may still be held by callers) are left alone.
func (e *Engine) recycle(ev *Event) {
	if ev.retained {
		return
	}
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	e.free = append(e.free, ev)
}

// Schedule enqueues fn to run after delay. A negative delay is clamped to
// zero (fires at the current time, after currently-running handlers). The
// returned handle can be cancelled; it is never recycled, so keeping it
// around after the event fires is safe. The label names the event at the
// call site; across the Schedule family only ScheduleAt reports it, in its
// ErrPastEvent text.
func (e *Engine) Schedule(delay Duration, label string, fn Handler) *Event {
	if delay < 0 {
		delay = 0
	}
	ev := e.alloc(e.now+delay, true)
	ev.fn = fn
	e.push(ev)
	return ev
}

// ScheduleAt enqueues fn to run at absolute time at. It returns ErrPastEvent
// if at precedes the current clock. Scheduling exactly at the current time is
// allowed: the event fires after currently-running handlers, ordered by
// schedule sequence among same-time events.
func (e *Engine) ScheduleAt(at Time, label string, fn Handler) (*Event, error) {
	if at < e.now {
		return nil, fmt.Errorf("%w: at=%v now=%v (%s)", ErrPastEvent, at, e.now, label)
	}
	ev := e.alloc(at, true)
	ev.fn = fn
	e.push(ev)
	return ev, nil
}

// ScheduleFunc enqueues fn to run after delay without returning a handle.
// The backing event is recycled when it fires, so steady-state scheduling
// through this path does not allocate. Use it for fire-and-forget work that
// never needs Cancel.
func (e *Engine) ScheduleFunc(delay Duration, label string, fn Handler) {
	if delay < 0 {
		delay = 0
	}
	ev := e.alloc(e.now+delay, false)
	ev.fn = fn
	e.push(ev)
}

// ScheduleArg enqueues fn(now, arg) to run after delay. fn is typically a
// callback bound once at construction time and arg a long-lived pointer, so
// the call allocates nothing: no closure is created and the backing event is
// recycled when it fires. This is the hot-path scheduling primitive used by
// the disk service pipeline, the network link, and the cluster executor.
func (e *Engine) ScheduleArg(delay Duration, label string, fn ArgHandler, arg any) {
	if delay < 0 {
		delay = 0
	}
	ev := e.alloc(e.now+delay, false)
	ev.afn = fn
	ev.arg = arg
	e.push(ev)
}

// Stop makes Run return after the currently-executing handler completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single next event, advancing the clock to its timestamp.
// It returns false when the queue is empty or the engine was stopped.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		if e.stopped {
			return false
		}
		at := e.queue[0].at
		ev := e.pop()
		if ev.cancelled {
			e.cancelledPending--
			e.recycle(ev)
			continue
		}
		e.now = at
		e.fired++
		// Copy what the fire needs, then recycle *before* calling: the
		// handler may schedule, and reusing this event for that schedule is
		// exactly the steady-state the free list exists for.
		fn, afn, arg := ev.fn, ev.afn, ev.arg
		e.recycle(ev)
		if afn != nil {
			afn(e.now, arg)
		} else {
			fn(e.now)
		}
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called. It returns
// the final clock value.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// interruptStride is how many events fire between context checks in
// RunContext. Large enough that the check is free relative to handler work,
// small enough that cancellation lands within microseconds of wall time.
const interruptStride = 1024

// RunContext executes events like Run but polls ctx every interruptStride
// events, returning ctx's error (and the clock at the abort point) if the
// context is cancelled before the queue drains. A run that drains its queue
// returns a nil error even if ctx was cancelled concurrently.
func (e *Engine) RunContext(ctx context.Context) (Time, error) {
	if ctx == nil || ctx.Done() == nil {
		return e.Run(), nil
	}
	if err := ctx.Err(); err != nil {
		return e.now, err
	}
	n := 0
	for e.Step() {
		n++
		if n%interruptStride == 0 {
			if err := ctx.Err(); err != nil {
				return e.now, err
			}
		}
	}
	return e.now, nil
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline (if the queue drained earlier) and returns it.
func (e *Engine) RunUntil(deadline Time) Time {
	for len(e.queue) > 0 && !e.stopped {
		next := e.queue[0]
		if next.ev.cancelled {
			e.cancelledPending--
			e.recycle(e.pop())
			continue
		}
		if next.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// ---------------------------------------------------------------------------
// Event queue: an inlined 4-ary min-heap ordered by (time, sequence) so that
// simultaneous events fire in scheduling order — the property the
// determinism tests rely on. Heap entries carry the (at, seq) key inline
// next to the event pointer, so sift comparisons read the contiguous entry
// array and never dereference an Event; together with specializing away
// container/heap's any-boxed Push/Pop this removes both the boxing
// allocation and the cache misses that dominated the seed queue. The 4-ary
// shape halves sift-down depth, which matters because pops (root
// replacement, full-depth sift) outnumber pushes' short sift-ups.

// heapEntry is one heap slot: the ordering key plus the scheduled event.
type heapEntry struct {
	at  Time
	seq uint64
	ev  *Event
}

// before orders entries by (at, seq); seq is unique so the order is total.
func (a heapEntry) before(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push appends ev and sifts it up.
func (e *Engine) push(ev *Event) {
	ev.queued = true
	ent := heapEntry{at: ev.at, seq: ev.seq, ev: ev}
	q := append(e.queue, ent)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !ent.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ent
	e.queue = q
}

// pop removes and returns the minimum event.
func (e *Engine) pop() *Event {
	q := e.queue
	top := q[0].ev
	top.queued = false
	n := len(q) - 1
	last := q[n]
	q[n] = heapEntry{}
	e.queue = q[:n]
	if n > 0 {
		e.popSift(last)
	}
	return top
}

// popSift re-seats the displaced last entry after a root pop, bottom-up:
// descend the min-child path unconditionally to a leaf (3 comparisons per
// level instead of 4 — no moving-element check), then sift the entry up
// from the hole. The displaced entry came from the deepest level, so the
// up-phase almost always stops immediately.
func (e *Engine) popSift(ent heapEntry) {
	q := e.queue
	n := len(q)
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		if first+3 < n {
			c := q[first : first+4 : first+4]
			if c[1].before(c[0]) {
				min = first + 1
				if c[2].before(c[1]) {
					min = first + 2
				}
			} else if c[2].before(c[0]) {
				min = first + 2
			}
			if c[3].before(q[min]) {
				min = first + 3
			}
		} else {
			for c := first + 1; c < n; c++ {
				if q[c].before(q[min]) {
					min = c
				}
			}
		}
		q[i] = q[min]
		i = min
	}
	for i > 0 {
		parent := (i - 1) >> 2
		if !ent.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ent
}

// siftDown places ent at position i, pushing it below smaller children. The
// four-child min scan is unrolled for the full-fanout case so the compiler
// drops the slice bounds checks on the hot interior levels.
func (e *Engine) siftDown(ent heapEntry, i int) {
	q := e.queue
	n := len(q)
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		min := first
		if first+3 < n {
			c := q[first : first+4 : first+4]
			if c[1].before(c[0]) {
				min = first + 1
				if c[2].before(c[1]) {
					min = first + 2
				}
			} else if c[2].before(c[0]) {
				min = first + 2
			}
			if c[3].before(q[min]) {
				min = first + 3
			}
		} else {
			for c := first + 1; c < n; c++ {
				if q[c].before(q[min]) {
					min = c
				}
			}
		}
		if !q[min].before(ent) {
			break
		}
		q[i] = q[min]
		i = min
	}
	q[i] = ent
}

// compactFloor is the minimum queue length before lazy-cancel compaction is
// considered; below it the dead entries cost nothing.
const compactFloor = 64

// maybeCompact removes cancelled events in bulk once they outnumber half the
// queue, rebuilding the heap in O(n). Firing order is unchanged: cancelled
// events never fire, and the rebuilt heap pops live events in the same total
// (time, seq) order.
func (e *Engine) maybeCompact() {
	if len(e.queue) < compactFloor || e.cancelledPending <= len(e.queue)/2 {
		return
	}
	q := e.queue
	live := q[:0]
	for _, ent := range q {
		if ent.ev.cancelled {
			ent.ev.queued = false
			e.recycle(ent.ev)
			continue
		}
		live = append(live, ent)
	}
	for i := len(live); i < len(q); i++ {
		q[i] = heapEntry{}
	}
	e.queue = live
	e.cancelledPending = 0
	// Floyd heapify over the surviving entries.
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		e.siftDown(live[i], i)
	}
}
