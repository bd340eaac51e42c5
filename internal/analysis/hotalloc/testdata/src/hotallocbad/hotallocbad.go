// Package hotallocbad is the hotalloc analyzer fixture. It imports the real
// sim engine so method resolution runs against the actual
// sdds/internal/sim.Engine type.
package hotallocbad

import (
	"encoding/json"

	"sdds/internal/probe"
	"sdds/internal/sim"
)

type server struct {
	eng     *sim.Engine
	tickFn  sim.Handler
	pending int
}

func newServer() *server {
	s := &server{eng: sim.NewEngine(1)}
	s.tickFn = s.onTick
	return s
}

func (s *server) onTick(now sim.Time) { s.pending-- }

func capturingSchedule(s *server) {
	s.eng.ScheduleFunc(1, "bad", func(now sim.Time) { // want `capturing closure passed to Engine\.ScheduleFunc`
		s.pending++
	})
	s.eng.ScheduleArg(1, "bad", func(now sim.Time, arg any) { // want `capturing closure passed to Engine\.ScheduleArg`
		s.pending = int(now)
	}, nil)
}

func preBoundSchedule(s *server) {
	s.eng.ScheduleFunc(1, "ok", s.tickFn)              // pre-bound handler: allowed
	s.eng.ScheduleFunc(1, "ok", func(now sim.Time) {}) // non-capturing literal: no allocation
	// Handle-returning Schedule is the cancellable-timer (cold) path; its
	// closures are not the analyzer's business.
	s.eng.Schedule(1, "ok", func(now sim.Time) { s.onTick(now) })
}

func ignoredCapture(s *server) {
	//sddsvet:ignore hotalloc -- fixture: startup-only site, once per run
	s.eng.ScheduleFunc(0, "start", func(now sim.Time) { s.pending++ })
}

//sddsvet:hotpath
func (s *server) hotServe(now sim.Time) {
	fn := func(t sim.Time) { s.pending-- } // want `capturing closure in hotpath function hotServe`
	_ = fn
	p := new(server) // want `new\(\.\.\.\) in hotpath function hotServe`
	_ = p
	q := &server{eng: s.eng} // want `&composite literal in hotpath function hotServe`
	_ = q
	buf := make([]int, 4) // want `make\(\.\.\.\) in hotpath function hotServe`
	_ = buf
	fns := []sim.Handler{s.tickFn} // want `slice/map literal in hotpath function hotServe`
	_ = fns
}

//sddsvet:hotpath
func (s *server) hotClean(now sim.Time) {
	s.pending++
	s.eng.ScheduleFunc(1, "ok", s.tickFn)
	//sddsvet:ignore hotalloc -- fixture: cold error path inside a hot function
	msg := []int{1}
	_ = msg
}

func coldAllocs() *server {
	// Not annotated: construction-time allocation is fine.
	return &server{eng: sim.NewEngine(7)}
}

// hotDeep allocates only through helpers, two levels down: nothing in its
// own body allocates, so only the summary engine can flag it — with the
// full chain from the call site to the make at the leaf.
//
//sddsvet:hotpath
func (s *server) hotDeep(now sim.Time) {
	growBatch(s) // want `call allocates on the hot path: hotallocbad\.server\.hotDeep → hotallocbad\.growBatch → hotallocbad\.newBatch → make\(\.\.\.\) allocates`
	noteIdle(s)
}

func growBatch(s *server) {
	_ = newBatch()
}

func newBatch() []int {
	return make([]int, 0, 16)
}

// noteIdle is allocation-free all the way down: calling it from a hotpath
// function is fine.
func noteIdle(s *server) {
	s.pending++
}

// --- probe emit path ---------------------------------------------------
// The tracing layer's Probe.Emit carries //sddsvet:hotpath; these fixtures
// pin down what the analyzer must allow on that path (value struct writes
// into a preallocated ring, the nil-checked Emit call itself) and what it
// must flag (per-event record boxing, closures capturing the probe).

type emitter struct {
	eng  *sim.Engine
	pr   *probe.Probe
	ring []probe.Record
	next int
}

//sddsvet:hotpath
func (e *emitter) emitClean(now sim.Time) {
	// A value composite literal stored into the preallocated ring does not
	// allocate — this is exactly Probe.Emit's body shape.
	e.ring[e.next&(len(e.ring)-1)] = probe.Record{T: int64(now), Kind: probe.KindIOIssue, ID: 3}
	e.next++
	e.pr.Emit(probe.KindIOComplete, 3, int64(now), 0)
}

//sddsvet:hotpath
func (e *emitter) emitBoxed(now sim.Time) {
	r := &probe.Record{T: int64(now)} // want `&composite literal in hotpath function emitBoxed`
	_ = r
	batch := []probe.Record{{T: int64(now)}} // want `slice/map literal in hotpath function emitBoxed`
	_ = batch
	grown := make([]probe.Record, 0, 1) // want `make\(\.\.\.\) in hotpath function emitBoxed`
	_ = grown
}

// --- (de)serialization on the hot path ---------------------------------
// The result journal (de)serializes run records through encoding/json —
// once per run, in the restore/store layer. Those
// calls must never migrate into a //sddsvet:hotpath function: every
// Marshal reflects over the value and allocates the output buffer.

type cacheEntry struct {
	key  string
	blob []byte
}

//sddsvet:hotpath
func (e *emitter) hotSerialize(entry *cacheEntry) {
	blob, err := json.Marshal(entry.key) // want `encoding/json\.Marshal in hotpath function hotSerialize`
	_, _ = blob, err
	err = json.Unmarshal(entry.blob, &entry.key) // want `encoding/json\.Unmarshal in hotpath function hotSerialize`
	_ = err
}

// coldSerialize is the restore/store layer's shape: unannotated, runs once
// per run, allowed.
func coldSerialize(entry *cacheEntry) error {
	blob, err := json.Marshal(entry.key)
	if err != nil {
		return err
	}
	return json.Unmarshal(blob, &entry.key)
}

func emitViaSchedule(e *emitter) {
	// Wrapping an emit in a capturing closure per scheduled event rebuilds
	// the allocation the de-closured path removed.
	e.eng.ScheduleFunc(1, "bad", func(now sim.Time) { // want `capturing closure passed to Engine\.ScheduleFunc`
		e.pr.Emit(probe.KindSpinUp, 0, int64(now), 0)
	})
}
