// Package mpiio is the I/O middleware of the simulated stack (§V-A: MPI-IO
// on top of PVFS): it exposes file-level read/write calls, fans each byte
// range out into stripe-unit chunks across the I/O nodes (Fig. 1), moves
// the bytes over the network model and completes when the last chunk lands.
// Both the application processes and the runtime data access scheduler
// issue their accesses through this layer.
package mpiio

import (
	"fmt"

	"sdds/internal/fault"
	"sdds/internal/ionode"
	"sdds/internal/netsim"
	"sdds/internal/probe"
	"sdds/internal/sim"
	"sdds/internal/stripe"
)

// FileInfo describes an open file.
type FileInfo struct {
	ID   int
	Name string
	Size int64
}

// Middleware routes file I/O to the I/O nodes.
type Middleware struct {
	eng    *sim.Engine
	layout stripe.Layout
	nodes  []*ionode.Node
	net    *netsim.Network
	files  map[int]FileInfo

	// flt/pr are the engine's fault injector and flight recorder, cached at
	// construction; both nil-safe.
	flt *fault.Injector
	pr  *probe.Probe

	reads, writes int64
	// Fault-degradation counters (all zero without an injector).
	retries      int64 // chunk re-reads/re-writes after a failed node call
	failedReads  int64 // chunks whose reads failed even after MaxRetries
	failedWrites int64 // chunks whose writes failed even after MaxRetries

	// Free lists of completed calls and chunk operations.
	callFree []*call
	opFree   []*chunkOp

	// retryCb re-issues a failed chunk (arg *chunkOp) after its backoff;
	// failCb completes a chunk as failed. Both bound once in New.
	retryCb, failCb sim.ArgHandler
}

// New wires the middleware. The node slice length must equal the layout's
// NumNodes.
func New(eng *sim.Engine, layout stripe.Layout, nodes []*ionode.Node, net *netsim.Network) (*Middleware, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	if len(nodes) != layout.NumNodes {
		return nil, fmt.Errorf("mpiio: %d nodes for a %d-node layout", len(nodes), layout.NumNodes)
	}
	m := &Middleware{
		eng:    eng,
		layout: layout,
		nodes:  nodes,
		net:    net,
		files:  make(map[int]FileInfo),
		flt:    eng.Faults(),
		pr:     eng.Probe(),
	}
	m.retryCb = m.retry
	m.failCb = m.fail
	return m, nil
}

// Open registers a file (MPI_File_open). Re-opening the same id is allowed
// and idempotent.
func (m *Middleware) Open(id int, name string, size int64) (FileInfo, error) {
	if size <= 0 {
		return FileInfo{}, fmt.Errorf("mpiio: file %q size %d must be positive", name, size)
	}
	fi := FileInfo{ID: id, Name: name, Size: size}
	m.files[id] = fi
	return fi, nil
}

// Layout returns the striping layout.
func (m *Middleware) Layout() stripe.Layout { return m.layout }

// Stats returns cumulative read/write call counts.
func (m *Middleware) Stats() (reads, writes int64) { return m.reads, m.writes }

// FaultStats returns the middleware's degradation counters: chunk retries
// and chunks that failed even after every retry.
func (m *Middleware) FaultStats() (retries, failedReads, failedWrites int64) {
	return m.retries, m.failedReads, m.failedWrites
}

// wrap keeps scaled-down file sizes addressable: offsets beyond the file
// wrap around, preserving the node-visit pattern of the original trace.
func (m *Middleware) wrap(file int, offset int64) int64 {
	fi, ok := m.files[file]
	if !ok || fi.Size <= 0 {
		return offset
	}
	if offset < 0 {
		offset = -offset
	}
	return offset % fi.Size
}

// Read fetches [offset, offset+length) of file, invoking done when every
// chunk has been read on its I/O node and transferred back over the
// network (MPI_File_read). ok reports whether every chunk delivered its
// data; a chunk whose node read fails (injected faults, retries exhausted)
// is re-read up to MaxRetries times with exponential backoff before the
// whole call degrades to ok=false.
func (m *Middleware) Read(file int, offset, length int64, done func(now sim.Time, ok bool)) error {
	if length <= 0 {
		return fmt.Errorf("mpiio: read length %d must be positive", length) //sddsvet:ignore hotalloc -- error path: argument validation only
	}
	m.reads++
	return m.start(file, offset, length, false, done)
}

// Write stores [offset, offset+length) of file: data moves to each node
// over the network, then the node writes it (MPI_File_write). ok=false
// only when a chunk's write failed after every bounded retry.
func (m *Middleware) Write(file int, offset, length int64, done func(now sim.Time, ok bool)) error {
	if length <= 0 {
		return fmt.Errorf("mpiio: write length %d must be positive", length) //sddsvet:ignore hotalloc -- error path: argument validation only
	}
	m.writes++
	return m.start(file, offset, length, true, done)
}

// call is one Read or Write in flight: the caller's completion and the
// number of chunks still outstanding. Calls are recycled through the
// middleware's free list.
type call struct {
	done      func(now sim.Time, ok bool)
	remaining int
	allOK     bool
}

// chunkOp is one stripe-unit chunk of a call. A read goes node → network,
// a write network → node. Ops are recycled through the middleware's free
// list; nodeFn and netFn are bound once, when the record is first built.
type chunkOp struct {
	m        *Middleware
	c        *call
	file     int
	chunk    stripe.Chunk
	write    bool
	attempts int
	nodeFn   func(now sim.Time, ok bool)
	netFn    func(now sim.Time)
}

// start splits the range into stripe-unit chunks and dispatches each one;
// done runs when all chunks complete, with ok = every chunk succeeded.
func (m *Middleware) start(file int, offset, length int64, write bool, done func(now sim.Time, ok bool)) error {
	offset = m.wrap(file, offset)
	if offset < 0 {
		return fmt.Errorf("mpiio: empty chunk set for off=%d len=%d", offset, length) //sddsvet:ignore hotalloc -- error path: unregistered file with a negative offset
	}
	first := m.layout.UnitOf(offset)
	last := m.layout.UnitOf(offset + length - 1)
	c := m.newCall()
	c.done = done
	c.remaining = int(last - first + 1)
	c.allOK = true
	// On an error return, chunks already dispatched still reference c (and
	// the failed op may be a coalesced node waiter), so neither goes back
	// to a free list.
	for u := first; u <= last; u++ {
		ch := m.layout.ChunkAt(offset, length, u)
		if ch.Node < 0 || ch.Node >= len(m.nodes) {
			return fmt.Errorf("mpiio: chunk mapped to invalid node %d", ch.Node) //sddsvet:ignore hotalloc -- error path: a validated layout maps every unit to a node
		}
		op := m.newOp()
		op.c = c
		op.file = file
		op.chunk = ch
		op.write = write
		op.attempts = 0
		var err error
		if write {
			err = m.net.Transfer(ch.Node, ch.Length, op.netFn)
		} else {
			err = op.issue()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (m *Middleware) newCall() *call {
	if k := len(m.callFree); k > 0 {
		c := m.callFree[k-1]
		m.callFree = m.callFree[:k-1]
		return c
	}
	return &call{} //sddsvet:ignore hotalloc -- free-list warm-up: allocates only until the pool reaches steady state
}

func (m *Middleware) newOp() *chunkOp {
	if k := len(m.opFree); k > 0 {
		op := m.opFree[k-1]
		m.opFree = m.opFree[:k-1]
		return op
	}
	op := &chunkOp{m: m} //sddsvet:ignore hotalloc -- free-list warm-up: allocates only until the pool reaches steady state
	op.nodeFn = op.nodeDone
	op.netFn = op.netDone
	return op
}

// issue sends the chunk's read or write to its I/O node.
func (op *chunkOp) issue() error {
	ch := op.chunk
	node := op.m.nodes[ch.Node]
	if op.write {
		return node.Write(op.file, ch.Unit, ch.Offset, ch.Length, op.nodeFn)
	}
	return node.Read(op.file, ch.Unit, ch.Offset, ch.Length, op.nodeFn)
}

// nodeDone is the I/O node's completion. A failed node call is re-issued
// after an exponential backoff, up to MaxRetries times; a read that
// succeeded then ships the chunk back over the network.
//
//sddsvet:hotpath
func (op *chunkOp) nodeDone(now sim.Time, ok bool) {
	m := op.m
	if !ok && op.attempts < m.flt.MaxRetries() {
		op.attempts++
		m.retries++
		m.pr.Emit(probe.KindRetry, int32(op.chunk.Node), int64(now), int64(op.attempts))
		backoff := sim.Duration(m.flt.RetryLatencyUS()) << (op.attempts - 1)
		label := "mpiio.read-retry"
		if op.write {
			label = "mpiio.write-retry"
		}
		m.eng.ScheduleArg(backoff, label, m.retryCb, op)
		return
	}
	if op.write {
		if !ok {
			m.failedWrites++
		}
		op.finish(now, ok)
		return
	}
	if !ok {
		m.failedReads++
		op.finish(now, false)
		return
	}
	// Ship the chunk back to the client.
	if err := m.net.Transfer(op.chunk.Node, op.chunk.Length, op.netFn); err != nil {
		// Transfer setup errors are programming errors; complete the
		// chunk so callers don't hang.
		m.eng.ScheduleArg(0, "mpiio.read-err", m.failCb, op)
	}
}

// netDone is the network delivery: it completes a read chunk, and hands a
// write chunk to its I/O node.
//
//sddsvet:hotpath
func (op *chunkOp) netDone(now sim.Time) {
	if !op.write {
		op.finish(now, true)
		return
	}
	if op.issue() != nil {
		op.m.eng.ScheduleArg(0, "mpiio.write-err", op.m.failCb, op)
	}
}

// finish completes one chunk, and the call with its last chunk. The op and
// call return to their free lists after the caller's done has run.
//
//sddsvet:hotpath
func (op *chunkOp) finish(now sim.Time, ok bool) {
	m, c := op.m, op.c
	if !ok {
		c.allOK = false
	}
	c.remaining--
	last := c.remaining == 0
	if last && c.done != nil {
		c.done(now, c.allOK)
	}
	op.c = nil
	m.opFree = append(m.opFree, op)
	if last {
		c.done = nil
		m.callFree = append(m.callFree, c)
	}
}

// retry re-issues a failed chunk (arg is its *chunkOp).
func (m *Middleware) retry(now sim.Time, arg any) {
	op := arg.(*chunkOp)
	if op.issue() != nil {
		op.finish(now, false) // validated config: unreachable
	}
}

// fail completes a chunk (arg is its *chunkOp) as failed.
func (m *Middleware) fail(now sim.Time, arg any) { arg.(*chunkOp).finish(now, false) }

// SignatureFor returns the I/O-node signature of a byte range of a file
// (after wrap normalization) — what the compiler attaches to accesses.
func (m *Middleware) SignatureFor(file int, offset, length int64) stripe.Signature {
	return m.layout.SignatureFor(m.wrap(file, offset), length)
}
