package ionode

import (
	"fmt"
	"sort"

	"sdds/internal/cache"
	"sdds/internal/disk"
	"sdds/internal/fault"
	"sdds/internal/probe"
	"sdds/internal/sim"
)

// Config describes one I/O node.
type Config struct {
	// DiskParams configures each member disk (Table II defaults).
	DiskParams disk.Params
	// Members is the number of disks in the node.
	Members int
	// Level is the RAID organization across members.
	Level RAIDLevel
	// CacheBytes is the storage-cache capacity (Table II: 64 MB).
	CacheBytes int64
	// UnitBytes is the stripe-unit / cache-block size (64 KB).
	UnitBytes int64
	// PrefetchDepth is how many sequential units the storage cache
	// prefetches after detecting a stride (AccuSim's server cache does I/O
	// prefetching); 0 disables prefetch.
	PrefetchDepth int
	// CacheHitTime is the service time of a storage-cache hit.
	CacheHitTime sim.Duration
	// PowerAwareCache switches the storage cache from plain LRU to the
	// PA-LRU-style policy (cache.PALRU): evictions prefer blocks whose
	// home disk is awake, protecting blocks that would wake a sleeping
	// disk to refetch (the related-work direction of Zhu et al.).
	PowerAwareCache bool
	// CacheLookahead bounds the PA-LRU eviction scan (0 = default).
	CacheLookahead int
	// WriteBack delays writes in the storage cache and flushes them in
	// batches every FlushEpoch (the delayed-write direction of §VI); zero
	// FlushEpoch with WriteBack set uses 10 s. Write-through (the default)
	// sends every write to the member disks immediately.
	WriteBack  bool
	FlushEpoch sim.Duration
}

// DefaultConfig returns the Table II node: a RAID10 mirror pair, 64 MB
// cache, 64 KB units, shallow sequential prefetch. (Table II lists RAID
// levels 5 and 10; RAID5 is exercised by the sensitivity experiments.)
func DefaultConfig() Config {
	return Config{
		DiskParams:    disk.DefaultParams(),
		Members:       2,
		Level:         RAID10,
		CacheBytes:    64 << 20,
		UnitBytes:     64 << 10,
		PrefetchDepth: 2,
		CacheHitTime:  sim.MilliToTime(0.05),
	}
}

// Validate reports the first configuration problem, or nil.
func (c Config) Validate() error {
	if err := c.DiskParams.Validate(); err != nil {
		return err
	}
	switch {
	case c.Members <= 0:
		return fmt.Errorf("ionode: members %d must be positive", c.Members)
	case c.CacheBytes <= 0:
		return fmt.Errorf("ionode: cache %d bytes must be positive", c.CacheBytes)
	case c.UnitBytes <= 0:
		return fmt.Errorf("ionode: unit %d bytes must be positive", c.UnitBytes)
	case c.PrefetchDepth < 0:
		return fmt.Errorf("ionode: prefetch depth %d must be ≥ 0", c.PrefetchDepth)
	case c.CacheHitTime < 0:
		return fmt.Errorf("ionode: negative cache hit time")
	case c.FlushEpoch < 0:
		return fmt.Errorf("ionode: negative flush epoch")
	}
	// Dry-run the mapper to surface level/member mismatches.
	var ios [2]diskIO
	if _, err := raidMap(c.Level, c.Members, 0, 0, 1, false, int64(c.DiskParams.SectorSize), c.UnitBytes, &ios); err != nil {
		return err
	}
	return nil
}

// Stats aggregates node-level counters.
type Stats struct {
	Reads          int64
	Writes         int64
	CacheHits      int64
	CacheMisses    int64
	PrefetchIssued int64
	BytesRead      int64
	BytesWritten   int64
	Flushes        int64
	// Fault-injection counters (all zero without an injector).
	Retries          int64 // member-disk resubmissions after transient errors
	RetriesExhausted int64 // requests that failed even after MaxRetries
	Stalls           int64 // injected node stalls
	FailedUnits      int64 // unit fetches abandoned after exhausted retries
}

// Node is one I/O node: member disks behind a storage cache.
type Node struct {
	ID    int
	eng   *sim.Engine
	cfg   Config
	disks []*disk.Disk
	cache cache.Store

	// Stride prefetcher state (per file).
	lastUnit  map[int]int64
	lastDelta map[int]int64
	inflight  cache.Index[*fetch] // miss coalescing

	// totalSectors is DiskParams.TotalSectors(), computed once.
	totalSectors int64

	// Free lists of completed member-disk batches and unit fetches.
	batchFree []*batch
	fetchFree []*fetch

	// Write-back state: dirty units awaiting the epoch flush.
	dirty      map[cache.Key]int64 // key → bytes pending
	flushTimer bool

	// pr is the engine's flight recorder, cached at construction.
	pr *probe.Probe
	// flt is the engine's fault injector, cached like the probe; nil-safe.
	flt *fault.Injector

	// okCb completes a fault-free request: arg is the caller's
	// done func(sim.Time, bool). Bound once so the cache-hit and
	// write-back-ack paths schedule without a per-call closure.
	okCb sim.ArgHandler
	// retryCb resubmits a member request (arg *memberIO) after an injected
	// transient error; bound once like okCb.
	retryCb sim.ArgHandler
	// flushFn is the write-back epoch timer, bound once.
	flushFn sim.Handler

	stats Stats
}

// New builds an I/O node with freshly spun-up member disks.
func New(eng *sim.Engine, id int, cfg Config) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.WriteBack && cfg.FlushEpoch == 0 {
		cfg.FlushEpoch = 10 * sim.Second
	}
	n := &Node{
		ID:           id,
		eng:          eng,
		cfg:          cfg,
		lastUnit:     make(map[int]int64),
		lastDelta:    make(map[int]int64),
		dirty:        make(map[cache.Key]int64),
		totalSectors: cfg.DiskParams.TotalSectors(),
		pr:           eng.Probe(),
		flt:          eng.Faults(),
	}
	n.okCb = n.onOK
	n.retryCb = n.resubmit
	n.flushFn = n.onFlushTimer
	for i := 0; i < cfg.Members; i++ {
		d, err := disk.New(eng, id*100+i, cfg.DiskParams)
		if err != nil {
			return nil, err
		}
		n.disks = append(n.disks, d)
	}
	if cfg.PowerAwareCache {
		pal, err := cache.NewPALRU(cfg.CacheBytes, n.diskAwake, cfg.CacheLookahead)
		if err != nil {
			return nil, err
		}
		n.cache = pal
	} else {
		lru := cache.MustNew(cfg.CacheBytes)
		// Every cached block is one whole unit, so the cache holds at most
		// CacheBytes/UnitBytes of them: size it once instead of doubling.
		lru.Reserve(int(cfg.CacheBytes / cfg.UnitBytes))
		n.cache = lru
	}
	return n, nil
}

// MustNew is New, panicking on error.
func MustNew(eng *sim.Engine, id int, cfg Config) *Node {
	n, err := New(eng, id, cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// diskAwake reports whether the data disk holding a cached block is
// spinning (the PA-LRU activity callback): blocks of sleeping disks are
// protected from eviction.
func (n *Node) diskAwake(k cache.Key) bool {
	var ios [2]diskIO
	if _, err := raidMap(n.cfg.Level, n.cfg.Members, k.Block, 0, 1, false,
		int64(n.cfg.DiskParams.SectorSize), n.cfg.UnitBytes, &ios); err != nil {
		return true
	}
	d := ios[0].disk
	if d < 0 || d >= len(n.disks) {
		return true
	}
	return n.disks[d].State().Spinning()
}

// Disks exposes the member disks (for attaching power policies and
// recorders). Callers must not mutate the slice.
func (n *Node) Disks() []*disk.Disk { return n.disks }

// Config returns the node configuration.
func (n *Node) Config() Config { return n.cfg }

// Stats returns a copy of the counters.
func (n *Node) Stats() Stats { return n.stats }

// CacheStats returns the storage cache's hit/miss/eviction counters.
func (n *Node) CacheStats() (hits, misses, evictions int64) { return n.cache.Stats() }

// EnergyJoules sums member-disk energy up to now.
func (n *Node) EnergyJoules(now sim.Time) float64 {
	var j float64
	for _, d := range n.disks {
		j += d.Energy().TotalJoules(now)
	}
	return j
}

// FlushIdleGaps closes trailing idle gaps on all members at end of run.
func (n *Node) FlushIdleGaps(now sim.Time) {
	for _, d := range n.disks {
		d.FlushIdleGap(now)
	}
}

// onOK completes a request that carried no fault: arg is the caller's
// done callback. Bound once (okCb) so success paths schedule without
// allocating a closure.
func (n *Node) onOK(now sim.Time, arg any) { arg.(func(sim.Time, bool))(now, true) }

// Read serves a read of [offset, offset+length) within global stripe unit
// `unit` of file `file`, invoking done at completion with ok reporting
// whether the data was delivered (ok=false only under fault injection,
// after every bounded retry was exhausted). Storage-cache hits complete in
// CacheHitTime; misses read the whole unit from the member disks (filling
// the cache) and trigger stride prefetch.
func (n *Node) Read(file int, unit, offset, length int64, done func(now sim.Time, ok bool)) error {
	if length <= 0 || offset < 0 || offset+length > n.cfg.UnitBytes {
		return fmt.Errorf("ionode %d: bad read range unit=%d off=%d len=%d", n.ID, unit, offset, length) //sddsvet:ignore hotalloc -- error path: argument validation only
	}
	// Injected node stall: the node accepts the request only after the
	// stall elapses, then serves it normally.
	if n.flt.Hit(fault.SiteNodeStall) {
		n.stats.Stalls++
		n.pr.Emit(probe.KindFault, int32(fault.SiteNodeStall), int64(n.eng.Now()), int64(n.ID))
		//sddsvet:ignore hotalloc -- fault path: one closure per injected stall
		n.eng.ScheduleFunc(sim.Duration(n.flt.NodeStallUS()), "ionode.stall", func(now sim.Time) {
			if n.readNow(file, unit, offset, length, done) != nil {
				done(now, false) // validated config: unreachable raidMap error
			}
		})
		return nil
	}
	return n.readNow(file, unit, offset, length, done)
}

// readNow is Read past the stall gate.
func (n *Node) readNow(file int, unit, offset, length int64, done func(now sim.Time, ok bool)) error {
	n.stats.Reads++
	n.stats.BytesRead += length
	key := cache.Key{File: file, Block: unit}
	if _, ok := n.cache.Get(key); ok {
		n.stats.CacheHits++
		n.pr.Emit(probe.KindCacheHit, int32(n.ID), int64(n.eng.Now()), unit)
		n.eng.ScheduleArg(n.cfg.CacheHitTime, "ionode.hit", n.okCb, done)
		n.prefetch(file, unit)
		return nil
	}
	n.stats.CacheMisses++
	n.pr.Emit(probe.KindCacheMiss, int32(n.ID), int64(n.eng.Now()), unit)
	if f, ok := n.inflight.Get(key); ok {
		// Coalesce with an in-flight fetch of the same unit.
		f.waiters = append(f.waiters, done)
		return nil
	}
	f := n.newFetch(key)
	f.waiters = append(f.waiters, done)
	n.inflight.Set(key, f)
	if err := n.fetchUnit(unit, f.doneFn); err != nil {
		n.inflight.Delete(key)
		return err
	}
	n.prefetch(file, unit)
	return nil
}

// fetch is one in-flight whole-unit read from the member disks, with the
// reads that coalesced onto it. Fetches are recycled through the node's
// free list; doneFn is bound once, when the record is first built.
type fetch struct {
	n       *Node
	key     cache.Key
	waiters []func(now sim.Time, ok bool)
	doneFn  func(now sim.Time, ok bool)
}

// newFetch takes a fetch record for key from the free list.
func (n *Node) newFetch(key cache.Key) *fetch {
	var f *fetch
	if k := len(n.fetchFree); k > 0 {
		f = n.fetchFree[k-1]
		n.fetchFree = n.fetchFree[:k-1]
	} else {
		f = &fetch{n: n} //sddsvet:ignore hotalloc -- free-list warm-up: allocates only until the pool reaches steady state
		f.doneFn = f.done
	}
	f.key = key
	return f
}

// done completes the fetch: the unit is cached (or counted failed) and
// every coalesced read completes in arrival order. The record returns to
// the free list only after the last waiter has run.
//
//sddsvet:hotpath
func (f *fetch) done(now sim.Time, ok bool) {
	n := f.n
	n.inflight.Delete(f.key)
	if ok {
		n.cache.Put(f.key, n.cfg.UnitBytes)
	} else {
		// Exhausted retries: the unit never arrived. Do not cache;
		// waiters degrade (the middleware re-reads or fails the chunk).
		n.stats.FailedUnits++
	}
	for _, w := range f.waiters {
		w(now, ok)
	}
	clear(f.waiters)
	f.waiters = f.waiters[:0]
	n.fetchFree = append(n.fetchFree, f)
}

// Write stores [offset, offset+length) of unit `unit` (write-through: data
// and parity/mirror go to the member disks; the unit is installed in the
// cache). ok=false only under fault injection with retries exhausted.
func (n *Node) Write(file int, unit, offset, length int64, done func(now sim.Time, ok bool)) error {
	if length <= 0 || offset < 0 || offset+length > n.cfg.UnitBytes {
		return fmt.Errorf("ionode %d: bad write range unit=%d off=%d len=%d", n.ID, unit, offset, length) //sddsvet:ignore hotalloc -- error path: argument validation only
	}
	if n.flt.Hit(fault.SiteNodeStall) {
		n.stats.Stalls++
		n.pr.Emit(probe.KindFault, int32(fault.SiteNodeStall), int64(n.eng.Now()), int64(n.ID))
		//sddsvet:ignore hotalloc -- fault path: one closure per injected stall
		n.eng.ScheduleFunc(sim.Duration(n.flt.NodeStallUS()), "ionode.stall", func(now sim.Time) {
			if n.writeNow(file, unit, offset, length, done) != nil {
				done(now, false) // validated config: unreachable raidMap error
			}
		})
		return nil
	}
	return n.writeNow(file, unit, offset, length, done)
}

// writeNow is Write past the stall gate.
func (n *Node) writeNow(file int, unit, offset, length int64, done func(now sim.Time, ok bool)) error {
	n.stats.Writes++
	n.stats.BytesWritten += length
	key := cache.Key{File: file, Block: unit}
	n.cache.Put(key, n.cfg.UnitBytes)
	if n.cfg.WriteBack {
		// Absorb the write; it reaches the member disks at the epoch
		// flush. The caller completes after the cache insertion.
		if prev := n.dirty[key]; length > prev {
			n.dirty[key] = length
		}
		n.armFlush()
		n.eng.ScheduleArg(n.cfg.CacheHitTime, "ionode.wb-ack", n.okCb, done)
		return nil
	}
	var ios [2]diskIO
	k, err := raidMap(n.cfg.Level, n.cfg.Members, unit, offset, length, true,
		int64(n.cfg.DiskParams.SectorSize), n.cfg.UnitBytes, &ios)
	if err != nil {
		return err
	}
	return n.issue(ios[:k], done)
}

// armFlush schedules the next epoch flush if one is not pending.
func (n *Node) armFlush() {
	if n.flushTimer {
		return
	}
	n.flushTimer = true
	n.eng.ScheduleFunc(n.cfg.FlushEpoch, "ionode.flush", n.flushFn)
}

// onFlushTimer is the epoch flush, bound once (flushFn). It runs seconds
// apart, so Flush's per-epoch sorting and allocation stay off the
// per-request path.
func (n *Node) onFlushTimer(now sim.Time) {
	n.flushTimer = false
	n.Flush(now)
	if len(n.dirty) > 0 {
		n.armFlush()
	}
}

// Flush writes all dirty units to the member disks (write-back mode). It is
// also called at end of run so no dirty data is silently dropped.
func (n *Node) Flush(now sim.Time) {
	if len(n.dirty) == 0 {
		return
	}
	batch := n.dirty
	n.dirty = make(map[cache.Key]int64)
	// Issue in sorted key order: the member disks' queueing — and therefore
	// seek distances, idle gaps, and energy — depends on arrival order, so
	// iterating the map directly would leak Go's randomized iteration order
	// into the golden-compared results.
	keys := make([]cache.Key, 0, len(batch))
	for key := range batch {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].File != keys[j].File {
			return keys[i].File < keys[j].File
		}
		return keys[i].Block < keys[j].Block
	})
	for _, key := range keys {
		var ios [2]diskIO
		k, err := raidMap(n.cfg.Level, n.cfg.Members, key.Block, 0, batch[key], true,
			int64(n.cfg.DiskParams.SectorSize), n.cfg.UnitBytes, &ios)
		if err != nil {
			continue
		}
		n.stats.Flushes++
		if err := n.issue(ios[:k], func(sim.Time, bool) {}); err != nil {
			continue
		}
	}
}

// DirtyUnits reports how many units await the next flush.
func (n *Node) DirtyUnits() int { return len(n.dirty) }

// fetchUnit reads an entire stripe unit from the member disks.
func (n *Node) fetchUnit(unit int64, done func(now sim.Time, ok bool)) error {
	var ios [2]diskIO
	k, err := raidMap(n.cfg.Level, n.cfg.Members, unit, 0, n.cfg.UnitBytes, false,
		int64(n.cfg.DiskParams.SectorSize), n.cfg.UnitBytes, &ios)
	if err != nil {
		return err
	}
	return n.issue(ios[:k], done)
}

// batch is the set of member-disk requests one logical unit access fans
// out to: at most two, a RAID10 mirror pair or a RAID5 data+parity write.
// Batches are recycled through the node's free list.
type batch struct {
	n         *Node
	members   [2]memberIO
	remaining int
	allOK     bool
	done      func(now sim.Time, ok bool)
}

// memberIO is one member-disk request of a batch. Its disk completion
// (req.Done) is bound once, when the batch is first built.
type memberIO struct {
	req      disk.Request
	b        *batch
	d        *disk.Disk
	attempts int
}

// newBatch takes a batch from the free list.
func (n *Node) newBatch() *batch {
	if k := len(n.batchFree); k > 0 {
		b := n.batchFree[k-1]
		n.batchFree = n.batchFree[:k-1]
		return b
	}
	b := &batch{n: n} //sddsvet:ignore hotalloc -- free-list warm-up: allocates only until the pool reaches steady state
	for i := range b.members {
		m := &b.members[i]
		m.b = b
		m.req.Done = m.diskDone
	}
	return b
}

// issue submits the member-disk operations and calls done when the last
// completes. A member request surfacing an injected transient error is
// resubmitted after an exponential backoff (RetryLatency << attempt),
// bounded by the injector's MaxRetries; a request that fails every retry
// marks the whole batch failed (ok=false) — degradation, never a hang.
func (n *Node) issue(ios []diskIO, done func(now sim.Time, ok bool)) error {
	if len(ios) == 0 {
		n.eng.ScheduleArg(0, "ionode.noop", n.okCb, done)
		return nil
	}
	b := n.newBatch()
	b.remaining = len(ios)
	b.allOK = true
	b.done = done
	for i, io := range ios {
		if io.disk < 0 || io.disk >= len(n.disks) {
			// Requests already submitted still reference b, so it is
			// left to the garbage collector rather than the free list.
			return fmt.Errorf("ionode %d: mapped to invalid member %d", n.ID, io.disk) //sddsvet:ignore hotalloc -- error path: raidMap never maps outside the members
		}
		op := disk.OpRead
		if io.write {
			op = disk.OpWrite
		}
		sector := io.sector
		if sector >= n.totalSectors {
			sector = sector % n.totalSectors // wrap for scaled-down capacities
		}
		m := &b.members[i]
		m.d = n.disks[io.disk]
		m.attempts = 0
		m.req.Op = op
		m.req.Sector = sector
		m.req.Bytes = io.bytes
		if err := m.d.Submit(&m.req); err != nil {
			return err
		}
	}
	return nil
}

// diskDone is a member request's completion: it retries an injected
// transient error, and completes the batch when its last member finishes.
// The batch returns to the free list after the caller's done has run, as
// the last thing inside the disk's Done call.
//
//sddsvet:hotpath
func (m *memberIO) diskDone(now sim.Time, r *disk.Request) {
	b := m.b
	n := b.n
	if r.Err != nil && m.attempts < n.flt.MaxRetries() {
		m.attempts++
		n.stats.Retries++
		n.pr.Emit(probe.KindRetry, int32(n.ID), int64(now), int64(m.attempts))
		backoff := sim.Duration(n.flt.RetryLatencyUS()) << (m.attempts - 1)
		n.eng.ScheduleArg(backoff, "ionode.retry", n.retryCb, m)
		return
	}
	if r.Err != nil {
		n.stats.RetriesExhausted++
		b.allOK = false
	}
	b.remaining--
	if b.remaining == 0 {
		b.done(now, b.allOK)
		b.done = nil
		n.batchFree = append(n.batchFree, b)
	}
}

// resubmit re-issues a failed member request (arg is its *memberIO) once
// its retry backoff has elapsed.
func (n *Node) resubmit(now sim.Time, arg any) {
	m := arg.(*memberIO)
	if m.d.Submit(&m.req) != nil {
		// Unreachable on a validated config; degrade rather than retry
		// forever.
		m.attempts = n.flt.MaxRetries()
		m.diskDone(now, &m.req)
	}
}

// prefetch runs the per-file stride detector and fetches ahead on a match.
func (n *Node) prefetch(file int, unit int64) {
	if n.cfg.PrefetchDepth == 0 {
		n.lastUnit[file] = unit
		return
	}
	prev, seen := n.lastUnit[file]
	if seen {
		delta := unit - prev
		if delta != 0 && delta == n.lastDelta[file] {
			for k := 1; k <= n.cfg.PrefetchDepth; k++ {
				next := unit + delta*int64(k)
				if next < 0 {
					break
				}
				key := cache.Key{File: file, Block: next}
				if n.cache.Contains(key) {
					continue
				}
				if _, busy := n.inflight.Get(key); busy {
					continue
				}
				f := n.newFetch(key)
				n.inflight.Set(key, f)
				n.stats.PrefetchIssued++
				n.pr.Emit(probe.KindPrefetch, int32(n.ID), int64(n.eng.Now()), next)
				if err := n.fetchUnit(next, f.doneFn); err != nil {
					n.inflight.Delete(key)
					break
				}
			}
		}
		n.lastDelta[file] = delta
	}
	n.lastUnit[file] = unit
}
