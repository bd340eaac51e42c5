// Package cache provides the byte-budgeted block LRU used in two places in
// the reproduction: the per-I/O-node storage cache (Table II: 64 MB, with
// prefetch insertion) and the client-side global buffer the runtime data
// access scheduler manages (§III, built on the collective caching library of
// Liao et al.).
package cache

import "fmt"

// Key identifies a cached block: a file id plus a block index within the
// file (the block granularity is chosen by the owner — stripe units for the
// storage cache, access ids for the client buffer).
type Key struct {
	File  int
	Block int64
}

// String renders "file:block".
func (k Key) String() string { return fmt.Sprintf("%d:%d", k.File, k.Block) }

// Store is the block-cache behaviour shared by LRU and PALRU, which the
// I/O node's storage cache is written against.
type Store interface {
	Get(k Key) (size int64, ok bool)
	// Put inserts or refreshes k and returns the keys it evicted, oldest
	// first. The evicted slice may alias a buffer that the store reuses on
	// its next Put (LRU does; PALRU returns a fresh slice): a caller that
	// keeps the keys past the next Put must copy them.
	Put(k Key, size int64) (evicted []Key, ok bool)
	Contains(k Key) bool
	Remove(k Key) bool
	Used() int64
	Capacity() int64
	Len() int
	Stats() (hits, misses, evictions int64)
}

var (
	_ Store = (*LRU)(nil)
	_ Store = (*PALRU)(nil)
)

// LRU is a least-recently-used cache with a byte capacity. It stores block
// sizes, not payloads — the simulation tracks residency, not data. The zero
// value is not usable; use New.
//
// The recency list is intrusive and slice-backed: entries live in one
// slice linked by int32 indices, removed entries go on a free list, and
// items maps each key to its entry index. Once the slice and index have
// grown to the resident high-water mark (or been sized by Reserve), Put,
// Get and Remove allocate nothing.
type LRU struct {
	capacity int64
	used     int64
	entries  []lruEntry
	head     int32 // most recently used entry, or nilEntry
	tail     int32 // least recently used entry, or nilEntry
	free     int32 // first free entry (linked through next), or nilEntry
	items    Index[int32]
	evictBuf []Key // Put's reused result buffer

	hits, misses, evictions int64
}

// nilEntry terminates the recency and free lists.
const nilEntry int32 = -1

type lruEntry struct {
	key        Key
	size       int64
	prev, next int32
}

// New returns an empty cache holding at most capacity bytes. Capacity must
// be positive.
func New(capacity int64) (*LRU, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: capacity %d must be positive", capacity)
	}
	return &LRU{
		capacity: capacity,
		head:     nilEntry,
		tail:     nilEntry,
		free:     nilEntry,
	}, nil
}

// MustNew is New, panicking on error.
func MustNew(capacity int64) *LRU {
	c, err := New(capacity)
	if err != nil {
		panic(err)
	}
	return c
}

// Capacity returns the byte budget.
func (c *LRU) Capacity() int64 { return c.capacity }

// Used returns the bytes currently resident.
func (c *LRU) Used() int64 { return c.used }

// Len returns the number of resident blocks.
func (c *LRU) Len() int { return c.items.Len() }

// Stats returns cumulative hit/miss/eviction counters.
func (c *LRU) Stats() (hits, misses, evictions int64) { return c.hits, c.misses, c.evictions }

// Contains reports residency without affecting recency or hit counters.
func (c *LRU) Contains(k Key) bool {
	_, ok := c.items.Get(k)
	return ok
}

// Reserve sizes the entry slice and index for n resident blocks, so a
// cache that is filled to n blocks never grows them. Put links a new entry
// before evicting, so one more entry than n is reserved.
func (c *LRU) Reserve(n int) {
	if n++; cap(c.entries) < n {
		c.entries = append(make([]lruEntry, 0, n), c.entries...)
	}
	c.items.Reserve(n)
}

// Get probes the cache, promoting and counting a hit when resident.
//
//sddsvet:hotpath
func (c *LRU) Get(k Key) (size int64, ok bool) {
	i, ok := c.items.Get(k)
	if !ok {
		c.misses++
		return 0, false
	}
	c.hits++
	c.moveToFront(i)
	return c.entries[i].size, true
}

// Put inserts or refreshes a block, evicting LRU blocks to fit. It returns
// the evicted keys (oldest first, nil when nothing was evicted) in a buffer
// the next Put reuses. Blocks larger than the whole capacity are rejected
// with ok = false.
//
//sddsvet:hotpath
func (c *LRU) Put(k Key, size int64) (evicted []Key, ok bool) {
	if size <= 0 || size > c.capacity {
		return nil, false
	}
	if i, exists := c.items.Get(k); exists {
		c.used += size - c.entries[i].size
		c.entries[i].size = size
		c.moveToFront(i)
	} else {
		c.items.Set(k, c.pushFront(k, size))
		c.used += size
	}
	evicted = c.evictBuf[:0]
	for c.used > c.capacity && c.tail != nilEntry {
		back := c.tail
		e := c.entries[back]
		if e.key == k {
			// Don't evict what we just inserted unless it alone overflows
			// (excluded above), but guard against pathological loops.
			c.moveToFront(back)
			break
		}
		c.removeEntry(back)
		c.evictions++
		evicted = append(evicted, e.key)
	}
	c.evictBuf = evicted
	if len(evicted) == 0 {
		return nil, true
	}
	return evicted, true
}

// Remove invalidates a block (the client buffer's hit-then-invalidate
// semantics). It reports whether the block was resident.
func (c *LRU) Remove(k Key) bool {
	i, ok := c.items.Get(k)
	if !ok {
		return false
	}
	c.removeEntry(i)
	return true
}

// pushFront links a new entry for k at the head, reusing a free slot when
// one exists, and returns its index.
func (c *LRU) pushFront(k Key, size int64) int32 {
	i := c.free
	if i != nilEntry {
		c.free = c.entries[i].next
	} else {
		i = int32(len(c.entries))
		c.entries = append(c.entries, lruEntry{})
	}
	c.entries[i] = lruEntry{key: k, size: size, prev: nilEntry, next: nilEntry}
	c.linkFront(i)
	return i
}

// removeEntry unlinks entry i, drops it from the index and frees its slot.
func (c *LRU) removeEntry(i int32) {
	c.unlink(i)
	e := &c.entries[i]
	c.items.Delete(e.key)
	c.used -= e.size
	e.next = c.free
	c.free = i
}

func (c *LRU) moveToFront(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.linkFront(i)
}

func (c *LRU) linkFront(i int32) {
	e := &c.entries[i]
	e.prev = nilEntry
	e.next = c.head
	if c.head != nilEntry {
		c.entries[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

func (c *LRU) unlink(i int32) {
	e := &c.entries[i]
	if e.prev != nilEntry {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nilEntry {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nilEntry, nilEntry
}

// Keys returns resident keys from most to least recently used (diagnostics
// and tests).
func (c *LRU) Keys() []Key {
	out := make([]Key, 0, c.items.Len())
	for i := c.head; i != nilEntry; i = c.entries[i].next {
		out = append(out, c.entries[i].key)
	}
	return out
}
