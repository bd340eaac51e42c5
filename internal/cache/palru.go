package cache

import (
	"container/list"
	"fmt"
)

// PALRU is a power-aware variant of the block LRU, after the PA-LRU idea
// of Zhu et al. [43] that the paper's related-work section discusses:
// when evicting, it prefers (within a bounded look-ahead from the LRU end)
// blocks whose home disk is currently active, keeping blocks that would
// require waking a sleeping or slowed disk to refetch. Used by the I/O
// node's storage cache in the cache-policy ablation.
type PALRU struct {
	capacity int64
	used     int64
	order    *list.List
	items    Index[*list.Element]

	// active reports whether the disk holding a block is awake (cheap to
	// refetch from). Blocks of sleeping disks are protected.
	active func(Key) bool
	// lookahead bounds how far from the LRU end the eviction scan may
	// search for an active-disk victim before falling back to strict LRU.
	lookahead int

	hits, misses, evictions, protections int64
}

// entry is the PALRU list element payload.
type entry struct {
	key  Key
	size int64
}

// NewPALRU builds a power-aware cache. active may be nil (degenerates to
// plain LRU); lookahead ≤ 0 defaults to 8.
func NewPALRU(capacity int64, active func(Key) bool, lookahead int) (*PALRU, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: capacity %d must be positive", capacity)
	}
	if lookahead <= 0 {
		lookahead = 8
	}
	return &PALRU{
		capacity:  capacity,
		order:     list.New(),
		active:    active,
		lookahead: lookahead,
	}, nil
}

// Capacity returns the byte budget.
func (c *PALRU) Capacity() int64 { return c.capacity }

// Used returns resident bytes.
func (c *PALRU) Used() int64 { return c.used }

// Len returns resident block count.
func (c *PALRU) Len() int { return c.items.Len() }

// Stats returns hit/miss/eviction counters.
func (c *PALRU) Stats() (hits, misses, evictions int64) {
	return c.hits, c.misses, c.evictions
}

// Protections counts evictions redirected away from sleeping disks.
func (c *PALRU) Protections() int64 { return c.protections }

// Contains reports residency without promotion.
func (c *PALRU) Contains(k Key) bool {
	_, ok := c.items.Get(k)
	return ok
}

// Get probes and promotes.
func (c *PALRU) Get(k Key) (int64, bool) {
	el, ok := c.items.Get(k)
	if !ok {
		c.misses++
		return 0, false
	}
	c.hits++
	c.order.MoveToFront(el)
	e, _ := el.Value.(*entry)
	if e == nil {
		return 0, false
	}
	return e.size, true
}

// Put inserts or refreshes a block, evicting power-aware victims to fit.
func (c *PALRU) Put(k Key, size int64) (evicted []Key, ok bool) {
	if size <= 0 || size > c.capacity {
		return nil, false
	}
	if el, exists := c.items.Get(k); exists {
		e, _ := el.Value.(*entry)
		if e != nil {
			c.used += size - e.size
			e.size = size
		}
		c.order.MoveToFront(el)
	} else {
		c.items.Set(k, c.order.PushFront(&entry{key: k, size: size}))
		c.used += size
	}
	for c.used > c.capacity {
		el := c.pickVictim(k)
		if el == nil {
			break
		}
		e, _ := el.Value.(*entry)
		if e == nil {
			break
		}
		c.order.Remove(el)
		c.items.Delete(e.key)
		c.used -= e.size
		c.evictions++
		evicted = append(evicted, e.key)
	}
	return evicted, true
}

// pickVictim scans up to lookahead entries from the LRU end, returning the
// first whose disk is active; with none found it falls back to the strict
// LRU entry. The just-inserted key is never chosen.
func (c *PALRU) pickVictim(justInserted Key) *list.Element {
	var fallback *list.Element
	scanned := 0
	for el := c.order.Back(); el != nil && scanned < c.lookahead; el = el.Prev() {
		e, ok := el.Value.(*entry)
		if !ok || e.key == justInserted {
			continue
		}
		scanned++
		if fallback == nil {
			fallback = el
		}
		if c.active == nil || c.active(e.key) {
			if el != fallback {
				c.protections++
			}
			return el
		}
	}
	return fallback
}

// Remove invalidates a block.
func (c *PALRU) Remove(k Key) bool {
	el, ok := c.items.Get(k)
	if !ok {
		return false
	}
	e, _ := el.Value.(*entry)
	c.order.Remove(el)
	c.items.Delete(k)
	if e != nil {
		c.used -= e.size
	}
	return true
}
