package cache

import (
	"container/list"
	"math/rand"
	"testing"
)

// refLRU is the previous container/list implementation of LRU, kept as a
// test oracle for the slice-backed list.
type refLRU struct {
	capacity, used          int64
	order                   *list.List // front = most recent
	items                   map[Key]*list.Element
	hits, misses, evictions int64
}

func newRefLRU(capacity int64) *refLRU {
	return &refLRU{capacity: capacity, order: list.New(), items: make(map[Key]*list.Element)}
}

func (c *refLRU) Get(k Key) (int64, bool) {
	el, ok := c.items[k]
	if !ok {
		c.misses++
		return 0, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry).size, true
}

func (c *refLRU) Put(k Key, size int64) (evicted []Key, ok bool) {
	if size <= 0 || size > c.capacity {
		return nil, false
	}
	if el, exists := c.items[k]; exists {
		e := el.Value.(*entry)
		c.used += size - e.size
		e.size = size
		c.order.MoveToFront(el)
	} else {
		c.items[k] = c.order.PushFront(&entry{key: k, size: size})
		c.used += size
	}
	for c.used > c.capacity {
		back := c.order.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		if e.key == k {
			c.order.MoveToFront(back)
			break
		}
		c.remove(back)
		c.evictions++
		evicted = append(evicted, e.key)
	}
	return evicted, true
}

func (c *refLRU) Remove(k Key) bool {
	el, ok := c.items[k]
	if !ok {
		return false
	}
	c.remove(el)
	return true
}

func (c *refLRU) remove(el *list.Element) {
	e := el.Value.(*entry)
	c.order.Remove(el)
	delete(c.items, e.key)
	c.used -= e.size
}

func (c *refLRU) Keys() []Key {
	out := make([]Key, 0, len(c.items))
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).key)
	}
	return out
}

func sameKeys(a, b []Key) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLRUMatchesReference drives the slice-backed LRU and the previous
// container/list implementation with the same random operation stream and
// demands identical results, recency order, occupancy and counters after
// every operation.
func TestLRUMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := int64(50 + rng.Intn(400))
		blocks := 4 + rng.Intn(60)
		got, want := MustNew(capacity), newRefLRU(capacity)
		for step := 0; step < 3000; step++ {
			k := Key{File: rng.Intn(2), Block: int64(rng.Intn(blocks))}
			switch op := rng.Intn(10); {
			case op < 5:
				size := int64(rng.Intn(int(capacity/3))) + 1
				if rng.Intn(50) == 0 {
					size = capacity + 1 // rejected
				}
				ge, gok := got.Put(k, size)
				we, wok := want.Put(k, size)
				if gok != wok || !sameKeys(ge, we) || (ge == nil) != (we == nil) {
					t.Fatalf("seed %d step %d: Put(%v,%d) = %v,%v; reference %v,%v", seed, step, k, size, ge, gok, we, wok)
				}
			case op < 9:
				gs, gok := got.Get(k)
				ws, wok := want.Get(k)
				if gs != ws || gok != wok {
					t.Fatalf("seed %d step %d: Get(%v) = %d,%v; reference %d,%v", seed, step, k, gs, gok, ws, wok)
				}
			default:
				if g, w := got.Remove(k), want.Remove(k); g != w {
					t.Fatalf("seed %d step %d: Remove(%v) = %v; reference %v", seed, step, k, g, w)
				}
			}
			if !sameKeys(got.Keys(), want.Keys()) {
				t.Fatalf("seed %d step %d: Keys = %v; reference %v", seed, step, got.Keys(), want.Keys())
			}
			if got.Used() != want.used || got.Len() != len(want.items) {
				t.Fatalf("seed %d step %d: Used/Len = %d/%d; reference %d/%d", seed, step, got.Used(), got.Len(), want.used, len(want.items))
			}
			gh, gm, gv := got.Stats()
			if gh != want.hits || gm != want.misses || gv != want.evictions {
				t.Fatalf("seed %d step %d: Stats = %d/%d/%d; reference %d/%d/%d", seed, step, gh, gm, gv, want.hits, want.misses, want.evictions)
			}
		}
	}
}

// TestLRUSteadyStateAllocFree checks that once the cache has reached its
// resident high-water mark, Put (with evictions) and Get allocate nothing.
func TestLRUSteadyStateAllocFree(t *testing.T) {
	c := MustNew(64 * 10)
	i := 0
	step := func() {
		k := Key{Block: int64(i % 37)}
		i++
		if _, ok := c.Get(k); !ok {
			c.Put(k, 64)
		}
	}
	for j := 0; j < 1000; j++ {
		step() // warm up: grow the entry slice, index and evicted buffer
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("steady-state Put/Get: %v allocs per op, want 0", allocs)
	}
}
