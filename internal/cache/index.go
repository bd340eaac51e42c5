package cache

import "math/bits"

// Index is an open-addressed hash table from Key to V, the lookup structure
// behind the block caches and the I/O node's miss coalescing. It probes
// linearly over a power-of-two slot array, hashes (File, Block)
// multiplicatively, deletes by shifting the following run back (no
// tombstones), and doubles when three quarters full. Once grown to its
// high-water mark, Get, Set and Delete allocate nothing.
//
// Index deliberately has no iteration: its slot order depends on the
// table size and insertion history, and must never reach a result. The
// zero value is an empty table.
type Index[V any] struct {
	slots []indexSlot[V]
	shift uint // 64 - log2(len(slots)): the hash's top bits pick a slot
	n     int
}

type indexSlot[V any] struct {
	key  Key
	val  V
	used bool
}

// minIndexSlots is the table size of the first insertion.
const minIndexSlots = 16

// home returns k's preferred slot: a multiplicative (Fibonacci) hash of
// File and Block whose top bits index the table, so consecutive blocks of
// one file spread across it.
func (x *Index[V]) home(k Key) int {
	h := (uint64(k.Block) ^ uint64(k.File)*0xff51afd7ed558ccd) * 0x9e3779b97f4a7c15
	return int(h >> x.shift)
}

// Len returns the number of keys present.
func (x *Index[V]) Len() int { return x.n }

// find returns the slot holding k, or -1.
func (x *Index[V]) find(k Key) int {
	if x.n == 0 {
		return -1
	}
	mask := len(x.slots) - 1
	for i := x.home(k); ; i = (i + 1) & mask {
		s := &x.slots[i]
		if !s.used {
			return -1
		}
		if s.key == k {
			return i
		}
	}
}

// Get returns the value stored under k.
//
//sddsvet:hotpath
func (x *Index[V]) Get(k Key) (v V, ok bool) {
	if i := x.find(k); i >= 0 {
		return x.slots[i].val, true
	}
	return v, false
}

// Set stores v under k, replacing any previous value.
//
//sddsvet:hotpath
func (x *Index[V]) Set(k Key, v V) {
	if 4*(x.n+1) > 3*len(x.slots) {
		x.grow(2 * len(x.slots))
	}
	mask := len(x.slots) - 1
	i := x.home(k)
	for ; x.slots[i].used; i = (i + 1) & mask {
		if x.slots[i].key == k {
			x.slots[i].val = v
			return
		}
	}
	x.slots[i] = indexSlot[V]{key: k, val: v, used: true}
	x.n++
}

// Delete removes k and reports whether it was present. The entries after
// the hole shift back into it, so every key stays reachable from its home
// slot without tombstones.
//
//sddsvet:hotpath
func (x *Index[V]) Delete(k Key) bool {
	hole := x.find(k)
	if hole < 0 {
		return false
	}
	mask := len(x.slots) - 1
	for j := (hole + 1) & mask; x.slots[j].used; j = (j + 1) & mask {
		// The entry at j may fill the hole only if the hole lies on its
		// probe path, i.e. the hole is no nearer j than its home is.
		if (j-x.home(x.slots[j].key))&mask >= (j-hole)&mask {
			x.slots[hole] = x.slots[j]
			hole = j
		}
	}
	x.slots[hole] = indexSlot[V]{}
	x.n--
	return true
}

// Reserve sizes the table so that n keys fit without growing.
func (x *Index[V]) Reserve(n int) {
	size := minIndexSlots
	for 4*n > 3*size {
		size *= 2
	}
	if size > len(x.slots) {
		x.grow(size)
	}
}

// grow rehashes every key into a table of size slots (a power of two).
func (x *Index[V]) grow(size int) {
	if size < minIndexSlots {
		size = minIndexSlots
	}
	old := x.slots
	x.slots = make([]indexSlot[V], size)
	x.shift = uint(65 - bits.Len(uint(size)))
	mask := size - 1
	for _, s := range old {
		if !s.used {
			continue
		}
		i := x.home(s.key)
		for x.slots[i].used {
			i = (i + 1) & mask
		}
		x.slots[i] = s
	}
}
