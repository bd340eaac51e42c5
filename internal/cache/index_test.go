package cache

import (
	"testing"
	"testing/quick"
)

// indexOp is one random operation against an Index and a reference map.
type indexOp struct {
	Kind  uint8 // 0–3 Set, 4–5 Delete, 6–7 Get
	File  uint8
	Block uint8
	Val   int32
}

// checkAgainstMap applies ops to a fresh Index and a Go map op for op and
// reports the first divergence. Every key of the small key space is probed
// after every op, so a key stranded behind a hole is caught at once.
func checkAgainstMap(t *testing.T, x *Index[int32], ops []indexOp, keyOf func(indexOp) Key) bool {
	t.Helper()
	ref := map[Key]int32{}
	for step, op := range ops {
		k := keyOf(op)
		switch {
		case op.Kind%8 < 4:
			x.Set(k, op.Val)
			ref[k] = op.Val
		case op.Kind%8 < 6:
			_, want := ref[k]
			if got := x.Delete(k); got != want {
				t.Logf("step %d: Delete(%v) = %v, map says %v", step, k, got, want)
				return false
			}
			delete(ref, k)
		default:
			gv, gok := x.Get(k)
			wv, wok := ref[k]
			if gv != wv || gok != wok {
				t.Logf("step %d: Get(%v) = %d,%v; map %d,%v", step, k, gv, gok, wv, wok)
				return false
			}
		}
		if x.Len() != len(ref) {
			t.Logf("step %d: Len = %d, map %d", step, x.Len(), len(ref))
			return false
		}
		for _, probe := range ops {
			pk := keyOf(probe)
			gv, gok := x.Get(pk)
			wv, wok := ref[pk]
			if gv != wv || gok != wok {
				t.Logf("step %d: after %v, Get(%v) = %d,%v; map %d,%v", step, k, pk, gv, gok, wv, wok)
				return false
			}
		}
	}
	return true
}

// TestIndexMatchesMap checks Index against a Go map on random operation
// sequences over a small key space, so probe runs, deletes inside runs and
// growth all occur.
func TestIndexMatchesMap(t *testing.T) {
	keyOf := func(op indexOp) Key {
		return Key{File: int(op.File % 3), Block: int64(op.Block % 48)}
	}
	f := func(ops []indexOp) bool {
		var x Index[int32]
		return checkAgainstMap(t, &x, ops, keyOf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// collidingKeys returns n keys whose home slot in a 16-slot table is home.
func collidingKeys(home, n int) []Key {
	var x Index[int32]
	x.Reserve(1)
	if len(x.slots) != minIndexSlots {
		panic("Reserve(1) did not build the minimum table")
	}
	var out []Key
	for b := int64(0); len(out) < n; b++ {
		if k := (Key{File: 1, Block: b}); x.home(k) == home {
			out = append(out, k)
		}
	}
	return out
}

// TestIndexForcedCollisions builds probe runs that wrap past the end of a
// 16-slot table, deletes from inside them (so the backward shift must move
// entries across the wrap, and must leave alone entries whose home lies
// after the hole), then grows the table and checks every key.
func TestIndexForcedCollisions(t *testing.T) {
	at15 := collidingKeys(15, 4) // occupy 15, 0, 1, 2
	at0 := collidingKeys(0, 2)   // pushed past the wrapped run
	at2 := collidingKeys(2, 2)
	var keys []Key
	for i := 0; i < 2; i++ {
		keys = append(keys, at15[2*i], at15[2*i+1], at0[i], at2[i])
	}
	var ops []indexOp
	keyOf := func(op indexOp) Key { return keys[op.Block] }
	for i := range keys {
		ops = append(ops, indexOp{Kind: 0, Block: uint8(i), Val: int32(i + 1)})
	}
	// Delete the head of the wrapped run, then entries of each home in
	// turn, probing everything after each delete.
	for _, i := range []int{0, 2, 4, 1, 6} {
		ops = append(ops, indexOp{Kind: 4, Block: uint8(i)})
	}
	// Re-insert and read back.
	for _, i := range []int{0, 2, 4, 1, 6} {
		ops = append(ops, indexOp{Kind: 0, Block: uint8(i), Val: int32(100 + i)}, indexOp{Kind: 6, Block: uint8(i)})
	}
	var x Index[int32]
	x.Reserve(1)
	if !checkAgainstMap(t, &x, ops, keyOf) {
		t.Fatal("16-slot table diverged from the map")
	}
	if len(x.slots) != minIndexSlots {
		t.Fatalf("table grew to %d slots with %d keys", len(x.slots), x.Len())
	}

	// Grow past three quarters of 16 slots with more colliding keys, then
	// delete across the rehashed table.
	keys = append(keys, collidingKeys(15, 12)[4:]...)
	ops = ops[:0]
	for i := range keys {
		ops = append(ops, indexOp{Kind: 0, Block: uint8(i), Val: int32(i + 1)})
	}
	for i := range keys {
		if i%3 != 1 {
			ops = append(ops, indexOp{Kind: 4, Block: uint8(i)})
		}
	}
	y := Index[int32]{}
	y.Reserve(1)
	if !checkAgainstMap(t, &y, ops, keyOf) {
		t.Fatal("grown table diverged from the map")
	}
	if len(y.slots) <= minIndexSlots {
		t.Fatalf("table did not grow: %d slots for %d keys", len(y.slots), len(keys))
	}
}

// TestIndexReserve checks that a reserved table takes n keys without
// growing.
func TestIndexReserve(t *testing.T) {
	var x Index[int32]
	x.Reserve(1000)
	size := len(x.slots)
	for i := 0; i < 1000; i++ {
		x.Set(Key{Block: int64(i)}, int32(i))
	}
	if len(x.slots) != size {
		t.Fatalf("reserved table grew from %d to %d slots", size, len(x.slots))
	}
	x.Reserve(10) // never shrinks
	if len(x.slots) != size {
		t.Fatalf("Reserve shrank the table to %d slots", len(x.slots))
	}
}

// TestIndexSteadyStateAllocFree checks that Get, Set and Delete allocate
// nothing once the table has reached its high-water mark.
func TestIndexSteadyStateAllocFree(t *testing.T) {
	var x Index[*int]
	v := new(int)
	i := 0
	step := func() {
		k := Key{File: i % 3, Block: int64(i % 101)}
		i++
		if _, ok := x.Get(k); ok {
			x.Delete(k)
		} else {
			x.Set(k, v)
		}
	}
	for j := 0; j < 2000; j++ {
		step() // warm up: grow the table to its high-water mark
	}
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("steady-state Get/Set/Delete: %v allocs per op, want 0", allocs)
	}
}

func BenchmarkIndex(b *testing.B) {
	var x Index[int32]
	x.Reserve(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := Key{File: 3, Block: int64(i % 1024)}
		if _, ok := x.Get(k); ok {
			x.Delete(k)
		} else {
			x.Set(k, int32(i))
		}
	}
}
