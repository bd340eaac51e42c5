package ionode

import (
	"testing"
	"testing/quick"

	"sdds/internal/sim"
)

func testNode(t testing.TB, mutate func(*Config)) (*sim.Engine, *Node) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := New(eng, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, n
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*Config){
		func(c *Config) { c.Members = 0 },
		func(c *Config) { c.CacheBytes = 0 },
		func(c *Config) { c.UnitBytes = 0 },
		func(c *Config) { c.PrefetchDepth = -1 },
		func(c *Config) { c.CacheHitTime = -1 },
		func(c *Config) { c.Level = RAID5; c.Members = 2 },
		func(c *Config) { c.Level = RAID10; c.Members = 3 },
		func(c *Config) { c.DiskParams.MaxRPM = 0 },
	}
	for i, m := range muts {
		cfg := DefaultConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d validated", i)
		}
	}
}

func TestParseRAID(t *testing.T) {
	for s, want := range map[string]RAIDLevel{"RAID0": RAID0, "5": RAID5, "RAID10": RAID10} {
		got, err := ParseRAID(s)
		if err != nil || got != want {
			t.Errorf("ParseRAID(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseRAID("RAID6"); err == nil {
		t.Error("RAID6 accepted")
	}
	if RAIDLevel(9).String() != "invalid" {
		t.Error("unknown level must stringify invalid")
	}
}

func TestRAID5MappingReadAndWrite(t *testing.T) {
	// 3 members: row 0 parity on disk 0, data units on disks 1, 2.
	read, err := mapIOs(RAID5, 3, 0, 0, 100, false, 512, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(read) != 1 || read[0].disk != 1 || read[0].write {
		t.Fatalf("read mapping = %+v", read)
	}
	write, err := mapIOs(RAID5, 3, 1, 0, 100, true, 512, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(write) != 2 {
		t.Fatalf("RAID5 write mapped to %d ops, want data+parity", len(write))
	}
	if write[0].disk != 2 || write[1].disk != 0 || !write[1].write {
		t.Fatalf("write mapping = %+v", write)
	}
	// Row 1 (units 2,3): parity rotates to disk 1.
	w2, _ := mapIOs(RAID5, 3, 2, 0, 100, true, 512, 64<<10)
	if w2[1].disk != 1 {
		t.Fatalf("rotating parity: row 1 parity on %d, want 1", w2[1].disk)
	}
}

func TestRAID10MappingMirrorsWrites(t *testing.T) {
	w, err := mapIOs(RAID10, 4, 0, 0, 100, true, 512, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 2 || w[0].disk != 0 || w[1].disk != 1 {
		t.Fatalf("RAID10 write = %+v", w)
	}
	// Reads alternate mirrors across rows of the same pair. Pair count = 2,
	// so units 0, 4, 8 are rows 0, 2, 4 of pair 0... unit = pair + row*pairs.
	r0, _ := mapIOs(RAID10, 4, 0, 0, 100, false, 512, 64<<10)
	r1, _ := mapIOs(RAID10, 4, 2, 0, 100, false, 512, 64<<10) // pair 0, row 1
	if r0[0].disk == r1[0].disk {
		t.Fatalf("RAID10 reads did not alternate mirrors: %d vs %d", r0[0].disk, r1[0].disk)
	}
}

func TestRAID0SingleOp(t *testing.T) {
	ios, err := mapIOs(RAID0, 4, 7, 1024, 512, false, 512, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ios) != 1 || ios[0].disk != 3 {
		t.Fatalf("RAID0 mapping = %+v", ios)
	}
	// Sector: row 1 (unit 7 / 4 members), 128 sectors per unit, +2 offset.
	if want := int64(1*128 + 2); ios[0].sector != want {
		t.Fatalf("sector = %d, want %d", ios[0].sector, want)
	}
}

// Property: RAID5 parity disk is never the data disk, and every unit in a
// row maps to a distinct disk.
func TestPropertyRAID5RowDisjoint(t *testing.T) {
	f := func(rowRaw uint16, membersRaw uint8) bool {
		members := int(membersRaw%6) + 3 // 3..8
		row := int64(rowRaw % 1000)
		dataPerRow := int64(members - 1)
		used := map[int]bool{}
		for k := int64(0); k < dataPerRow; k++ {
			unit := row*dataPerRow + k
			ios, err := mapIOs(RAID5, members, unit, 0, 64<<10, true, 512, 64<<10)
			if err != nil || len(ios) != 2 {
				return false
			}
			data, parity := ios[0], ios[1]
			if data.disk == parity.disk {
				return false
			}
			if used[data.disk] {
				return false // two data units of one row on the same disk
			}
			used[data.disk] = true
			if parity.disk != int(row%int64(members)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadMissThenHit(t *testing.T) {
	eng, n := testNode(t, nil)
	var missDone, hitDone sim.Time
	if err := n.Read(1, 0, 0, 4096, func(now sim.Time, _ bool) { missDone = now }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if missDone == 0 {
		t.Fatal("miss never completed")
	}
	base := eng.Now()
	if err := n.Read(1, 0, 0, 4096, func(now sim.Time, _ bool) { hitDone = now }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if hitDone-base != n.Config().CacheHitTime {
		t.Fatalf("hit latency = %v, want %v", hitDone-base, n.Config().CacheHitTime)
	}
	hits, misses, _ := n.CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("cache stats: hits=%d misses=%d", hits, misses)
	}
}

func TestReadValidation(t *testing.T) {
	_, n := testNode(t, nil)
	if err := n.Read(1, 0, 0, 0, func(sim.Time, bool) {}); err == nil {
		t.Fatal("zero-length read accepted")
	}
	if err := n.Read(1, 0, -1, 10, func(sim.Time, bool) {}); err == nil {
		t.Fatal("negative offset accepted")
	}
	if err := n.Read(1, 0, 0, n.Config().UnitBytes+1, func(sim.Time, bool) {}); err == nil {
		t.Fatal("cross-unit read accepted")
	}
	if err := n.Write(1, 0, 0, 0, func(sim.Time, bool) {}); err == nil {
		t.Fatal("zero-length write accepted")
	}
}

func TestMissCoalescing(t *testing.T) {
	eng, n := testNode(t, nil)
	done := 0
	for i := 0; i < 3; i++ {
		if err := n.Read(1, 5, 0, 4096, func(sim.Time, bool) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if done != 3 {
		t.Fatalf("%d of 3 coalesced readers completed", done)
	}
	// Only one member-disk fetch should have happened for the three reads.
	var reads int64
	for _, d := range n.Disks() {
		reads += d.Stats().Completed
	}
	if reads != 1 {
		t.Fatalf("member disks served %d requests, want 1 (coalesced)", reads)
	}
}

func TestWriteTouchesParityRAID5(t *testing.T) {
	eng, n := testNode(t, func(c *Config) { c.Level = RAID5; c.Members = 3 })
	if err := n.Write(1, 0, 0, 4096, func(sim.Time, bool) {}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	var writes int64
	for _, d := range n.Disks() {
		writes += d.Stats().Completed
	}
	if writes != 2 {
		t.Fatalf("RAID5 write hit %d disks, want 2 (data+parity)", writes)
	}
}

func TestStridePrefetch(t *testing.T) {
	eng, n := testNode(t, func(c *Config) { c.PrefetchDepth = 2 })
	// Three sequential unit reads establish stride 1 → prefetch kicks in.
	for u := int64(0); u < 3; u++ {
		if err := n.Read(1, u, 0, 4096, func(sim.Time, bool) {}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	if n.Stats().PrefetchIssued == 0 {
		t.Fatal("sequential reads triggered no prefetch")
	}
	// The prefetched unit must now hit.
	_, missesBefore, _ := n.CacheStats()
	if err := n.Read(1, 3, 0, 4096, func(sim.Time, bool) {}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	_, missesAfter, _ := n.CacheStats()
	if missesAfter != missesBefore {
		t.Fatal("read of prefetched unit missed")
	}
}

func TestPrefetchDisabled(t *testing.T) {
	eng, n := testNode(t, func(c *Config) { c.PrefetchDepth = 0 })
	for u := int64(0); u < 4; u++ {
		if err := n.Read(1, u, 0, 4096, func(sim.Time, bool) {}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	if n.Stats().PrefetchIssued != 0 {
		t.Fatal("prefetch issued despite depth 0")
	}
}

func TestEnergyAccumulatesAcrossMembers(t *testing.T) {
	eng, n := testNode(t, nil)
	eng.RunUntil(sim.Second)
	j := n.EnergyJoules(eng.Now())
	// All member disks idle at 17.1 W for 1 s.
	want := float64(n.Config().Members) * 17.1
	if j < want*0.99 || j > want*1.01 {
		t.Fatalf("node energy = %v J, want ≈%v", j, want)
	}
}

func TestSmallCacheEvicts(t *testing.T) {
	eng, n := testNode(t, func(c *Config) { c.CacheBytes = 128 << 10 }) // 2 units
	for u := int64(0); u < 5; u++ {
		if err := n.Read(1, u*10, 0, 4096, func(sim.Time, bool) {}); err != nil { // stride 10, no prefetch match
			t.Fatal(err)
		}
		eng.Run()
	}
	_, _, evictions := n.CacheStats()
	if evictions == 0 {
		t.Fatal("small cache never evicted")
	}
}

func TestWriteBackAbsorbsWrites(t *testing.T) {
	eng, n := testNode(t, func(c *Config) { c.WriteBack = true; c.FlushEpoch = sim.Second })
	var acked sim.Time
	if err := n.Write(1, 0, 0, 4096, func(now sim.Time, _ bool) { acked = now }); err != nil {
		t.Fatal(err)
	}
	// The ack arrives at cache speed, long before any disk write.
	eng.RunUntil(sim.MilliToTime(1))
	if acked == 0 {
		t.Fatal("write-back ack not delivered at cache speed")
	}
	var diskWrites int64
	for _, d := range n.Disks() {
		diskWrites += d.Stats().Completed
	}
	if diskWrites != 0 {
		t.Fatalf("disk saw %d writes before the flush epoch", diskWrites)
	}
	if n.DirtyUnits() != 1 {
		t.Fatalf("DirtyUnits = %d", n.DirtyUnits())
	}
	// After the epoch the dirty unit reaches the member disks.
	eng.RunUntil(2 * sim.Second)
	eng.Run()
	for _, d := range n.Disks() {
		diskWrites += d.Stats().Completed
	}
	if diskWrites == 0 {
		t.Fatal("flush never reached the disks")
	}
	if n.Stats().Flushes != 1 {
		t.Fatalf("Flushes = %d", n.Stats().Flushes)
	}
	if n.DirtyUnits() != 0 {
		t.Fatal("dirty set not cleared by flush")
	}
}

func TestWriteBackCoalescesRewrites(t *testing.T) {
	eng, n := testNode(t, func(c *Config) { c.WriteBack = true; c.FlushEpoch = sim.Second })
	for i := 0; i < 5; i++ {
		if err := n.Write(1, 7, 0, 4096, func(sim.Time, bool) {}); err != nil {
			t.Fatal(err)
		}
	}
	if n.DirtyUnits() != 1 {
		t.Fatalf("5 rewrites of one unit left %d dirty entries", n.DirtyUnits())
	}
	eng.RunUntil(2 * sim.Second)
	if n.Stats().Flushes != 1 {
		t.Fatalf("Flushes = %d, want 1 (coalesced)", n.Stats().Flushes)
	}
}

func TestWriteBackReadHitsDirtyData(t *testing.T) {
	eng, n := testNode(t, func(c *Config) { c.WriteBack = true })
	if err := n.Write(1, 3, 0, 4096, func(sim.Time, bool) {}); err != nil {
		t.Fatal(err)
	}
	hitsBefore, _, _ := n.CacheStats()
	if err := n.Read(1, 3, 0, 4096, func(sim.Time, bool) {}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.MilliToTime(1))
	hitsAfter, _, _ := n.CacheStats()
	if hitsAfter != hitsBefore+1 {
		t.Fatal("read of dirty unit missed the cache")
	}
}

func TestFlushEpochValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FlushEpoch = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative flush epoch accepted")
	}
}

// mapIOs is raidMap returning the filled operations as a slice.
func mapIOs(level RAIDLevel, members int, unit, offset, length int64, write bool, sectorSize, unitBytes int64) ([]diskIO, error) {
	var out [2]diskIO
	k, err := raidMap(level, members, unit, offset, length, write, sectorSize, unitBytes, &out)
	return out[:k], err
}

// noteDone is a completion that allocates nothing per call.
func noteDone(sim.Time, bool) {}

// steadyNodeOp returns a node plus an op that reads (or writes) a fresh
// stride-10 unit and drains the engine, so every read is a cache miss that
// evicts. PrefetchDepth 0 keeps the stride detector from turning misses
// into hits.
func steadyNodeOp(tb testing.TB, write bool) func() {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.CacheBytes = 16 * cfg.UnitBytes
	cfg.PrefetchDepth = 0
	n, err := New(eng, 0, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	unit := int64(0)
	return func() {
		unit = (unit + 10) % 100000
		var err error
		if write {
			err = n.Write(1, unit, 0, 4096, noteDone)
		} else {
			err = n.Read(1, unit, 0, 4096, noteDone)
		}
		if err != nil {
			tb.Fatal(err)
		}
		eng.Run()
	}
}

// TestNodeSteadyStateAllocFree checks that, once the batch, fetch and
// cache pools are warm, a cache-miss read and a write-through write
// allocate nothing.
func TestNodeSteadyStateAllocFree(t *testing.T) {
	for _, write := range []bool{false, true} {
		op := steadyNodeOp(t, write)
		for i := 0; i < 200; i++ {
			op()
		}
		if allocs := testing.AllocsPerRun(500, op); allocs != 0 {
			t.Errorf("write=%v: %v allocs per op, want 0", write, allocs)
		}
	}
}

func BenchmarkNodeRead(b *testing.B) {
	b.Run("miss", func(b *testing.B) {
		op := steadyNodeOp(b, false)
		for i := 0; i < 200; i++ {
			op()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
	})
	b.Run("hit", func(b *testing.B) {
		eng, n := testNode(b, nil)
		if err := n.Read(1, 0, 0, 4096, noteDone); err != nil {
			b.Fatal(err)
		}
		eng.Run()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := n.Read(1, 0, 0, 4096, noteDone); err != nil {
				b.Fatal(err)
			}
			eng.Run()
		}
	})
}

// BenchmarkNodeWrite is a write-through write of a fresh unit: the cache
// insertion evicts, and the write goes to both mirror members.
func BenchmarkNodeWrite(b *testing.B) {
	op := steadyNodeOp(b, true)
	for i := 0; i < 200; i++ {
		op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestFetchRecycledAfterWaiters checks that a completed fetch record is not
// reused while its waiters are still running: the first waiter of a
// coalesced miss issues two reads of another unit, which take a record
// from the free list and coalesce onto it, and every waiter must still run
// exactly once, for its own unit.
func TestFetchRecycledAfterWaiters(t *testing.T) {
	eng, n := testNode(t, func(c *Config) { c.PrefetchDepth = 0 })
	calls := map[string]int{}
	waiter := func(name string) func(sim.Time, bool) {
		return func(sim.Time, bool) { calls[name]++ }
	}
	first := func(sim.Time, bool) {
		calls["a"]++
		for _, name := range []string{"c", "d"} {
			if err := n.Read(1, 100, 0, 4096, waiter(name)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm the fetch free list so the nested reads reuse a record.
	if err := n.Read(1, 50, 0, 4096, noteDone); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if err := n.Read(1, 5, 0, 4096, first); err != nil {
		t.Fatal(err)
	}
	if err := n.Read(1, 5, 0, 4096, waiter("b")); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for _, name := range []string{"a", "b", "c", "d"} {
		if calls[name] != 1 {
			t.Errorf("waiter %s ran %d times, want 1 (all: %v)", name, calls[name], calls)
		}
	}
}
