package compilecache

import (
	"context"
	"sync"
	"testing"

	"sdds/internal/compiler"
	"sdds/internal/loop"
	"sdds/internal/sim"
)

func testProgram() *loop.Program {
	return &loop.Program{
		Name:  "t",
		Files: []loop.File{{ID: 0, Name: "a", Size: 1 << 26}, {ID: 1, Name: "b", Size: 1 << 26}},
		Nests: []loop.Nest{
			{Name: "produce", Trips: 32, Parallel: true, IterCost: sim.MilliToTime(2),
				Body: []loop.Stmt{{Kind: loop.StmtWrite, File: 0, Region: loop.Affine{IterCoef: 64 << 10, Len: 64 << 10}}}},
			{Name: "consume", Trips: 32, Parallel: true, IterCost: sim.MilliToTime(2),
				Body: []loop.Stmt{
					{Kind: loop.StmtRead, File: 0, Region: loop.Affine{IterCoef: 64 << 10, Len: 64 << 10}},
					{Kind: loop.StmtRead, File: 1, Region: loop.Affine{IterCoef: 32 << 10, Len: 32 << 10}},
				}},
		},
	}
}

func TestCacheMemoHit(t *testing.T) {
	c := New()
	ctx := context.Background()
	opts := compiler.DefaultOptions(4)
	r1, prov, err := c.CompileContext(ctx, testProgram(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if prov != compiler.ProvCompiled {
		t.Fatalf("first compile provenance = %v", prov)
	}
	r2, prov, err := c.CompileContext(ctx, testProgram(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if prov != compiler.ProvMemory {
		t.Fatalf("second compile provenance = %v", prov)
	}
	if r1 != r2 {
		t.Fatal("memo hit returned a different result pointer")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// Concurrent callers with equal keys share exactly one compile.
func TestCacheSingleflight(t *testing.T) {
	c := New()
	opts := compiler.DefaultOptions(4)
	const n = 16
	var wg sync.WaitGroup
	results := make([]*compiler.Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := c.CompileContext(context.Background(), testProgram(), opts)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (singleflight)", st.Misses)
	}
	if st.Hits != n-1 {
		t.Fatalf("hits = %d, want %d", st.Hits, n-1)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent callers got different result pointers")
		}
	}
}

// Distinct options compile separately.
func TestCacheDistinctKeys(t *testing.T) {
	c := New()
	ctx := context.Background()
	a := compiler.DefaultOptions(4)
	b := a
	b.Theta = 8
	if _, _, err := c.CompileContext(ctx, testProgram(), a); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.CompileContext(ctx, testProgram(), b); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheUncacheable(t *testing.T) {
	c := New()
	opts := compiler.DefaultOptions(4)
	opts.RandomTies = func(n int) int { return 0 }
	_, prov, err := c.CompileContext(context.Background(), testProgram(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if prov != compiler.ProvUncacheable {
		t.Fatalf("provenance = %v, want uncacheable", prov)
	}
	if st := c.Stats(); st.Uncacheable != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// A cancelled owner must not poison the cell: the next caller compiles.
func TestCacheCancelledOwnerAbandons(t *testing.T) {
	c := New()
	opts := compiler.DefaultOptions(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.CompileContext(ctx, testProgram(), opts); err == nil {
		t.Fatal("cancelled compile succeeded")
	}
	res, prov, err := c.CompileContext(context.Background(), testProgram(), opts)
	if err != nil || res == nil {
		t.Fatalf("post-cancel compile: %v", err)
	}
	if prov != compiler.ProvCompiled {
		t.Fatalf("post-cancel provenance = %v", prov)
	}
}
