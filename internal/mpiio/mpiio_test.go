package mpiio

import (
	"testing"

	"sdds/internal/ionode"
	"sdds/internal/netsim"
	"sdds/internal/sim"
	"sdds/internal/stripe"
)

func testMiddleware(t testing.TB, numNodes int) (*sim.Engine, *Middleware, []*ionode.Node) {
	t.Helper()
	eng := sim.NewEngine(1)
	layout := stripe.Layout{NumNodes: numNodes, StripeSize: 64 << 10}
	nodes := make([]*ionode.Node, numNodes)
	for i := range nodes {
		nodes[i] = ionode.MustNew(eng, i, ionode.DefaultConfig())
	}
	net := netsim.MustNew(eng, netsim.DefaultConfig(numNodes))
	m, err := New(eng, layout, nodes, net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(0, "data", 1<<30); err != nil {
		t.Fatal(err)
	}
	return eng, m, nodes
}

func TestNewValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	layout := stripe.Layout{NumNodes: 2, StripeSize: 64 << 10}
	net := netsim.MustNew(eng, netsim.DefaultConfig(2))
	if _, err := New(eng, layout, nil, net); err == nil {
		t.Fatal("node-count mismatch accepted")
	}
	if _, err := New(eng, stripe.Layout{}, nil, net); err == nil {
		t.Fatal("invalid layout accepted")
	}
}

func TestOpenValidation(t *testing.T) {
	_, m, _ := testMiddleware(t, 2)
	if _, err := m.Open(1, "bad", 0); err == nil {
		t.Fatal("zero-size file accepted")
	}
}

func TestReadFansOutAcrossNodes(t *testing.T) {
	eng, m, nodes := testMiddleware(t, 4)
	var done sim.Time
	// 256 KB spanning 4 stripe units → all 4 nodes.
	if err := m.Read(0, 0, 256<<10, func(now sim.Time, _ bool) { done = now }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if done == 0 {
		t.Fatal("read never completed")
	}
	for i, n := range nodes {
		if n.Stats().Reads != 1 {
			t.Fatalf("node %d served %d reads, want 1", i, n.Stats().Reads)
		}
	}
	reads, writes := m.Stats()
	if reads != 1 || writes != 0 {
		t.Fatalf("middleware stats: %d, %d", reads, writes)
	}
}

func TestWriteReachesNodes(t *testing.T) {
	eng, m, nodes := testMiddleware(t, 2)
	var done sim.Time
	if err := m.Write(0, 0, 128<<10, func(now sim.Time, _ bool) { done = now }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if done == 0 {
		t.Fatal("write never completed")
	}
	if nodes[0].Stats().Writes != 1 || nodes[1].Stats().Writes != 1 {
		t.Fatal("write chunks did not reach both nodes")
	}
}

func TestLengthValidation(t *testing.T) {
	_, m, _ := testMiddleware(t, 2)
	if err := m.Read(0, 0, 0, nil); err == nil {
		t.Fatal("zero-length read accepted")
	}
	if err := m.Write(0, 0, -5, nil); err == nil {
		t.Fatal("negative write accepted")
	}
}

func TestOffsetWrapsAtFileSize(t *testing.T) {
	eng, m, _ := testMiddleware(t, 2)
	if _, err := m.Open(1, "small", 128<<10); err != nil {
		t.Fatal(err)
	}
	// Offset far past EOF wraps, staying addressable.
	completed := false
	if err := m.Read(1, (1<<40)+7, 4<<10, func(sim.Time, bool) { completed = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !completed {
		t.Fatal("wrapped read did not complete")
	}
}

func TestSignatureForMatchesLayout(t *testing.T) {
	_, m, _ := testMiddleware(t, 4)
	sig := m.SignatureFor(0, 0, 256<<10)
	if sig.Count() != 4 {
		t.Fatalf("signature count = %d, want 4", sig.Count())
	}
	sig1 := m.SignatureFor(0, 0, 4<<10)
	if sig1.Count() != 1 || !sig1.Get(0) {
		t.Fatalf("small-read signature = %s", sig1.String())
	}
}

func TestConcurrentReadsComplete(t *testing.T) {
	eng, m, _ := testMiddleware(t, 4)
	done := 0
	for i := 0; i < 20; i++ {
		off := int64(i) * (64 << 10)
		if err := m.Read(0, off, 64<<10, func(sim.Time, bool) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if done != 20 {
		t.Fatalf("%d of 20 reads completed", done)
	}
}

// noteDone is a completion that allocates nothing per call.
func noteDone(sim.Time, bool) {}

// steadyRead returns an op that issues a four-chunk read at a fresh offset
// and drains the engine, so the nodes see a mix of misses and hits.
func steadyRead(tb testing.TB) func() {
	eng, m, _ := testMiddleware(tb, 4)
	offset := int64(0)
	return func() {
		offset = (offset + 7*(256<<10)) % (1 << 30)
		if err := m.Read(0, offset, 256<<10, noteDone); err != nil {
			tb.Fatal(err)
		}
		eng.Run()
	}
}

// TestReadSteadyStateAllocFree checks that, once the call, chunk-op and
// node pools are warm, a multi-chunk read allocates nothing.
func TestReadSteadyStateAllocFree(t *testing.T) {
	op := steadyRead(t)
	for i := 0; i < 200; i++ {
		op()
	}
	if allocs := testing.AllocsPerRun(500, op); allocs != 0 {
		t.Fatalf("%v allocs per four-chunk read, want 0", allocs)
	}
}

func BenchmarkMiddlewareRead(b *testing.B) {
	op := steadyRead(b)
	for i := 0; i < 200; i++ {
		op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
