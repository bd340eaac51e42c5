package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sdds/internal/stripe"
)

func sig16(nodes ...int) stripe.Signature { return stripe.SignatureOf(16, nodes...) }
func sig4(nodes ...int) stripe.Signature  { return stripe.SignatureOf(4, nodes...) }

// fixed returns an access pinned to a single slot (slack length 1).
func fixed(id, proc, slot int, sig stripe.Signature) *Access {
	return &Access{ID: id, Proc: proc, Begin: slot, End: slot, Length: 1, Sig: sig, Orig: slot}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams(100, 8).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{NumSlots: 0, NumNodes: 8},
		{NumSlots: 10, NumNodes: 0},
		{NumSlots: 10, NumNodes: 8, Delta: -1},
		{NumSlots: 10, NumNodes: 8, Theta: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %d validated", i)
		}
	}
}

func TestAccessValidate(t *testing.T) {
	ok := &Access{ID: 1, Proc: 0, Begin: 0, End: 5, Length: 1, Sig: sig16(1)}
	if err := ok.Validate(10, 16); err != nil {
		t.Fatal(err)
	}
	bad := []*Access{
		{ID: 1, Begin: 0, End: 5, Length: 0, Sig: sig16(1)},
		{ID: 1, Begin: -1, End: 5, Length: 1, Sig: sig16(1)},
		{ID: 1, Begin: 5, End: 4, Length: 1, Sig: sig16(1)},
		{ID: 1, Begin: 0, End: 10, Length: 1, Sig: sig16(1)},
		{ID: 1, Begin: 0, End: 5, Length: 1, Sig: sig4(1)},
		{ID: 1, Begin: 0, End: 5, Length: 1, Sig: sig16()},
		{ID: 1, Proc: -1, Begin: 0, End: 5, Length: 1, Sig: sig16(1)},
	}
	for i, a := range bad {
		if err := a.Validate(10, 16); err == nil {
			t.Errorf("access %d validated", i)
		}
	}
}

func TestWeightFormula(t *testing.T) {
	// Eq. 3 with δ=4: σ0=1, σ1=0.8, σ2=0.6 (the paper's Fig. 7 example).
	for k, want := range map[int]float64{0: 1, 1: 0.8, 2: 0.6, 3: 0.4, 4: 0.2, 5: 0} {
		if got := Weight(k, 4); math.Abs(got-want) > 1e-12 {
			t.Errorf("Weight(%d,4) = %v, want %v", k, got, want)
		}
	}
	if Weight(-2, 4) != Weight(2, 4) {
		t.Error("Weight must be symmetric in k")
	}
	if Weight(100, 4) != 0 {
		t.Error("Weight beyond δ must be 0")
	}
}

func TestLatestStart(t *testing.T) {
	a := &Access{Begin: 3, End: 10, Length: 4}
	if got := a.LatestStart(); got != 7 {
		t.Fatalf("LatestStart = %d, want 7", got)
	}
	long := &Access{Begin: 3, End: 4, Length: 10}
	if got := long.LatestStart(); got != 3 {
		t.Fatalf("over-long access LatestStart = %d, want Begin", got)
	}
}

// TestPaperBasicExample reproduces the worked example of §IV-B1: with the
// group signatures around A4's slack set up as in Fig. 8/9 (δ=2, 16 I/O
// nodes), the algorithm must pick slot t8 for A4.
func TestPaperBasicExample(t *testing.T) {
	s, err := NewScheduler(Params{NumSlots: 14, NumNodes: 16, Delta: 2, Order: OrderInput})
	if err != nil {
		t.Fatal(err)
	}
	gA := sig16(2, 10)       // A1/A3/A5/A8's signature
	gB := sig16(1, 9)        // A2/A4/A9/A10's signature
	gC := sig16(1, 2, 9, 10) // A6
	gD := sig16(0, 8)        // A7

	// Pre-scheduled accesses (filled circles in Fig. 8). A4 shares process
	// 2 with A5@t4, A6@t7, A7@t10, making those slots unavailable.
	pre := []*Access{
		fixed(5, 2, 4, gA),  // A5 @ t4
		fixed(6, 2, 7, gC),  // A6 @ t7
		fixed(7, 2, 10, gD), // A7 @ t10
		fixed(8, 1, 5, gA),  // A8 @ t5  → G5 = {2,10}
		fixed(3, 1, 6, gA),  // A3 @ t6  \ G6 = {1,2,9,10}
		fixed(9, 3, 6, gB),  // A9 @ t6  /
		fixed(10, 3, 8, gB), // A10 @ t8 → G8 = {1,9}
	}
	a4 := &Access{ID: 4, Proc: 2, Begin: 3, End: 10, Length: 1, Sig: gB, Orig: 10}
	sched, err := s.Schedule(append(pre, a4))
	if err != nil {
		t.Fatal(err)
	}
	// Distances from the example: D(g4,G6)=16, D(g4,G5)=20, D(g4,G7)=16,
	// D(g4,G4)=20, D(g4,G8)=14.
	for slot, want := range map[int]int{4: 20, 5: 20, 6: 16, 7: 16, 8: 14} {
		if got := gB.Distance(s.GroupSignature(slot)); got != want {
			t.Errorf("D(g4, G%d) = %d, want %d", slot, got, want)
		}
	}
	got, ok := sched.PointOf(4)
	if !ok {
		t.Fatal("A4 not scheduled")
	}
	if got != 8 {
		t.Fatalf("A4 scheduled at t%d, want t8 (paper's answer)", got)
	}
	// Busy same-process slots must never be chosen even if better.
	for _, busy := range []int{4, 7, 10} {
		if got == busy {
			t.Fatalf("A4 placed on unavailable slot t%d", busy)
		}
	}
}

// TestPaperExtendedExample reproduces the §IV-B2 setting: accesses with
// lengths (Fig. 10, Table I signatures on a 4-node architecture). It checks
// the group signatures G5 = g1|g3|g4 and G6 = g1|g4 and that slot t5 meets
// the θ=2 constraint for A2 while tighter θ=1 rejects it.
func TestPaperExtendedExample(t *testing.T) {
	mk := func(theta int) (*Scheduler, *Access, *Schedule) {
		s, err := NewScheduler(Params{NumSlots: 16, NumNodes: 4, Delta: 2, Theta: theta, Order: OrderInput})
		if err != nil {
			t.Fatal(err)
		}
		g1 := sig4(1, 2)
		g3 := sig4(2)
		g4 := sig4(3)
		g5 := sig4(2)
		pre := []*Access{
			{ID: 1, Proc: 1, Begin: 1, End: 1, Length: 12, Sig: g1, Orig: 1},
			{ID: 3, Proc: 2, Begin: 2, End: 2, Length: 4, Sig: g3, Orig: 2},
			{ID: 4, Proc: 3, Begin: 3, End: 3, Length: 6, Sig: g4, Orig: 3},
			{ID: 5, Proc: 4, Begin: 7, End: 7, Length: 6, Sig: g5, Orig: 7},
		}
		a2 := &Access{ID: 2, Proc: 5, Begin: 3, End: 11, Length: 3, Sig: sig4(1), Orig: 11}
		sched, err := s.Schedule(append(pre, a2))
		if err != nil {
			t.Fatal(err)
		}
		return s, a2, sched
	}

	s, a2, _ := mk(0)
	// G5 = g1|g3|g4 = {1,2,3}; G6 = g1|g4 = {1,2,3} minus g3's {2}... g1
	// already covers 2, so both are {1,2,3}.
	if got := s.GroupSignature(5).String(); got != "0111" {
		t.Fatalf("G5 = %s, want 0111 (g1|g3|g4)", got)
	}
	if got := s.GroupSignature(6).String(); got != "0111" {
		t.Fatalf("G6 = %s, want 0111 (g1|g4, g1 covers node 2)", got)
	}
	// Verify the extended reuse factor at t5 by hand: span t5..t7 weight 1,
	// t4/t8 weight 2/3, t3/t9 weight 1/3 (δ=2).
	inv := func(slot int) float64 { return a2.Sig.InverseDistance(s.GroupSignature(slot)) }
	want := inv(5) + inv(6) + inv(7) + 2.0/3*(inv(4)+inv(8)) + 1.0/3*(inv(3)+inv(9))
	s.prepare(a2) // reuseFactor reads the per-access inverse-distance cache
	if got := s.reuseFactor(a2, 5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("extended reuse factor at t5 = %v, want %v", got, want)
	}

	// θ=2: t5 is an eligible point (every node ≤ 2 concurrent accesses over
	// A2's span), as the paper states.
	s2, a2b, _ := mk(2)
	// Re-derive eligibility on a fresh scheduler with the pre accesses only.
	s2.prepare(a2b) // thetaOK reads the per-access node list
	if !s2.thetaOK(a2b, 5) {
		t.Fatal("t5 must satisfy θ=2 for A2 (paper's example)")
	}
	// θ=1: node 1 already carries A1 across t5..t7, so adding A2 violates.
	s1, a2c, _ := mk(1)
	s1.prepare(a2c)
	if s1.thetaOK(a2c, 5) {
		t.Fatal("t5 must violate θ=1 for A2")
	}
}

func TestShortestSlackScheduledFirst(t *testing.T) {
	// Two accesses, same process, overlapping slacks. The short one must
	// claim its only slot; the long one goes elsewhere.
	s, _ := NewScheduler(Params{NumSlots: 10, NumNodes: 4, Delta: 2})
	short := &Access{ID: 1, Proc: 0, Begin: 3, End: 3, Length: 1, Sig: sig4(0), Orig: 3}
	long := &Access{ID: 2, Proc: 0, Begin: 0, End: 9, Length: 1, Sig: sig4(0), Orig: 9}
	sched, err := s.Schedule([]*Access{long, short})
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := sched.PointOf(1)
	p2, _ := sched.PointOf(2)
	if p1 != 3 {
		t.Fatalf("short access at %d, want 3", p1)
	}
	if p2 == 3 {
		t.Fatal("long access collided with short one on same process")
	}
}

func TestHorizontalReuseAttracts(t *testing.T) {
	// Process 0 pins an access at slot 5 on nodes {1,2}. Process 1's access
	// with identical signature and slack [0,9] should co-schedule at 5.
	s, _ := NewScheduler(Params{NumSlots: 10, NumNodes: 8, Delta: 0})
	pin := fixed(1, 0, 5, stripe.SignatureOf(8, 1, 2))
	free := &Access{ID: 2, Proc: 1, Begin: 0, End: 9, Length: 1, Sig: stripe.SignatureOf(8, 1, 2), Orig: 9}
	sched, err := s.Schedule([]*Access{pin, free})
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := sched.PointOf(2); p != 5 {
		t.Fatalf("free access at %d, want 5 (horizontal reuse)", p)
	}
}

func TestVerticalReuseAttracts(t *testing.T) {
	// Same process this time: slot 5 is unavailable for proc 0, but δ=3
	// vertical reuse should pull the second access adjacent to slot 5.
	s, _ := NewScheduler(Params{NumSlots: 20, NumNodes: 8, Delta: 3})
	pin := fixed(1, 0, 5, stripe.SignatureOf(8, 1, 2))
	free := &Access{ID: 2, Proc: 0, Begin: 0, End: 19, Length: 1, Sig: stripe.SignatureOf(8, 1, 2), Orig: 19}
	sched, err := s.Schedule([]*Access{pin, free})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := sched.PointOf(2)
	if p == 5 {
		t.Fatal("second access shares proc 0's occupied slot")
	}
	if p != 4 && p != 6 {
		t.Fatalf("second access at %d, want adjacent to 5 (vertical reuse)", p)
	}
}

func TestDisjointSignatureRepelled(t *testing.T) {
	// An access on disjoint nodes should avoid the slot where activity on
	// other nodes is concentrated, when an empty region is available.
	s, _ := NewScheduler(Params{NumSlots: 30, NumNodes: 8, Delta: 2})
	var pre []*Access
	for i := 0; i < 4; i++ {
		pre = append(pre, fixed(10+i, i, 15, stripe.SignatureOf(8, 0, 1)))
	}
	free := &Access{ID: 1, Proc: 9, Begin: 0, End: 29, Length: 1, Sig: stripe.SignatureOf(8, 6, 7), Orig: 29}
	sched, err := s.Schedule(append(pre, free))
	if err != nil {
		t.Fatal(err)
	}
	p, _ := sched.PointOf(1)
	if p >= 13 && p <= 17 {
		t.Fatalf("disjoint access at %d, inside the busy window around 15", p)
	}
}

func TestThetaCapsConcurrency(t *testing.T) {
	// 6 processes all wanting node 0 with full flexibility; θ=2 must spread
	// them so no slot has more than 2.
	s, _ := NewScheduler(Params{NumSlots: 10, NumNodes: 4, Delta: 1, Theta: 2})
	var accs []*Access
	for i := 0; i < 6; i++ {
		accs = append(accs, &Access{ID: i, Proc: i, Begin: 0, End: 9, Length: 1, Sig: sig4(0), Orig: 9})
	}
	sched, err := s.Schedule(accs)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sched.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxPerNode > 2 {
		t.Fatalf("θ=2 violated: %d concurrent accesses on one node", rep.MaxPerNode)
	}
	if rep.ProcOverlaps != 0 {
		t.Fatalf("unexpected process overlaps: %d", rep.ProcOverlaps)
	}
}

func TestThetaFallbackMinimumExcess(t *testing.T) {
	// More same-slot demand than θ can possibly satisfy (window of a single
	// slot): the scheduler must still place everything (best effort).
	s, _ := NewScheduler(Params{NumSlots: 3, NumNodes: 2, Delta: 0, Theta: 1})
	var accs []*Access
	for i := 0; i < 5; i++ {
		accs = append(accs, &Access{ID: i, Proc: i, Begin: 1, End: 1, Length: 1, Sig: stripe.SignatureOf(2, 0), Orig: 1})
	}
	sched, err := s.Schedule(accs)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Len() != 5 {
		t.Fatalf("scheduled %d of 5", sched.Len())
	}
}

func TestExtendedLengthsNoProcessOverlap(t *testing.T) {
	s, _ := NewScheduler(Params{NumSlots: 40, NumNodes: 4, Delta: 2})
	accs := []*Access{
		{ID: 1, Proc: 0, Begin: 0, End: 30, Length: 5, Sig: sig4(0), Orig: 30},
		{ID: 2, Proc: 0, Begin: 0, End: 30, Length: 7, Sig: sig4(0), Orig: 30},
		{ID: 3, Proc: 0, Begin: 0, End: 30, Length: 3, Sig: sig4(1), Orig: 30},
	}
	sched, err := s.Schedule(accs)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sched.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ProcOverlaps != 0 {
		t.Fatalf("process overlaps: %d", rep.ProcOverlaps)
	}
}

func TestLengthFitsWithinSlack(t *testing.T) {
	s, _ := NewScheduler(Params{NumSlots: 20, NumNodes: 4, Delta: 2})
	a := &Access{ID: 1, Proc: 0, Begin: 5, End: 10, Length: 4, Sig: sig4(0), Orig: 10}
	sched, err := s.Schedule([]*Access{a})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := sched.PointOf(1)
	if p < 5 || p+4-1 > 10 {
		t.Fatalf("access of length 4 at %d overruns slack [5,10]", p)
	}
}

func TestRandomTiesStillValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, _ := NewScheduler(Params{NumSlots: 50, NumNodes: 8, Delta: 2, RandomTies: rng.Intn})
	var accs []*Access
	for i := 0; i < 30; i++ {
		accs = append(accs, &Access{
			ID: i, Proc: i % 4, Begin: 0, End: 49, Length: 1,
			Sig: stripe.SignatureOf(8, i%8), Orig: 49,
		})
	}
	sched, err := s.Schedule(accs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulingPacksAccesses(t *testing.T) {
	// The core claim: with scheduling, accesses sharing I/O nodes cluster
	// into fewer active slots than a spread-out baseline. Use accesses
	// originally spread across 200 slots with generous slacks.
	mk := func() []*Access {
		var accs []*Access
		for i := 0; i < 64; i++ {
			orig := 3 * i
			begin := orig - 40
			if begin < 0 {
				begin = 0
			}
			accs = append(accs, &Access{
				ID: i, Proc: i % 8, Begin: begin, End: orig, Length: 1,
				Sig: stripe.SignatureOf(8, i%4, 4+i%4), Orig: orig,
			})
		}
		return accs
	}
	s, _ := NewScheduler(Params{NumSlots: 200, NumNodes: 8, Delta: 20})
	sched, err := s.Schedule(mk())
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: every access at its original point.
	base := newSchedule(Params{NumSlots: 200, NumNodes: 8}, 64)
	for _, a := range mk() {
		base.assign(a, a.Orig)
	}
	base.finalize()
	if got, want := sched.ActiveSlotCount(), base.ActiveSlotCount(); got >= want {
		t.Fatalf("scheduled active slots %d not below baseline %d", got, want)
	}
	if got, want := sched.NodeActivations(), base.NodeActivations(); got >= want {
		t.Fatalf("node activations %d not below baseline %d", got, want)
	}
}

func TestMovedEarlier(t *testing.T) {
	s, _ := NewScheduler(Params{NumSlots: 20, NumNodes: 4, Delta: 2})
	pin := fixed(1, 0, 2, sig4(0))
	// Orig at 15, will be pulled toward 2 by reuse.
	free := &Access{ID: 2, Proc: 1, Begin: 0, End: 15, Length: 1, Sig: sig4(0), Orig: 15}
	sched, err := s.Schedule([]*Access{pin, free})
	if err != nil {
		t.Fatal(err)
	}
	moved := sched.MovedEarlier(1)
	if len(moved) != 1 || moved[0].AccessID != 2 {
		t.Fatalf("MovedEarlier = %+v", moved)
	}
	if len(sched.MovedEarlier(0)) != 0 {
		t.Fatal("pinned access reported as moved")
	}
}

func TestScheduleTablesSortedPerProcess(t *testing.T) {
	s, _ := NewScheduler(Params{NumSlots: 100, NumNodes: 8, Delta: 5})
	var accs []*Access
	for i := 0; i < 40; i++ {
		accs = append(accs, &Access{
			ID: i, Proc: i % 3, Begin: 0, End: 99, Length: 1,
			Sig: stripe.SignatureOf(8, i%8), Orig: 99,
		})
	}
	sched, err := s.Schedule(accs)
	if err != nil {
		t.Fatal(err)
	}
	procs := sched.Procs()
	if len(procs) != 3 {
		t.Fatalf("Procs = %v", procs)
	}
	total := 0
	for _, p := range procs {
		tab := sched.Table(p)
		total += len(tab)
		for i := 1; i < len(tab); i++ {
			if tab[i].Slot < tab[i-1].Slot {
				t.Fatalf("proc %d table unsorted at %d", p, i)
			}
		}
	}
	if total != 40 {
		t.Fatalf("tables hold %d entries, want 40", total)
	}
}

func TestScheduleRejectsInvalidAccess(t *testing.T) {
	s, _ := NewScheduler(Params{NumSlots: 10, NumNodes: 4, Delta: 1})
	if _, err := s.Schedule([]*Access{{ID: 1, Begin: 0, End: 20, Length: 1, Sig: sig4(0)}}); err == nil {
		t.Fatal("out-of-range slack accepted")
	}
	// A negative process id must be an error, not an index panic in the
	// per-process occupancy rows.
	s, _ = NewScheduler(Params{NumSlots: 10, NumNodes: 4, Delta: 1, Theta: 2})
	if _, err := s.Schedule([]*Access{{ID: 1, Proc: -1, Begin: 0, End: 5, Length: 1, Sig: sig4(0)}}); err == nil {
		t.Fatal("negative process accepted")
	}
}

func TestOrderAblations(t *testing.T) {
	mk := func(order OrderKind) *Schedule {
		s, _ := NewScheduler(Params{NumSlots: 60, NumNodes: 8, Delta: 10, Order: order})
		var accs []*Access
		for i := 0; i < 24; i++ {
			accs = append(accs, &Access{
				ID: i, Proc: i % 6, Begin: (i * 2) % 30, End: (i*2)%30 + 20 + i%9, Length: 1,
				Sig: stripe.SignatureOf(8, i%4, (i+4)%8), Orig: (i*2)%30 + 20 + i%9,
			})
		}
		sched, err := s.Schedule(accs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sched.Validate(); err != nil {
			t.Fatal(err)
		}
		return sched
	}
	// All three orders must produce structurally valid schedules.
	for _, o := range []OrderKind{OrderSlack, OrderInput, OrderLongestSlack} {
		mk(o)
	}
}

// Property: any mix of random accesses yields a schedule where every access
// sits inside its slack and no process double-books a slot.
func TestPropertyScheduleAlwaysValid(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 1
		params := Params{NumSlots: 120, NumNodes: 8, Delta: rng.Intn(15), Theta: rng.Intn(4)}
		s, err := NewScheduler(params)
		if err != nil {
			return false
		}
		var accs []*Access
		for i := 0; i < n; i++ {
			b := rng.Intn(100)
			e := b + rng.Intn(119-b)
			length := 1 + rng.Intn(4)
			accs = append(accs, &Access{
				ID: i, Proc: rng.Intn(6), Begin: b, End: e, Length: length,
				Sig: stripe.SignatureOf(8, rng.Intn(8), rng.Intn(8)), Orig: e,
			})
		}
		sched, err := s.Schedule(accs)
		if err != nil {
			return false
		}
		if sched.Len() != n {
			return false
		}
		_, err = sched.Validate()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: determinism — same input, same schedule (no RandomTies).
func TestPropertyDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		build := func() map[int]int {
			rng := rand.New(rand.NewSource(seed))
			s, _ := NewScheduler(Params{NumSlots: 80, NumNodes: 8, Delta: 8})
			var accs []*Access
			for i := 0; i < 25; i++ {
				b := rng.Intn(60)
				accs = append(accs, &Access{
					ID: i, Proc: rng.Intn(4), Begin: b, End: b + rng.Intn(79-b), Length: 1,
					Sig: stripe.SignatureOf(8, rng.Intn(8)), Orig: b,
				})
			}
			sched, err := s.Schedule(accs)
			if err != nil {
				return nil
			}
			out := make(map[int]int)
			for i := 0; i < 25; i++ {
				p, _ := sched.PointOf(i)
				out[i] = p
			}
			return out
		}
		a, b := build(), build()
		if a == nil || b == nil {
			return false
		}
		for k, v := range a {
			if b[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var accs []*Access
	for i := 0; i < 500; i++ {
		begin := rng.Intn(900)
		accs = append(accs, &Access{
			ID: i, Proc: i % 32, Begin: begin, End: begin + rng.Intn(999-begin), Length: 1 + rng.Intn(3),
			Sig: stripe.SignatureOf(8, rng.Intn(8), rng.Intn(8)), Orig: begin + 50,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := NewScheduler(Params{NumSlots: 1000, NumNodes: 8, Delta: 20, Theta: 4})
		if _, err := s.Schedule(accs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRescaleMapsPointsBack(t *testing.T) {
	s, _ := NewScheduler(Params{NumSlots: 10, NumNodes: 4, Delta: 1})
	accs := []*Access{
		{ID: 0, Proc: 0, Begin: 0, End: 9, Length: 1, Sig: sig4(0), Orig: 9},
		{ID: 1, Proc: 1, Begin: 2, End: 7, Length: 1, Sig: sig4(1), Orig: 7},
	}
	sched, err := s.Schedule(accs)
	if err != nil {
		t.Fatal(err)
	}
	full := sched.Rescale(4, 40, func(id int) (int, int) {
		if id == 0 {
			return 0, 39
		}
		return 8, 31
	})
	for _, id := range []int{0, 1} {
		pt, ok := full.PointOf(id)
		if !ok {
			t.Fatalf("access %d lost in rescale", id)
		}
		coarse, _ := sched.PointOf(id)
		want := coarse * 4
		lo, hi := 0, 39
		if id == 1 {
			lo, hi = 8, 31
		}
		if want < lo {
			want = lo
		}
		if want > hi {
			want = hi
		}
		if pt != want {
			t.Fatalf("access %d rescaled to %d, want %d", id, pt, want)
		}
	}
	if _, err := full.Validate(); err != nil {
		t.Fatal(err)
	}
	// d ≤ 1 is the identity.
	if sched.Rescale(1, 10, nil) != sched {
		t.Fatal("Rescale(1) must be identity")
	}
}
