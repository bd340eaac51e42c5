package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"sdds/internal/stripe"
)

// refScheduler is the scoring algorithm as first written: every candidate
// start is scored by recomputing InverseDistance over its whole window,
// the θ path scores every slot a second time, and occupancy is a map. It
// is the oracle the optimized Scheduler must match decision for decision.
type refScheduler struct {
	params Params
	group  []stripe.Signature
	counts [][]int32
	busy   map[refProcSlot]bool

	// Fallback counters, so the differential test can show it reached them.
	allOccupied, minExcess int
}

type refProcSlot struct{ proc, slot int }

func newRefScheduler(p Params) *refScheduler {
	s := &refScheduler{params: p, group: make([]stripe.Signature, p.NumSlots), busy: make(map[refProcSlot]bool)}
	for i := range s.group {
		s.group[i] = stripe.NewSignature(p.NumNodes)
	}
	if p.Theta > 0 {
		s.counts = make([][]int32, p.NumSlots)
		for i := range s.counts {
			s.counts[i] = make([]int32, p.NumNodes)
		}
	}
	return s
}

func (s *refScheduler) schedule(accesses []*Access) (*Schedule, error) {
	order, err := processingOrder(s.params, accesses)
	if err != nil {
		return nil, err
	}
	sched := newSchedule(s.params, len(accesses))
	for _, a := range order {
		point := s.place(a)
		s.commit(a, point)
		sched.assign(a, point)
	}
	sched.finalize()
	return sched, nil
}

func (s *refScheduler) place(a *Access) int {
	type cand struct {
		slot  int
		reuse float64
	}
	var cands []cand
	bestReuse := -1.0
	latest := a.LatestStart()
	for t := a.Begin; t <= latest; t++ {
		if s.occupied(a, t) {
			continue
		}
		r := s.reuseFactor(a, t)
		switch {
		case r > bestReuse:
			bestReuse = r
			cands = cands[:0]
			cands = append(cands, cand{t, r})
		case r == bestReuse:
			cands = append(cands, cand{t, r})
		}
	}
	if len(cands) == 0 {
		s.allOccupied++
		return a.Begin
	}

	if s.params.Theta > 0 {
		all := s.availableByReuse(a)
		for _, c := range all {
			if s.thetaOK(a, c.slot) {
				return c.slot
			}
		}
		s.minExcess++
		best := all[0].slot
		bestE := s.averageExcess(a, all[0].slot)
		for _, c := range all[1:] {
			if e := s.averageExcess(a, c.slot); e < bestE {
				bestE, best = e, c.slot
			}
		}
		return best
	}

	if s.params.RandomTies != nil && len(cands) > 1 {
		return cands[s.params.RandomTies(len(cands))].slot
	}
	return cands[0].slot
}

func (s *refScheduler) availableByReuse(a *Access) []reuseSlot {
	latest := a.LatestStart()
	out := make([]reuseSlot, 0, latest-a.Begin+1)
	for t := a.Begin; t <= latest; t++ {
		if s.occupied(a, t) {
			continue
		}
		out = append(out, reuseSlot{t, s.reuseFactor(a, t)})
	}
	if len(out) == 0 {
		out = append(out, reuseSlot{a.Begin, 0})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].reuse != out[j].reuse {
			return out[i].reuse > out[j].reuse
		}
		return out[i].slot < out[j].slot
	})
	return out
}

func (s *refScheduler) occupied(a *Access, t int) bool {
	for k := 0; k < a.Length; k++ {
		slot := t + k
		if slot >= s.params.NumSlots {
			break
		}
		if s.busy[refProcSlot{a.Proc, slot}] {
			return true
		}
	}
	return false
}

func (s *refScheduler) reuseFactor(a *Access, t int) float64 {
	lo := t - s.params.Delta
	hi := t + a.Length - 1 + s.params.Delta
	if lo < 0 {
		lo = 0
	}
	if hi >= s.params.NumSlots {
		hi = s.params.NumSlots - 1
	}
	spanEnd := t + a.Length - 1
	var r float64
	for slot := lo; slot <= hi; slot++ {
		w := 1.0
		if !s.params.NoWeights {
			switch {
			case slot < t:
				w = Weight(t-slot, s.params.Delta)
			case slot > spanEnd:
				w = Weight(slot-spanEnd, s.params.Delta)
			}
		}
		if w == 0 {
			continue
		}
		r += w * a.Sig.InverseDistance(s.group[slot])
	}
	return r
}

func (s *refScheduler) thetaOK(a *Access, t int) bool {
	nodes := a.Sig.Nodes()
	for k := 0; k < a.Length; k++ {
		slot := t + k
		if slot >= s.params.NumSlots {
			break
		}
		for _, n := range nodes {
			if s.counts[slot][n]+1 > int32(s.params.Theta) {
				return false
			}
		}
	}
	return true
}

func (s *refScheduler) averageExcess(a *Access, t int) float64 {
	nodes := a.Sig.Nodes()
	var excess float64
	var overNodes int
	for k := 0; k < a.Length; k++ {
		slot := t + k
		if slot >= s.params.NumSlots {
			break
		}
		for _, n := range nodes {
			m := s.counts[slot][n] + 1
			if int(m) > s.params.Theta {
				excess += float64(int(m) - s.params.Theta)
				overNodes++
			}
		}
	}
	if overNodes == 0 {
		return 0
	}
	return excess / float64(overNodes)
}

func (s *refScheduler) commit(a *Access, point int) {
	nodes := a.Sig.Nodes()
	for k := 0; k < a.Length; k++ {
		slot := point + k
		if slot >= s.params.NumSlots {
			break
		}
		s.busy[refProcSlot{a.Proc, slot}] = true
		s.group[slot].OrInPlace(a.Sig)
		if s.counts != nil {
			for _, n := range nodes {
				s.counts[slot][n]++
			}
		}
	}
}

// randomProblem draws a scheduling problem from rng. Slacks are sometimes
// shorter than the access length. dense packs many accesses of few
// processes onto few slots and nodes, so that some accesses find every
// start occupied and others find no start that meets θ.
func randomProblem(rng *rand.Rand, dense bool) (Params, []*Access) {
	pick := func(xs ...int) int { return xs[rng.Intn(len(xs))] }
	p := Params{
		NumSlots:  20 + rng.Intn(140),
		NumNodes:  1 + rng.Intn(16),
		Delta:     pick(0, 2, 20),
		Theta:     pick(0, 1, 4),
		NoWeights: rng.Intn(2) == 0,
		Order:     OrderKind(rng.Intn(3)),
	}
	procs, n, maxLen := 1+rng.Intn(8), 1+rng.Intn(60), 6
	if dense {
		// One process reaches the all-occupied fallback. θ violations
		// need a second process: an available start of a lone process
		// never overlaps a committed access, so it always meets θ ≥ 1.
		p.NumSlots, p.NumNodes, p.Theta = 8+rng.Intn(12), 1+rng.Intn(2), pick(1, 4)
		procs, n, maxLen = 1+rng.Intn(3), 20+rng.Intn(40), 4
	}
	accs := make([]*Access, n)
	for i := range accs {
		b := rng.Intn(p.NumSlots)
		e := b + rng.Intn(p.NumSlots-b)
		nodes := []int{rng.Intn(p.NumNodes), rng.Intn(p.NumNodes)}
		accs[i] = &Access{
			ID: i, Proc: rng.Intn(procs), Begin: b, End: e, Length: 1 + rng.Intn(maxLen),
			Sig: stripe.SignatureOf(p.NumNodes, nodes[:1+rng.Intn(2)]...), Orig: e,
		}
	}
	return p, accs
}

// Differential property: the optimized Scheduler assigns every access the
// same point as the reference algorithm, across θ, δ, σ weighting, every
// processing order, random tie-breaking, and both fallbacks.
func TestSchedulerMatchesReference(t *testing.T) {
	var allOccupied, minExcess int
	f := func(seed int64, dense, randomTies bool) bool {
		rng := rand.New(rand.NewSource(seed))
		p, accs := randomProblem(rng, dense)
		refP := p
		if randomTies {
			p.RandomTies = rand.New(rand.NewSource(seed)).Intn
			refP.RandomTies = rand.New(rand.NewSource(seed)).Intn
		}
		s, err := NewScheduler(p)
		if err != nil {
			t.Log(err)
			return false
		}
		got, err := s.Schedule(accs)
		if err != nil {
			t.Log(err)
			return false
		}
		ref := newRefScheduler(refP)
		want, err := ref.schedule(accs)
		if err != nil {
			t.Log(err)
			return false
		}
		allOccupied += ref.allOccupied
		minExcess += ref.minExcess
		if !reflect.DeepEqual(got.Assignments(), want.Assignments()) {
			t.Logf("seed %d dense %v params %+v: assignments differ", seed, dense, p)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	if allOccupied == 0 || minExcess == 0 {
		t.Fatalf("fallbacks not exercised: all-occupied %d, minimum-excess %d", allOccupied, minExcess)
	}
}
