package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"sdds/internal/stripe"
)

// Scheduler runs the data access scheduling algorithms of §IV-B. One
// Scheduler instance handles one scheduling problem; it is not safe for
// concurrent use.
type Scheduler struct {
	params Params

	group   []stripe.Signature // G_t: group active signature per slot
	counts  []int32            // θ: scheduled accesses per (slot, node), slot-major
	busy    [][]bool           // [proc][slot] occupancy, rows allocated on first commit
	weights []float64          // σ_k for k = 0..δ (all 1 under NoWeights)

	// Per-access scratch, filled by prepare and valid until commit.
	inv     []float64   // a.Sig.InverseDistance(group[invLo+i])
	invLo   int         // first slot of the reuse window
	nodes   []int       // a.Sig.Nodes()
	byReuse []reuseSlot // candidate slots of the access being placed
}

// NewScheduler validates params and returns a scheduler.
func NewScheduler(p Params) (*Scheduler, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{
		params:  p,
		group:   make([]stripe.Signature, p.NumSlots),
		weights: make([]float64, p.Delta+1),
	}
	for i := range s.group {
		s.group[i] = stripe.NewSignature(p.NumNodes)
	}
	for k := range s.weights {
		s.weights[k] = 1
		if !p.NoWeights {
			s.weights[k] = Weight(k, p.Delta)
		}
	}
	if p.Theta > 0 {
		s.counts = make([]int32, p.NumSlots*p.NumNodes)
	}
	return s, nil
}

// Schedule assigns a scheduling point to every access and returns the
// resulting schedule. The input slice is not modified; accesses are
// processed in the configured order (shortest slack first by default).
func (s *Scheduler) Schedule(accesses []*Access) (*Schedule, error) {
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

// processingOrder validates the accesses and returns a copy in the order
// p.Order processes them.
func processingOrder(p Params, accesses []*Access) ([]*Access, error) {
	for _, a := range accesses {
		if err := a.Validate(p.NumSlots, p.NumNodes); err != nil {
			return nil, err
		}
	}
	order := make([]*Access, len(accesses))
	copy(order, accesses)
	switch p.Order {
	case OrderSlack:
		sort.SliceStable(order, func(i, j int) bool {
			if li, lj := order[i].SlackLen(), order[j].SlackLen(); li != lj {
				return li < lj
			}
			return order[i].ID < order[j].ID
		})
	case OrderLongestSlack:
		sort.SliceStable(order, func(i, j int) bool {
			if li, lj := order[i].SlackLen(), order[j].SlackLen(); li != lj {
				return li > lj
			}
			return order[i].ID < order[j].ID
		})
	case OrderInput:
		// keep as-is
	default:
		return nil, fmt.Errorf("core: unknown order %d", p.Order)
	}
	return order, nil
}

// place selects the scheduling point for one access given everything
// committed so far.
func (s *Scheduler) place(a *Access) int {
	s.prepare(a)
	if s.params.Theta > 0 {
		return s.placeTheta(a)
	}
	cands := s.byReuse[:0]
	bestReuse := -1.0
	latest := a.LatestStart()
	for t := a.Begin; t <= latest; t++ {
		if s.occupied(a, t) {
			continue // Fig. 11 line 8: slot unavailable
		}
		r := s.reuseFactor(a, t)
		switch {
		case r > bestReuse:
			bestReuse = r
			cands = cands[:0]
			cands = append(cands, reuseSlot{t, r})
		case r == bestReuse:
			cands = append(cands, reuseSlot{t, r})
		}
	}
	s.byReuse = cands
	if len(cands) == 0 {
		// Every start violates per-process availability (extremely dense
		// schedule): fall back to the slack start, best effort.
		return a.Begin
	}
	if s.params.RandomTies != nil && len(cands) > 1 {
		return cands[s.params.RandomTies(len(cands))].slot
	}
	return cands[0].slot
}

// placeTheta is place under the θ constraint (§IV-B3): walk every
// available slot in non-increasing reuse order and pick the first that
// meets θ over the access's whole span.
func (s *Scheduler) placeTheta(a *Access) int {
	all := s.availableByReuse(a)
	if len(all) == 0 {
		// Every start violates per-process availability: fall back to
		// the slack start, best effort.
		return a.Begin
	}
	for _, c := range all {
		if s.thetaOK(a, c.slot) {
			return c.slot
		}
	}
	// No slot satisfies θ: choose the one with minimum average number of
	// additional accesses E_t.
	best := all[0].slot
	bestE := s.averageExcess(a, all[0].slot)
	for _, c := range all[1:] {
		if e := s.averageExcess(a, c.slot); e < bestE {
			bestE, best = e, c.slot
		}
	}
	return best
}

type reuseSlot struct {
	slot  int
	reuse float64
}

// availableByReuse lists every available start slot sorted by reuse factor,
// non-increasing (ties by slot for determinism). The result aliases the
// scheduler's scratch and is valid until the next call.
func (s *Scheduler) availableByReuse(a *Access) []reuseSlot {
	out := s.byReuse[:0]
	latest := a.LatestStart()
	for t := a.Begin; t <= latest; t++ {
		if s.occupied(a, t) {
			continue
		}
		out = append(out, reuseSlot{t, s.reuseFactor(a, t)})
	}
	// Stable, so equal-reuse slots keep their ascending slot order.
	slices.SortStableFunc(out, func(x, y reuseSlot) int { return cmp.Compare(y.reuse, x.reuse) })
	s.byReuse = out
	return out
}

// prepare fills the per-access scratch that stays valid until a is
// committed: a's node list, and the inverse distance from a.Sig to the
// group signature of every slot any candidate start can weigh,
// [Begin−δ, LatestStart+Length−1+δ] clipped to the slot range.
func (s *Scheduler) prepare(a *Access) {
	lo := max(a.Begin-s.params.Delta, 0)
	hi := min(a.LatestStart()+a.Length-1+s.params.Delta, s.params.NumSlots-1)
	s.invLo = lo
	s.inv = s.inv[:0]
	for slot := lo; slot <= hi; slot++ {
		s.inv = append(s.inv, a.Sig.InverseDistance(s.group[slot]))
	}
	s.nodes = a.Sig.Nodes()
}

// occupied reports whether starting a at slot t would overlap another
// access already scheduled for the same process.
//
//sddsvet:hotpath
func (s *Scheduler) occupied(a *Access, t int) bool {
	if a.Proc >= len(s.busy) {
		return false
	}
	row := s.busy[a.Proc] // nil until the process's first commit
	for slot := t; slot < t+a.Length && slot < len(row); slot++ {
		if row[slot] {
			return true
		}
	}
	return false
}

// reuseFactor computes R_t (Eq. 2 extended per §IV-B2): unit sub-accesses
// of a starting at t occupy [t, t+len−1] with weight 1; slots up to δ
// before/after the span contribute with linearly decaying weight σ. It
// reads the inverse distances prepare cached for a, summing in slot order.
//
//sddsvet:hotpath
func (s *Scheduler) reuseFactor(a *Access, t int) float64 {
	lo := max(t-s.params.Delta, 0)
	hi := min(t+a.Length-1+s.params.Delta, s.params.NumSlots-1)
	spanEnd := t + a.Length - 1
	inv := s.inv[lo-s.invLo : hi-s.invLo+1]
	var r float64
	for i, d := range inv {
		slot := lo + i
		w := 1.0
		switch {
		case slot < t:
			w = s.weights[t-slot]
		case slot > spanEnd:
			w = s.weights[slot-spanEnd]
		}
		// The conversion forbids fusing into an FMA, keeping the sum
		// bit-identical on every architecture.
		r += float64(w * d)
	}
	return r
}

// thetaOK reports whether starting a at slot t keeps every I/O node the
// access touches within θ concurrent accesses across the whole span.
//
//sddsvet:hotpath
func (s *Scheduler) thetaOK(a *Access, t int) bool {
	for slot := t; slot < t+a.Length && slot < s.params.NumSlots; slot++ {
		row := s.counts[slot*s.params.NumNodes:]
		for _, n := range s.nodes {
			if row[n]+1 > int32(s.params.Theta) {
				return false
			}
		}
	}
	return true
}

// averageExcess computes E_t: the average number of accesses beyond θ per
// over-subscribed node, averaged over the slots of the span, assuming a is
// placed at t.
//
//sddsvet:hotpath
func (s *Scheduler) averageExcess(a *Access, t int) float64 {
	var excess float64
	var overNodes int
	for slot := t; slot < t+a.Length && slot < s.params.NumSlots; slot++ {
		row := s.counts[slot*s.params.NumNodes:]
		for _, n := range s.nodes {
			m := row[n] + 1
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

// commit records a's placement at slot point: per-process occupancy, group
// active signatures, and θ counters. It follows prepare(a).
func (s *Scheduler) commit(a *Access, point int) {
	for len(s.busy) <= a.Proc {
		s.busy = append(s.busy, nil)
	}
	if s.busy[a.Proc] == nil {
		s.busy[a.Proc] = make([]bool, s.params.NumSlots)
	}
	row := s.busy[a.Proc]
	for slot := point; slot < point+a.Length && slot < s.params.NumSlots; slot++ {
		row[slot] = true
		s.group[slot].OrInPlace(a.Sig)
		if s.counts != nil {
			for _, n := range s.nodes {
				s.counts[slot*s.params.NumNodes+n]++
			}
		}
	}
}

// GroupSignature exposes the committed group active signature of a slot
// (diagnostics and tests).
func (s *Scheduler) GroupSignature(slot int) stripe.Signature {
	if slot < 0 || slot >= len(s.group) {
		return stripe.NewSignature(s.params.NumNodes)
	}
	return s.group[slot].Clone()
}
