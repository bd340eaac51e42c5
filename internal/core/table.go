package core

import (
	"fmt"
	"sort"

	"sdds/internal/stripe"
)

// Entry is one row of a process's scheduling table: at slot Slot, issue the
// access identified by AccessID (whose original program point was Orig).
type Entry struct {
	Slot     int
	AccessID int
	Orig     int
	Length   int
	Sig      stripe.Signature
}

// Schedule is the output of the scheduler: the scheduling point of every
// access plus the per-process tables the runtime scheduler loads.
type Schedule struct {
	params Params
	points map[int]int     // access ID → slot
	access map[int]*Access // access ID → access
	tables map[int][]Entry // proc → entries sorted by slot
}

func newSchedule(p Params, capHint int) *Schedule {
	return &Schedule{
		params: p,
		points: make(map[int]int, capHint),
		access: make(map[int]*Access, capHint),
		tables: make(map[int][]Entry),
	}
}

func (s *Schedule) assign(a *Access, point int) {
	s.points[a.ID] = point
	s.access[a.ID] = a
	s.tables[a.Proc] = append(s.tables[a.Proc], Entry{
		Slot:     point,
		AccessID: a.ID,
		Orig:     a.Orig,
		Length:   a.Length,
		Sig:      a.Sig,
	})
}

func (s *Schedule) finalize() {
	for proc := range s.tables {
		t := s.tables[proc]
		sort.Slice(t, func(i, j int) bool {
			if t[i].Slot != t[j].Slot {
				return t[i].Slot < t[j].Slot
			}
			return t[i].AccessID < t[j].AccessID
		})
	}
}

// PointOf returns the scheduling point of an access, and whether the access
// was scheduled.
func (s *Schedule) PointOf(accessID int) (int, bool) {
	p, ok := s.points[accessID]
	return p, ok
}

// Len returns the number of scheduled accesses.
func (s *Schedule) Len() int { return len(s.points) }

// Procs returns the process ids that have table entries, ascending.
func (s *Schedule) Procs() []int {
	out := make([]int, 0, len(s.tables))
	for p := range s.tables {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Table returns process proc's scheduling table sorted by slot. The caller
// must not modify the returned slice.
func (s *Schedule) Table(proc int) []Entry { return s.tables[proc] }

// MovedEarlier returns the entries of proc whose scheduling point precedes
// their original point — exactly the accesses the runtime scheduler
// prefetches ("the scheduler only performs data accesses scheduled at much
// earlier iterations than their original points", §III).
func (s *Schedule) MovedEarlier(proc int) []Entry {
	var out []Entry
	for _, e := range s.tables[proc] {
		if e.Slot < e.Orig {
			out = append(out, e)
		}
	}
	return out
}

// ValidationReport summarizes the soft properties of a schedule.
type ValidationReport struct {
	// MaxPerNode is the worst per-I/O-node concurrency observed in any slot
	// (what θ bounds; the θ constraint is best-effort, falling back to
	// minimum-excess placement when unsatisfiable, so callers assert it).
	MaxPerNode int
	// ProcOverlaps counts (process, slot) pairs carrying more than one
	// access. Overlap only happens when a process's accesses are so
	// constrained that no conflict-free slot exists (e.g. two unavoidable
	// reads in one iteration); it is 0 for schedulable inputs.
	ProcOverlaps int
}

// Validate checks the hard invariant — every access is scheduled inside its
// slack — and reports the soft properties (per-node concurrency, forced
// same-process overlaps).
func (s *Schedule) Validate() (ValidationReport, error) {
	var rep ValidationReport
	type ps struct{ proc, slot int }
	seen := make(map[ps]bool)
	counts := make(map[int]map[int]int) // slot → node → count
	for id, point := range s.points {
		a := s.access[id]
		if point < a.Begin || point > a.End {
			return rep, fmt.Errorf("core: access %d scheduled at %d outside slack [%d,%d]", id, point, a.Begin, a.End)
		}
		if point+a.Length-1 > a.End && a.Length <= a.SlackLen() {
			return rep, fmt.Errorf("core: access %d (len %d) at %d overruns slack end %d", id, a.Length, point, a.End)
		}
		for k := 0; k < a.Length; k++ {
			slot := point + k
			if slot >= s.params.NumSlots {
				break
			}
			key := ps{a.Proc, slot}
			if _, dup := seen[key]; dup {
				rep.ProcOverlaps++
			}
			seen[key] = true
			m := counts[slot]
			if m == nil {
				m = make(map[int]int)
				counts[slot] = m //sddsvet:ignore detflow -- insert-once: stored only when absent; per-node counts update per-key
			}
			for _, n := range a.Sig.Nodes() {
				m[n]++
				if m[n] > rep.MaxPerNode {
					rep.MaxPerNode = m[n] //sddsvet:ignore detflow -- max reduction: result independent of visit order
				}
			}
		}
	}
	return rep, nil
}

// NodeActivations sums, over all slots, the number of distinct I/O nodes
// active in the slot. Packing accesses that share nodes into common slots
// lowers this total — the quantity the scheduling algorithm implicitly
// minimizes to lengthen idle periods.
func (s *Schedule) NodeActivations() int {
	active := make(map[int]stripe.Signature)
	for id, point := range s.points {
		a := s.access[id]
		for k := 0; k < a.Length; k++ {
			slot := point + k
			if slot >= s.params.NumSlots {
				break
			}
			g, ok := active[slot]
			if !ok {
				g = stripe.NewSignature(s.params.NumNodes)
				active[slot] = g //sddsvet:ignore detflow -- insert-once: stored only when absent; updates OR in place (commutative)
			}
			g.OrInPlace(a.Sig)
		}
	}
	total := 0
	for _, g := range active {
		total += g.Count()
	}
	return total
}

// ActiveSlotCount returns the number of slots with at least one scheduled
// access — fewer active slots means accesses were packed more tightly.
func (s *Schedule) ActiveSlotCount() int {
	active := make(map[int]bool)
	for id, point := range s.points {
		a := s.access[id]
		for k := 0; k < a.Length; k++ {
			slot := point + k
			if slot >= s.params.NumSlots {
				break
			}
			active[slot] = true
		}
	}
	return len(active)
}

// Assignment couples an access ID with its scheduling point — the minimal
// form of one scheduling decision.
type Assignment struct {
	ID    int `json:"id"`
	Point int `json:"point"`
}

// Assignments returns every (access ID, point) pair sorted by access ID:
// the canonical order-independent rendering of the schedule.
func (s *Schedule) Assignments() []Assignment {
	out := make([]Assignment, 0, len(s.points))
	for id, p := range s.points {
		out = append(out, Assignment{ID: id, Point: p})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Rescale maps a schedule computed over coalesced slots (d iterations per
// unit, §IV-A) back to full-resolution slots: each scheduling point p
// becomes p·d, clamped into the access's full-resolution slack window
// supplied by slackOf. The returned schedule's tables and points are in
// full-resolution slots over numSlots total.
func (s *Schedule) Rescale(d, numSlots int, slackOf func(accessID int) (begin, end int)) *Schedule {
	if d <= 1 {
		return s
	}
	params := s.params
	params.NumSlots = numSlots
	out := newSchedule(params, len(s.points))
	for id, point := range s.points {
		a := s.access[id]
		begin, end := slackOf(id)
		full := point * d
		if full < begin {
			full = begin
		}
		if full > end {
			full = end
		}
		// Re-anchor the access to full resolution so Validate and
		// MovedEarlier reason in the same slot space.
		fa := *a
		fa.Begin = begin
		fa.End = end
		fa.Orig = end
		out.assign(&fa, full)
	}
	out.finalize()
	return out
}
