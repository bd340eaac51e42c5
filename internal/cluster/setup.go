package cluster

import (
	"fmt"

	"sdds/internal/loop"
	"sdds/internal/sim"
)

// Setup is the reusable pre-simulation state of a (program, procs) pair:
// the validated program, the flat I/O-instance index, per-slot nest
// metadata, and per-nest body costs. None of it depends on runtime knobs
// (seed, policy, θ, buffer, faults), so a sweep over such variants builds
// it once and forks every run off the same snapshot. A Setup is immutable
// after NewSetup and RunPrepared only reads it, making it safe to share
// across concurrent runs.
type Setup struct {
	prog  *loop.Program
	procs int
	slots int

	// Flat I/O-instance index: the instances of (proc p, slot s) are
	// ioFlat[ioOff[p*slots+s]:ioOff[p*slots+s+1]], in statement order.
	ioFlat []loop.IOInstance
	ioOff  []int32

	// Slot metadata: nest index, slot-within-nest, per-nest body cost.
	slotNest     []int
	slotLoc      []int
	nestBodyCost []sim.Duration
}

// NewSetup validates prog and builds the shared pre-simulation state for
// the given process count.
func NewSetup(prog *loop.Program, procs int) (*Setup, error) {
	if procs <= 0 {
		return nil, fmt.Errorf("cluster: procs %d must be positive", procs)
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	s := &Setup{prog: prog, procs: procs, slots: prog.Slots(procs)}
	s.ioFlat, s.ioOff = prog.ProcSlotInstances(procs)
	s.buildSlotMeta()
	return s, nil
}

// Program returns the program the setup was built for.
func (s *Setup) Program() *loop.Program { return s.prog }

// Procs returns the process count the setup was built for.
func (s *Setup) Procs() int { return s.procs }

func (s *Setup) buildSlotMeta() {
	s.slotNest = make([]int, s.slots)
	s.slotLoc = make([]int, s.slots)
	slot := 0
	for ni := range s.prog.Nests {
		base := s.prog.NestSlotOffset(s.procs, ni)
		next := s.slots
		if ni+1 < len(s.prog.Nests) {
			next = s.prog.NestSlotOffset(s.procs, ni+1)
		}
		for ; slot < next && slot >= base; slot++ {
			s.slotNest[slot] = ni
			s.slotLoc[slot] = slot - base
		}
	}
	// The compute cost of a nest body never varies per iteration: sum it
	// once here instead of walking n.Body on every (proc, slot).
	s.nestBodyCost = make([]sim.Duration, len(s.prog.Nests))
	for ni, n := range s.prog.Nests {
		var c sim.Duration
		for _, st := range n.Body {
			if st.Kind == loop.StmtCompute {
				c += st.Cost
			}
		}
		s.nestBodyCost[ni] = c
	}
}
