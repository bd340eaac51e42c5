package disk

import "sdds/internal/sim"

// numStateSlots sizes the per-state arrays: State values run from 1 to
// StateShiftingRPM, so index 0 stays unused.
const numStateSlots = int(StateShiftingRPM) + 1

// EnergyAccount integrates power over virtual time, attributing energy and
// residence time to each disk state. The disk calls setDraw on every state
// or RPM change; the account accumulates P·Δt joules since the last change.
type EnergyAccount struct {
	last      sim.Time
	drawW     float64
	state     State
	energyJ   [numStateSlots]float64
	timeBy    [numStateSlots]sim.Duration
	touched   uint16 // bit s set once state s has been charged
	totalJ    float64
	startTime sim.Time
}

// NewEnergyAccount returns an account beginning at time now in the given
// state drawing drawW watts.
func NewEnergyAccount(now sim.Time, state State, drawW float64) *EnergyAccount {
	return &EnergyAccount{
		last:      now,
		drawW:     drawW,
		state:     state,
		startTime: now,
	}
}

// validState reports whether s indexes the per-state arrays.
func validState(s State) bool { return s > 0 && int(s) < numStateSlots }

// accrue charges the elapsed interval at the current draw.
func (a *EnergyAccount) accrue(now sim.Time) {
	if now < a.last {
		return // defensive: never uncharge
	}
	dt := now - a.last
	j := a.drawW * dt.Seconds()
	if validState(a.state) {
		a.energyJ[a.state] += j
		a.timeBy[a.state] += dt
		a.touched |= 1 << a.state
	}
	a.totalJ += j
	a.last = now
}

// SetDraw transitions the account to a new state/draw at time now, charging
// the interval since the previous change at the previous draw.
func (a *EnergyAccount) SetDraw(now sim.Time, state State, drawW float64) {
	a.accrue(now)
	a.state = state
	a.drawW = drawW
}

// TotalJoules returns cumulative energy up to time now.
func (a *EnergyAccount) TotalJoules(now sim.Time) float64 {
	a.accrue(now)
	return a.totalJ
}

// JoulesIn returns energy attributed to one state up to now.
func (a *EnergyAccount) JoulesIn(now sim.Time, s State) float64 {
	a.accrue(now)
	if !validState(s) {
		return 0
	}
	return a.energyJ[s]
}

// TimeIn returns residence time in one state up to now.
func (a *EnergyAccount) TimeIn(now sim.Time, s State) sim.Duration {
	a.accrue(now)
	if !validState(s) {
		return 0
	}
	return a.timeBy[s]
}

// Elapsed returns total accounted time up to now.
func (a *EnergyAccount) Elapsed(now sim.Time) sim.Duration {
	a.accrue(now)
	return now - a.startTime
}

// Breakdown returns the per-state energy up to now, holding only the states
// the account has charged at least once.
func (a *EnergyAccount) Breakdown(now sim.Time) map[State]float64 {
	a.accrue(now)
	out := make(map[State]float64, numStateSlots)
	for s := State(1); int(s) < numStateSlots; s++ {
		if a.touched&(1<<s) != 0 {
			out[s] = a.energyJ[s]
		}
	}
	return out
}
