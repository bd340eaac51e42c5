// Package disk models a server-class hard disk at the fidelity the paper's
// evaluation needs: seek/rotation/transfer mechanics, an elevator request
// queue, a power-state machine with spin-up/spin-down and multi-speed (DRPM)
// rotational transitions, and exact per-state energy integration.
//
// The default parameters reproduce Table II of the paper: a 100 GB,
// 12,000 RPM disk with 17.1 W idle, 36.6 W active, 32.1 W seek, 7.2 W
// standby and 44.8 W spin-up power, 16 s spin-up and 10 s spin-down times,
// and multi-speed operation from 3,600 RPM in 1,200 RPM steps with the
// quadratic power model Π = K·ω²/R (Eq. 1).
package disk

import (
	"fmt"
	"math"

	"sdds/internal/sim"
)

// Params configures a disk model. The zero value is not usable; start from
// DefaultParams.
type Params struct {
	// Geometry.
	CapacityGB         float64 // advertised capacity
	SectorSize         int     // bytes per sector
	SectorsPerCylinder int     // sectors in one cylinder (all surfaces)

	// Mechanics at maximum RPM.
	MaxRPM          int
	MinRPM          int // lowest multi-speed level
	RPMStep         int // granularity of multi-speed levels
	SeekBase        sim.Duration
	SeekFactor      float64      // µs added per sqrt(cylinder distance)
	MaxTransferMBps float64      // media rate at MaxRPM; scales linearly with RPM
	RPMStepTime     sim.Duration // time to shift one RPM step (no service meanwhile)

	// Power (Watts) at maximum RPM. Idle/Active/Seek scale quadratically
	// with RPM per Eq. 1; Standby and transition powers are constant.
	IdlePowerW     float64
	ActivePowerW   float64
	SeekPowerW     float64
	StandbyPowerW  float64
	SpinUpPowerW   float64
	SpinDownPowerW float64

	SpinUpTime   sim.Duration
	SpinDownTime sim.Duration

	// Bus between the I/O node and this disk (Ultra-3 SCSI in the paper).
	BusMBps float64
}

// DefaultParams returns the Table II disk configuration.
func DefaultParams() Params {
	return Params{
		CapacityGB:         100,
		SectorSize:         512,
		SectorsPerCylinder: 1024,
		MaxRPM:             12000,
		MinRPM:             3600,
		RPMStep:            1200,
		SeekBase:           sim.MilliToTime(1.0),
		SeekFactor:         25.0, // ≈4.5 ms average seek over 20k cylinders
		MaxTransferMBps:    65,
		RPMStepTime:        sim.MilliToTime(25), // per 1,200-RPM step (DRPM-class fast transitions)

		IdlePowerW:     17.1,
		ActivePowerW:   36.6,
		SeekPowerW:     32.1,
		StandbyPowerW:  7.2,
		SpinUpPowerW:   44.8,
		SpinDownPowerW: 14.0,
		SpinUpTime:     16 * sim.Second,
		SpinDownTime:   10 * sim.Second,
		BusMBps:        160, // Ultra-3 SCSI
	}
}

// Validate reports the first configuration problem, or nil.
func (p *Params) Validate() error {
	switch {
	case p.CapacityGB <= 0:
		return fmt.Errorf("disk: capacity %.1f GB must be positive", p.CapacityGB)
	case p.SectorSize <= 0:
		return fmt.Errorf("disk: sector size %d must be positive", p.SectorSize)
	case p.SectorsPerCylinder <= 0:
		return fmt.Errorf("disk: sectors per cylinder %d must be positive", p.SectorsPerCylinder)
	case p.MaxRPM <= 0:
		return fmt.Errorf("disk: max RPM %d must be positive", p.MaxRPM)
	case p.MinRPM <= 0 || p.MinRPM > p.MaxRPM:
		return fmt.Errorf("disk: min RPM %d must be in (0, %d]", p.MinRPM, p.MaxRPM)
	case p.RPMStep <= 0:
		return fmt.Errorf("disk: RPM step %d must be positive", p.RPMStep)
	case (p.MaxRPM-p.MinRPM)%p.RPMStep != 0:
		return fmt.Errorf("disk: RPM range %d..%d not divisible by step %d", p.MinRPM, p.MaxRPM, p.RPMStep)
	case p.MaxTransferMBps <= 0:
		return fmt.Errorf("disk: transfer rate %.1f MB/s must be positive", p.MaxTransferMBps)
	case p.SpinUpTime <= 0 || p.SpinDownTime <= 0:
		return fmt.Errorf("disk: spin-up/down times must be positive")
	case p.IdlePowerW <= 0 || p.ActivePowerW <= 0 || p.SeekPowerW <= 0:
		return fmt.Errorf("disk: operating powers must be positive")
	case p.StandbyPowerW < 0 || p.SpinUpPowerW <= 0 || p.SpinDownPowerW <= 0:
		return fmt.Errorf("disk: standby/transition powers invalid")
	case p.BusMBps <= 0:
		return fmt.Errorf("disk: bus rate %.1f MB/s must be positive", p.BusMBps)
	}
	return nil
}

// Levels returns the available rotational speeds, fastest first.
func (p *Params) Levels() []int {
	n := (p.MaxRPM-p.MinRPM)/p.RPMStep + 1
	levels := make([]int, 0, n)
	for rpm := p.MaxRPM; rpm >= p.MinRPM; rpm -= p.RPMStep {
		levels = append(levels, rpm)
	}
	return levels
}

// TotalSectors returns the number of addressable sectors.
func (p *Params) TotalSectors() int64 {
	return int64(p.CapacityGB * 1e9 / float64(p.SectorSize))
}

// Cylinders returns the number of cylinders implied by the geometry.
func (p *Params) Cylinders() int64 {
	c := p.TotalSectors() / int64(p.SectorsPerCylinder)
	if c < 1 {
		return 1
	}
	return c
}

// scale returns the quadratic power-scaling factor (rpm/max)² from Eq. 1.
func (p *Params) scale(rpm int) float64 {
	r := float64(rpm) / float64(p.MaxRPM)
	return r * r
}

// IdlePowerAt returns idle power at the given rotational speed.
func (p *Params) IdlePowerAt(rpm int) float64 { return p.IdlePowerW * p.scale(rpm) }

// ActivePowerAt returns read/write power at the given rotational speed.
func (p *Params) ActivePowerAt(rpm int) float64 { return p.ActivePowerW * p.scale(rpm) }

// SeekPowerAt returns seek power at the given rotational speed.
func (p *Params) SeekPowerAt(rpm int) float64 { return p.SeekPowerW * p.scale(rpm) }

// TransferRateAt returns the media rate in bytes/µs at the given speed. The
// media rate scales linearly with RPM (fixed bit density, slower linear
// velocity).
func (p *Params) TransferRateAt(rpm int) float64 {
	bytesPerSec := p.MaxTransferMBps * 1e6 * float64(rpm) / float64(p.MaxRPM)
	return bytesPerSec / 1e6 // bytes per microsecond
}

// FullRotation returns the duration of one platter revolution at rpm.
func (p *Params) FullRotation(rpm int) sim.Duration {
	if rpm <= 0 {
		return 0
	}
	return sim.Duration(60.0 * 1e6 / float64(rpm))
}

// SeekTime returns the head-movement time for a seek across dist cylinders.
func (p *Params) SeekTime(dist int64) sim.Duration {
	if dist <= 0 {
		return 0
	}
	return p.SeekBase + sim.Duration(p.SeekFactor*sqrtInt(dist))
}

// UpShiftFactor scales upward transitions relative to RPMStepTime:
// accelerating the spindle fights inertia with bounded motor torque, while
// decelerating largely coasts — the asymmetry behind the paper's remark
// that recovery from a very low speed "can be very long".
const UpShiftFactor = 4

// RPMShiftTime returns the time to move between two speeds (one step at a
// time, no service in between). Upward shifts cost UpShiftFactor× more per
// step than downward ones.
func (p *Params) RPMShiftTime(from, to int) sim.Duration {
	d := from - to
	up := false
	if d < 0 {
		d = -d
		up = true
	}
	t := sim.Duration(d/p.RPMStep) * p.RPMStepTime
	if up {
		t *= UpShiftFactor
	}
	return t
}

// ClampRPM snaps an arbitrary speed to the nearest valid level in
// [MinRPM, MaxRPM].
func (p *Params) ClampRPM(rpm int) int {
	if rpm >= p.MaxRPM {
		return p.MaxRPM
	}
	if rpm <= p.MinRPM {
		return p.MinRPM
	}
	// Snap to grid anchored at MinRPM.
	k := (rpm - p.MinRPM + p.RPMStep/2) / p.RPMStep
	return p.MinRPM + k*p.RPMStep
}

// sqrtInt returns the square root of a seek distance. It seeds the Newton
// iteration with math.Sqrt, which already lands on or next to the fixed
// point, and keeps the stopping rule of the x/2-seeded iteration the seek
// curves were recorded with (at most 20 steps, stop at the first step that
// returns g unchanged), so the result is bit-identical to it.
func sqrtInt(v int64) float64 {
	if v <= 0 {
		return 0
	}
	x := float64(v)
	g := math.Sqrt(x) // ≥ 1, so the x/2 seed's clamp to 1 is not needed
	for i := 0; i < 20; i++ {
		next := (g + x/g) / 2
		if next == g {
			break
		}
		g = next
	}
	return g
}
