package disk

import (
	"errors"
	"fmt"

	"sdds/internal/fault"
	"sdds/internal/probe"
	"sdds/internal/sim"
)

// Op distinguishes reads from writes.
type Op int

// Request operations.
const (
	OpRead Op = iota + 1
	OpWrite
)

// String returns "read" or "write".
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return "invalid"
	}
}

// Request is one disk I/O. Done, if non-nil, is invoked when the media
// transfer completes — successfully or not: a transient injected fault
// surfaces as a non-nil Err on the completed request, and the submitter
// decides whether to resubmit. Submit clears Err, so reusing a request
// object for a retry needs no extra bookkeeping.
//
// The disk neither retains nor touches r once Done returns, so the
// submitter may recycle r (pool it, resubmit it, or reuse it for another
// request) from inside Done or any time after.
type Request struct {
	Op     Op
	Sector int64
	Bytes  int64
	Done   func(now sim.Time, r *Request)

	// Err is set before Done fires when the transfer failed (ErrTransient
	// under fault injection); nil on success.
	Err error

	// Filled in by the disk.
	Arrival  sim.Time
	Start    sim.Time // service start (seek begin)
	Finish   sim.Time // media transfer end
	cylinder int64
	media    sim.Duration // transfer duration, fixed at service start
}

// QueueDelay returns how long the request waited before service began.
func (r *Request) QueueDelay() sim.Duration { return r.Start - r.Arrival }

// Latency returns total request latency (arrival to completion).
func (r *Request) Latency() sim.Duration { return r.Finish - r.Arrival }

// Listener receives power-management hooks from a disk. Implementations are
// the power policies; hooks run synchronously inside the disk's event
// handlers on the engine goroutine.
type Listener interface {
	// RequestArrived fires on every request submission, before service is
	// attempted. The policy may issue control calls (SpinUp, SetTargetRPM)
	// from inside the hook.
	RequestArrived(d *Disk, now sim.Time)
	// IdleStarted fires when service completes and the queue is empty.
	IdleStarted(d *Disk, now sim.Time)
}

// IdleRecorder receives the length of every closed idle gap (completion of
// the last request to arrival of the next), the quantity whose CDF the paper
// plots in Fig. 12.
type IdleRecorder interface {
	RecordIdle(d *Disk, gap sim.Duration)
}

// Stats aggregates per-disk service counters.
type Stats struct {
	Arrived      int64
	Completed    int64
	BytesRead    int64
	BytesWritten int64
	QueueDelay   sim.Duration
	ServiceTime  sim.Duration
	SpinUps      int64
	SpinDowns    int64
	RPMShifts    int64
	IdleGaps     int64
	// QueueHighWater is the deepest the waiting queue ever got (excluding
	// the request in service).
	QueueHighWater int64
	// Fault-injection counters (all zero without an injector).
	TransientErrors int64 // completions that surfaced ErrTransient
	BadSectorRemaps int64 // transfers that paid the remap penalty
	SpinUpFailures  int64 // spin-up attempts that aborted and re-issued
	SpinUpDelays    int64 // spin-ups that paid the extra delay
}

// Control errors returned to power policies.
var (
	// ErrNotIdle is returned when a control action needs an idle disk.
	ErrNotIdle = errors.New("disk: not idle")
	// ErrNotStandby is returned by SpinUp when the disk is not stopped.
	ErrNotStandby = errors.New("disk: not in standby")
)

// ErrTransient marks an injected transient media error on a completed
// request: the transfer consumed its full service time but delivered
// nothing, and the submitter should retry.
var ErrTransient = errors.New("disk: transient media error")

// Disk is the device model. All methods must be called from the engine
// goroutine (i.e. inside event handlers).
type Disk struct {
	ID     int
	params Params
	eng    *sim.Engine

	state     State
	rpm       int
	targetRPM int
	rampFirst bool // serve only after reaching targetRPM

	queue   *elevator
	current *Request
	headCyl int64

	account  *EnergyAccount
	listener Listener
	recorder IdleRecorder

	idleGapOpen  bool
	idleGapStart sim.Time
	wantUp       bool       // spin up again once an in-flight spin-down completes
	transStart   sim.Time   // start of the in-flight spin transition
	transEvent   *sim.Event // completion event of the in-flight transition
	upSince      sim.Time   // when an upward RPM target became pending
	shiftTo      int        // speed the in-flight shift lands on

	// Callbacks bound once at construction so the service path schedules
	// without allocating a closure per event.
	transferCb sim.ArgHandler
	completeCb sim.ArgHandler
	spunUpFn   sim.Handler
	shiftedFn  sim.Handler
	standbyFn  sim.Handler
	spinFailFn sim.Handler

	// pr is the engine's flight recorder, cached at construction. Nil when
	// tracing is off; probe.Emit is nil-safe.
	pr *probe.Probe

	// flt is the engine's fault injector, cached at construction like the
	// probe. Nil when injection is off; Injector methods are nil-safe.
	flt *fault.Injector
	// spinFails counts consecutive failed spin-up attempts so a re-issue
	// storm is bounded by the injector's MaxRetries.
	spinFails int

	stats Stats
}

// New returns a disk spinning at full speed in the idle state.
func New(eng *sim.Engine, id int, p Params) (*Disk, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d := &Disk{
		ID:        id,
		params:    p,
		eng:       eng,
		state:     StateIdle,
		rpm:       p.MaxRPM,
		targetRPM: p.MaxRPM,
		queue:     newElevator(),
		pr:        eng.Probe(),
		flt:       eng.Faults(),
	}
	d.account = NewEnergyAccount(eng.Now(), StateIdle, p.IdlePowerAt(d.rpm))
	d.transferCb = d.onTransfer
	d.completeCb = d.onComplete
	d.spunUpFn = d.onSpunUp
	d.shiftedFn = d.onShifted
	d.standbyFn = d.onStandby
	d.spinFailFn = d.onSpinFail
	d.openIdleGap(eng.Now())
	return d, nil
}

// MustNew is New, panicking on invalid parameters (for tests and examples).
func MustNew(eng *sim.Engine, id int, p Params) *Disk {
	d, err := New(eng, id, p)
	if err != nil {
		panic(err)
	}
	return d
}

// Params returns the disk's configuration. It is the disk's own copy,
// returned by pointer so the per-request callers (the power policies) read
// fields without copying the struct: callers must not modify it.
func (d *Disk) Params() *Params { return &d.params }

// State returns the current power/activity state.
func (d *Disk) State() State { return d.state }

// RPM returns the current rotational speed (the speed being left, during a
// shift).
func (d *Disk) RPM() int { return d.rpm }

// TargetRPM returns the commanded rotational speed.
func (d *Disk) TargetRPM() int { return d.targetRPM }

// QueueLen returns the number of waiting requests (excluding any in
// service).
func (d *Disk) QueueLen() int { return d.queue.Len() }

// Busy reports whether a request is in service.
func (d *Disk) Busy() bool { return d.current != nil }

// Stats returns a copy of the service counters.
func (d *Disk) Stats() Stats { return d.stats }

// Energy returns the energy account (live; use its methods with the current
// time).
func (d *Disk) Energy() *EnergyAccount { return d.account }

// SetListener installs the power-policy hook receiver (may be nil).
func (d *Disk) SetListener(l Listener) { d.listener = l }

// SetIdleRecorder installs the idle-gap recorder (may be nil).
func (d *Disk) SetIdleRecorder(r IdleRecorder) { d.recorder = r }

// setState transitions the power state and re-bases energy accounting.
func (d *Disk) setState(now sim.Time, s State, drawW float64) {
	d.state = s
	d.account.SetDraw(now, s, drawW)
	d.pr.Emit(probe.KindDiskState, int32(d.ID), int64(now), int64(s))
}

func (d *Disk) openIdleGap(now sim.Time) {
	d.idleGapOpen = true
	d.idleGapStart = now
}

func (d *Disk) closeIdleGap(now sim.Time) {
	if !d.idleGapOpen {
		return
	}
	d.idleGapOpen = false
	d.stats.IdleGaps++
	if d.recorder != nil {
		d.recorder.RecordIdle(d, now-d.idleGapStart)
	}
}

// Submit enqueues a request. Service begins immediately if the disk is
// ready; otherwise the request waits for the spindle (spin-up, RPM shift) or
// for queued predecessors.
func (d *Disk) Submit(r *Request) error {
	if r.Bytes <= 0 {
		return fmt.Errorf("disk %d: request bytes %d must be positive", d.ID, r.Bytes) //sddsvet:ignore hotalloc -- error path: argument validation only
	}
	if r.Sector < 0 || r.Sector >= d.params.TotalSectors() {
		return fmt.Errorf("disk %d: sector %d out of range [0,%d)", d.ID, r.Sector, d.params.TotalSectors()) //sddsvet:ignore hotalloc -- error path: argument validation only
	}
	now := d.eng.Now()
	r.Arrival = now
	r.Err = nil
	r.cylinder = r.Sector / int64(d.params.SectorsPerCylinder)
	d.stats.Arrived++
	d.closeIdleGap(now)
	d.queue.Push(r)
	if depth := int64(d.queue.Len()); depth > d.stats.QueueHighWater {
		d.stats.QueueHighWater = depth
	}
	d.pr.Emit(probe.KindIOIssue, int32(d.ID), int64(now), r.Bytes)
	if d.listener != nil {
		d.listener.RequestArrived(d, now)
	}
	d.tryService(now)
	return nil
}

// tryService starts the next piece of work if the disk is able.
func (d *Disk) tryService(now sim.Time) {
	if d.current != nil {
		return
	}
	switch d.state {
	case StateSpinningDown:
		// A waiting request aborts the spin-down: the spindle reverses
		// from its current (partial) speed, so the recovery time is
		// proportional to how far the deceleration got.
		if d.queue.Len() > 0 {
			d.abortSpinDown(now)
		}
		return
	case StateSpinningUp, StateShiftingRPM:
		return // transition-complete handler will call back
	case StateStandby:
		if d.queue.Len() > 0 {
			d.beginSpinUp(now)
		}
		return
	case StateIdle:
		// An upward shift runs once the queue is empty, when the policy
		// demanded ramp-before-service, or after it has been deferred for
		// maxUpDefer — multi-speed disks serve at the current speed, but a
		// busy disk must not be trapped below the speed it needs to drain
		// its queue.
		if d.targetRPM > d.rpm &&
			(d.rampFirst || d.queue.Len() == 0 || now-d.upSince > maxUpDefer) {
			d.beginShift(now)
			return
		}
		// A pending downward ramp runs when idle (or when the policy
		// demanded ramp-before-service).
		if d.targetRPM < d.rpm && (d.rampFirst || d.queue.Len() == 0) {
			d.beginShift(now)
			return
		}
		if d.queue.Len() > 0 {
			d.beginRequest(now)
		}
	}
}

// beginRequest pops the elevator and runs seek → rotate → transfer.
//
//sddsvet:hotpath
func (d *Disk) beginRequest(now sim.Time) {
	r := d.queue.Pop(d.headCyl)
	if r == nil {
		return
	}
	d.current = r
	r.Start = now
	d.stats.QueueDelay += r.QueueDelay()

	dist := r.cylinder - d.headCyl
	if dist < 0 {
		dist = -dist
	}
	seek := d.params.SeekTime(dist)
	// Average rotational latency: half a revolution at the current speed.
	rot := d.params.FullRotation(d.rpm) / 2
	media := sim.Duration(float64(r.Bytes) / d.params.TransferRateAt(d.rpm))
	bus := sim.Duration(float64(r.Bytes) / (d.params.BusMBps * 1e6 / 1e6))
	if bus > media {
		media = bus // bus-limited transfer
	}
	// A bad-sector remap pays the redirection penalty on top of the
	// transfer: the sector is relocated, served, and the request succeeds.
	if d.flt.Hit(fault.SiteBadSector) {
		media += sim.Duration(d.flt.RemapLatencyUS())
		d.stats.BadSectorRemaps++
		d.pr.Emit(probe.KindFault, int32(fault.SiteBadSector), int64(now), int64(d.ID))
	}
	r.media = media
	d.headCyl = r.cylinder

	d.setState(now, StateSeeking, d.params.SeekPowerAt(d.rpm))
	d.eng.ScheduleArg(seek+rot, "disk.transfer", d.transferCb, r)
}

// onTransfer fires when seek+rotation finish: the media transfer begins at
// the power draw of the speed the disk is spinning at now.
//
//sddsvet:hotpath
func (d *Disk) onTransfer(t sim.Time, arg any) {
	r := arg.(*Request)
	d.setState(t, StateTransferring, d.params.ActivePowerAt(d.rpm))
	d.eng.ScheduleArg(r.media, "disk.complete", d.completeCb, r)
}

func (d *Disk) onComplete(t sim.Time, arg any) {
	d.completeRequest(t, arg.(*Request))
}

//sddsvet:hotpath
func (d *Disk) completeRequest(now sim.Time, r *Request) {
	r.Finish = now
	d.current = nil
	d.stats.Completed++
	d.pr.Emit(probe.KindIOComplete, int32(d.ID), int64(now), r.Bytes)
	d.stats.ServiceTime += now - r.Start
	// Transient media error: the transfer burned its service time but
	// delivered nothing. Surface it on the request and let the submitter
	// decide whether to resubmit (ionode retries with backoff).
	if (r.Op == OpRead && d.flt.Hit(fault.SiteDiskRead)) ||
		(r.Op == OpWrite && d.flt.Hit(fault.SiteDiskWrite)) {
		r.Err = ErrTransient
		d.stats.TransientErrors++
		site := fault.SiteDiskRead
		if r.Op == OpWrite {
			site = fault.SiteDiskWrite
		}
		d.pr.Emit(probe.KindFault, int32(site), int64(now), int64(d.ID))
	} else if r.Op == OpRead {
		d.stats.BytesRead += r.Bytes
	} else {
		d.stats.BytesWritten += r.Bytes
	}
	if d.queue.Len() > 0 {
		d.setState(now, StateIdle, d.params.IdlePowerAt(d.rpm))
		if r.Done != nil {
			r.Done(now, r)
		}
		d.tryService(now)
		return
	}
	// Queue drained: enter idle, open the gap, notify the policy.
	d.setState(now, StateIdle, d.params.IdlePowerAt(d.rpm))
	d.openIdleGap(now)
	if r.Done != nil {
		r.Done(now, r)
	}
	if d.listener != nil && d.current == nil && d.queue.Len() == 0 {
		d.listener.IdleStarted(d, now)
	}
	// The Done callback or the policy may have queued new work or commanded
	// a shift.
	d.tryService(now)
}

// SpinDown transitions an idle disk to standby. It fails with ErrNotIdle if
// the disk is serving, has queued work, or is already transitioning.
func (d *Disk) SpinDown() error {
	now := d.eng.Now()
	if d.state != StateIdle || d.current != nil || d.queue.Len() > 0 {
		return fmt.Errorf("%w: state=%v queue=%d", ErrNotIdle, d.state, d.queue.Len()) //sddsvet:ignore hotalloc -- error path: rejected transitions only
	}
	d.stats.SpinDowns++
	d.pr.Emit(probe.KindSpinDown, int32(d.ID), int64(now), 0)
	d.wantUp = false
	d.transStart = now
	d.setState(now, StateSpinningDown, d.params.SpinDownPowerW)
	d.transEvent = d.eng.Schedule(d.params.SpinDownTime, "disk.standby", d.standbyFn)
	return nil
}

func (d *Disk) onStandby(t sim.Time) {
	d.transEvent = nil
	d.setState(t, StateStandby, d.params.StandbyPowerW)
	d.rpm = 0
	if d.wantUp || d.queue.Len() > 0 {
		d.beginSpinUp(t)
	}
}

// abortSpinDown reverses an in-flight spin-down: the spin-up time is
// proportional to how far the spindle had decelerated.
//
//sddsvet:hotpath
func (d *Disk) abortSpinDown(now sim.Time) {
	if d.state != StateSpinningDown {
		return
	}
	if d.transEvent != nil {
		d.transEvent.Cancel()
		d.transEvent = nil
	}
	frac := float64(now-d.transStart) / float64(d.params.SpinDownTime)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	// The spindle coasts down: rotational speed decays slowly at first, so
	// the kinetic energy (∝ ω², Eq. 1) to recover grows quadratically with
	// deceleration progress, plus a fixed head-reload cost.
	const headReload = 300 * sim.Millisecond
	up := headReload + sim.Duration(frac*frac*float64(d.params.SpinUpTime))
	d.stats.SpinUps++
	d.pr.Emit(probe.KindSpinUp, int32(d.ID), int64(now), 1)
	d.wantUp = false
	d.setState(now, StateSpinningUp, d.params.SpinUpPowerW)
	d.eng.ScheduleFunc(up, "disk.abort-up", d.spunUpFn)
}

// onSpunUp completes both a normal spin-up and an aborted spin-down: the
// spindle lands at full speed, ready to serve.
func (d *Disk) onSpunUp(t sim.Time) {
	d.rpm = d.params.MaxRPM
	d.targetRPM = d.params.MaxRPM
	d.spinFails = 0
	d.setState(t, StateIdle, d.params.IdlePowerAt(d.rpm))
	d.tryService(t)
}

// SpinUp starts acceleration back to full speed. In standby it begins
// immediately; during a spin-down it aborts the deceleration and reverses
// from the partial speed; otherwise it returns ErrNotStandby.
func (d *Disk) SpinUp() error {
	switch d.state {
	case StateStandby:
		d.beginSpinUp(d.eng.Now())
		return nil
	case StateSpinningDown:
		d.abortSpinDown(d.eng.Now())
		return nil
	default:
		return fmt.Errorf("%w: state=%v", ErrNotStandby, d.state)
	}
}

//sddsvet:hotpath
func (d *Disk) beginSpinUp(now sim.Time) {
	d.stats.SpinUps++
	d.pr.Emit(probe.KindSpinUp, int32(d.ID), int64(now), 0)
	d.wantUp = false
	d.setState(now, StateSpinningUp, d.params.SpinUpPowerW)
	// Injected spin-up failure: the attempt aborts partway (half the nominal
	// acceleration time at spin-up power) and must be re-issued. Bounded by
	// MaxRetries consecutive failures so the spindle always comes up.
	if d.spinFails < d.flt.MaxRetries() && d.flt.Hit(fault.SiteSpinUpFail) {
		d.spinFails++
		d.stats.SpinUpFailures++
		d.pr.Emit(probe.KindFault, int32(fault.SiteSpinUpFail), int64(now), int64(d.ID))
		d.eng.ScheduleFunc(d.params.SpinUpTime/2, "disk.spinfail", d.spinFailFn)
		return
	}
	up := d.params.SpinUpTime
	// Injected spin-up delay: acceleration succeeds but takes longer.
	if d.flt.Hit(fault.SiteSpinUpDelay) {
		up += sim.Duration(d.flt.SpinUpDelayUS())
		d.stats.SpinUpDelays++
		d.pr.Emit(probe.KindFault, int32(fault.SiteSpinUpDelay), int64(now), int64(d.ID))
	}
	d.eng.ScheduleFunc(up, "disk.spunup", d.spunUpFn)
}

// onSpinFail lands a failed spin-up attempt back in standby and re-issues
// the spin-up (tryService path when work is queued, direct re-issue
// otherwise — the attempt was commanded, so the command stands).
func (d *Disk) onSpinFail(t sim.Time) {
	d.rpm = 0
	d.setState(t, StateStandby, d.params.StandbyPowerW)
	d.beginSpinUp(t)
}

// SetTargetRPM commands a rotational-speed change. rampFirst makes the disk
// finish the shift before serving queued or future requests (the staggered
// policy's return-to-full); otherwise requests are served at the current
// speed and the shift happens when the disk is idle (the history policy's
// low-speed service). The speed snaps to the nearest valid level.
func (d *Disk) SetTargetRPM(rpm int, rampFirst bool) error {
	if !d.state.Spinning() {
		return fmt.Errorf("%w: state=%v", ErrNotStandby, d.state) //sddsvet:ignore hotalloc -- error path: rejected transitions only
	}
	prev := d.targetRPM
	d.targetRPM = d.params.ClampRPM(rpm)
	d.rampFirst = rampFirst
	if d.targetRPM > d.rpm && prev <= d.rpm {
		d.upSince = d.eng.Now()
	}
	if d.state == StateIdle && d.current == nil && d.targetRPM != d.rpm {
		if d.rampFirst || d.queue.Len() == 0 {
			d.beginShift(d.eng.Now())
		}
	}
	return nil
}

//sddsvet:hotpath
func (d *Disk) beginShift(now sim.Time) {
	from, to := d.rpm, d.targetRPM
	if from == to {
		return
	}
	d.stats.RPMShifts++
	d.pr.Emit(probe.KindRPMShift, int32(d.ID), int64(now), int64(to))
	hi := from
	if to > hi {
		hi = to
	}
	// A speed transition draws slightly more than idling at the higher of
	// the two speeds (DRPM's transition model): deceleration is nearly
	// free, acceleration costs the differential kinetic energy.
	d.setState(now, StateShiftingRPM, 1.2*d.params.IdlePowerAt(hi))
	d.shiftTo = to
	d.eng.ScheduleFunc(d.params.RPMShiftTime(from, to), "disk.shifted", d.shiftedFn)
}

// onShifted lands on the speed the in-flight shift was computed for
// (d.shiftTo — only one shift is ever in flight); a target that moved
// mid-shift is handled by tryService.
func (d *Disk) onShifted(t sim.Time) {
	d.rpm = d.shiftTo
	d.setState(t, StateIdle, d.params.IdlePowerAt(d.rpm))
	// The target may have moved again while shifting (staggered step-down
	// interrupted by a ramp command) — tryService handles both another
	// shift and pending work.
	d.tryService(t)
}

// FlushIdleGap closes a trailing open idle gap at end-of-run so the final
// quiet period is counted in the CDF, matching how a finite simulation
// window truncates the last gap.
func (d *Disk) FlushIdleGap(now sim.Time) {
	d.closeIdleGap(now)
}

// maxUpDefer bounds how long an upward RPM shift may be postponed by a busy
// queue before it takes priority over service.
const maxUpDefer = 500 * sim.Millisecond
