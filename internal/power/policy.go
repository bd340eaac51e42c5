package power

import (
	"fmt"

	"sdds/internal/disk"
	"sdds/internal/probe"
	"sdds/internal/sim"
)

// Kind identifies one of the power-management mechanisms from §II.
type Kind int

// Policy kinds.
const (
	// KindDefault applies no power management (the paper's Default Scheme).
	KindDefault Kind = iota + 1
	// KindSimple spins the disk down after a fixed idle timeout.
	KindSimple
	// KindPredictive predicts the idle length, spins down immediately when
	// the prediction justifies it, and spins back up ahead of time.
	KindPredictive
	// KindHistory (multi-speed) predicts the idle length and drops to the
	// most appropriate RPM, returning to full speed ahead of time.
	KindHistory
	// KindStaggered (multi-speed) steps down one RPM level per continued
	// idle interval and ramps back to full speed when a request arrives.
	KindStaggered
)

var kindNames = map[Kind]string{
	KindDefault:    "default",
	KindSimple:     "simple",
	KindPredictive: "prediction-based",
	KindHistory:    "history-based",
	KindStaggered:  "staggered",
}

// String returns the policy name used in the paper's figures.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return "invalid"
}

// AllKinds lists the four managed policies plus Default, in figure order.
func AllKinds() []Kind {
	return []Kind{KindDefault, KindSimple, KindPredictive, KindHistory, KindStaggered}
}

// ManagedKinds lists the four power-saving mechanisms (Fig. 12(c)/(d) bars).
func ManagedKinds() []Kind {
	return []Kind{KindSimple, KindPredictive, KindHistory, KindStaggered}
}

// ParseKind maps a policy name (as printed by Kind.String, plus common
// short forms) back to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "default", "none":
		return KindDefault, nil
	case "simple", "spindown":
		return KindSimple, nil
	case "prediction-based", "prediction", "predictive":
		return KindPredictive, nil
	case "history-based", "history":
		return KindHistory, nil
	case "staggered":
		return KindStaggered, nil
	}
	return 0, fmt.Errorf("power: unknown policy %q", s)
}

// Config tunes the policies. Zero fields take the paper's defaults
// (§V-A): 50 ms spin-down/stagger timeout and predictions bounding the
// performance penalty.
type Config struct {
	// Kind selects the mechanism.
	Kind Kind
	// Timeout is the Simple policy's idle wait before spinning down and the
	// Staggered policy's wait between speed steps (x and x1 in the paper;
	// both default to 50 ms).
	Timeout sim.Duration
	// Alpha is the EWMA smoothing factor for idle-length prediction.
	Alpha float64
	// BreakEvenScale multiplies the energy break-even time used by the
	// Predictive policy as its spin-down threshold. The default of 0.5
	// accepts predictions somewhat below exact break-even: the EWMA
	// under-predicts long idle phases, and acting on those predictions is
	// what makes the mechanism pay off (§II).
	BreakEvenScale float64
	// HistoryMargin scales the round-trip RPM transition time when mapping
	// a predicted idle length to a speed level; larger margins are more
	// conservative (bounding the performance penalty, §V-A's 4%).
	HistoryMargin float64
	// Cooldown is how long the Simple policy waits after an aborted
	// spin-down (a request arrived mid-transition) before attempting
	// another. Without it the fixed 50 ms timeout thrashes on workloads
	// with many sub-break-even idle periods; adaptive spin-down of this
	// kind follows Douglis et al. [19]. Defaults to 60 s.
	Cooldown sim.Duration
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Timeout == 0 {
		c.Timeout = sim.MilliToTime(50)
	}
	if c.Alpha == 0 {
		c.Alpha = 0.7
	}
	if c.BreakEvenScale == 0 {
		c.BreakEvenScale = 0.5
	}
	if c.HistoryMargin == 0 {
		c.HistoryMargin = 4.0
	}
	if c.Cooldown == 0 {
		c.Cooldown = 60 * sim.Second
	}
	return c
}

// Stats counts a policy's prediction outcomes over a run. A wrong
// prediction is a request that found the disk mid-transition or below full
// speed (the performance penalty §V attributes to each scheme); a
// pre-activation is an ahead-of-time wake or ramp timer that fired while
// the disk was still idle.
type Stats struct {
	WrongPredictions int64
	PreActivations   int64
}

// StatsReporter is implemented by policies that track prediction outcomes.
// The Default policy makes no predictions and does not implement it.
type StatsReporter interface {
	PolicyStats() Stats
}

// Policy is a per-disk power manager. It is installed as the disk's
// listener by Attach.
type Policy interface {
	disk.Listener
	// Kind returns the mechanism this policy implements.
	Kind() Kind
	// Attach binds the policy to its disk and installs the listener.
	Attach(d *disk.Disk)
}

// engageIfIdle treats attach time as an idle start so disks that receive no
// requests at all (e.g. lightly used RAID members) are still managed from
// t=0 rather than burning full idle power until their first request.
func engageIfIdle(l disk.Listener, d *disk.Disk, eng *sim.Engine) {
	if d.State() == disk.StateIdle && !d.Busy() && d.QueueLen() == 0 {
		l.IdleStarted(d, eng.Now())
	}
}

// New constructs a policy of the configured kind bound to the engine.
func New(eng *sim.Engine, cfg Config) (Policy, error) {
	cfg = cfg.withDefaults()
	switch cfg.Kind {
	case KindDefault:
		return &defaultPolicy{}, nil
	case KindSimple:
		return &simplePolicy{eng: eng, cfg: cfg}, nil
	case KindPredictive:
		return &predictivePolicy{eng: eng, cfg: cfg, ewma: NewEWMA(cfg.Alpha)}, nil
	case KindHistory:
		return &historyPolicy{eng: eng, cfg: cfg, ewma: NewEWMA(cfg.Alpha)}, nil
	case KindStaggered:
		return &staggeredPolicy{eng: eng, cfg: cfg}, nil
	default:
		return nil, fmt.Errorf("power: invalid policy kind %d", cfg.Kind)
	}
}

// MustNew is New, panicking on error (tests, examples).
func MustNew(eng *sim.Engine, cfg Config) Policy {
	p, err := New(eng, cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// BreakEvenIdle returns the idle duration at which spinning down exactly
// pays for itself energetically: spin-down + standby + spin-up consume the
// same energy as staying idle at full speed.
func BreakEvenIdle(p *disk.Params) sim.Duration {
	transJ := p.SpinDownPowerW*p.SpinDownTime.Seconds() + p.SpinUpPowerW*p.SpinUpTime.Seconds()
	standbyDuringTrans := p.StandbyPowerW * (p.SpinDownTime + p.SpinUpTime).Seconds()
	num := transJ - standbyDuringTrans
	den := p.IdlePowerW - p.StandbyPowerW
	if den <= 0 {
		return 1 << 62 // never worth it
	}
	return sim.Duration(num / den * float64(sim.Second))
}

// ---------------------------------------------------------------------------
// Default: no power management.

type defaultPolicy struct{}

func (*defaultPolicy) Kind() Kind                          { return KindDefault }
func (*defaultPolicy) Attach(d *disk.Disk)                 { d.SetListener(nil) }
func (*defaultPolicy) RequestArrived(*disk.Disk, sim.Time) {}
func (*defaultPolicy) IdleStarted(*disk.Disk, sim.Time)    {}

// ---------------------------------------------------------------------------
// Simple: spin down after a fixed timeout (Fig. 2).

type simplePolicy struct {
	eng           *sim.Engine
	cfg           Config
	timer         *sim.Event
	timeoutFn     sim.Handler // bound once at Attach
	cooldownUntil sim.Time
	stats         Stats
}

func (p *simplePolicy) Kind() Kind { return KindSimple }

func (p *simplePolicy) PolicyStats() Stats { return p.stats }

func (p *simplePolicy) Attach(d *disk.Disk) {
	p.timeoutFn = func(sim.Time) {
		// The disk may have become busy at exactly the firing timestamp;
		// SpinDown refuses and we simply re-arm on the next idle start.
		_ = d.SpinDown()
	}
	d.SetListener(p)
	engageIfIdle(p, d, p.eng)
}

//sddsvet:hotpath
func (p *simplePolicy) IdleStarted(d *disk.Disk, now sim.Time) {
	if now < p.cooldownUntil {
		return
	}
	p.cancelTimer()
	p.timer = p.eng.Schedule(p.cfg.Timeout, "power.simple.timeout", p.timeoutFn)
}

func (p *simplePolicy) RequestArrived(d *disk.Disk, now sim.Time) {
	p.cancelTimer()
	// A request that lands mid-transition means the spin-down was a
	// mistake; back off before trying again.
	if s := d.State(); s == disk.StateSpinningDown || s == disk.StateSpinningUp {
		p.cooldownUntil = now + p.cfg.Cooldown
		p.stats.WrongPredictions++
		p.eng.Probe().Emit(probe.KindWrongPredict, int32(d.ID), int64(now), 0)
	}
}

func (p *simplePolicy) cancelTimer() {
	if p.timer != nil {
		p.timer.Cancel()
		p.timer = nil
	}
}

// ---------------------------------------------------------------------------
// Prediction-Based: predict idle length; spin down immediately when the
// prediction exceeds the (scaled) break-even; spin up ahead of time so the
// disk is ready when the next request is expected.

type predictivePolicy struct {
	eng  *sim.Engine
	cfg  Config
	ewma *EWMA

	idleStart     sim.Time
	idling        bool
	wakeTimer     *sim.Event
	wakeFn        sim.Handler // bound once at Attach
	lastGap       sim.Duration
	cooldownUntil sim.Time
	stats         Stats
}

func (p *predictivePolicy) Kind() Kind { return KindPredictive }

func (p *predictivePolicy) PolicyStats() Stats { return p.stats }

func (p *predictivePolicy) Attach(d *disk.Disk) {
	p.wakeFn = func(now sim.Time) {
		// SpinUp errors when a request already woke the disk; only the
		// successful ahead-of-time wake counts as a pre-activation.
		if d.SpinUp() == nil {
			p.stats.PreActivations++
			p.eng.Probe().Emit(probe.KindPreActivation, int32(d.ID), int64(now), 0)
		}
	}
	d.SetListener(p)
	engageIfIdle(p, d, p.eng)
}

//sddsvet:hotpath
func (p *predictivePolicy) IdleStarted(d *disk.Disk, now sim.Time) {
	p.idleStart = now
	p.idling = true
	if now < p.cooldownUntil {
		return
	}
	pred, ok := p.ewma.Predict()
	if !ok {
		return
	}
	threshold := float64(BreakEvenIdle(d.Params())) * p.cfg.BreakEvenScale
	if pred < threshold {
		return
	}
	if err := d.SpinDown(); err != nil {
		return
	}
	// Wake ahead of time: the spin-up should complete right when the next
	// request is predicted, hiding its latency. The EWMA damps long phases,
	// so the wake time also considers the most recent gap — waking at the
	// damped average would surface the disk long before a repeated long
	// idle period ends, wasting most of the standby window. Never wake
	// before the spin-down itself completes.
	horizon := sim.Duration(pred)
	if p.lastGap > horizon {
		horizon = p.lastGap
	}
	wake := horizon - d.Params().SpinUpTime
	// Never wake before the energy break-even point: surfacing earlier
	// guarantees the spin-down loses energy, and the whole point of acting
	// on the prediction was the saving. If the request beats the wake
	// timer, the latency cost is the same one the Simple policy pays.
	if floor := BreakEvenIdle(d.Params()); wake < floor {
		wake = floor
	}
	if wake < d.Params().SpinDownTime {
		wake = d.Params().SpinDownTime
	}
	p.cancelWake()
	p.wakeTimer = p.eng.Schedule(wake, "power.predictive.wake", p.wakeFn)
}

func (p *predictivePolicy) RequestArrived(d *disk.Disk, now sim.Time) {
	p.cancelWake()
	if p.idling {
		p.idling = false
		gap := now - p.idleStart
		p.lastGap = gap
		p.ewma.Observe(float64(gap))
	}
	// A request landing mid-transition means the spin-down was wrong;
	// back off as the Simple policy does.
	if s := d.State(); s == disk.StateSpinningDown || s == disk.StateSpinningUp {
		p.cooldownUntil = now + p.cfg.Cooldown
		p.stats.WrongPredictions++
		p.eng.Probe().Emit(probe.KindWrongPredict, int32(d.ID), int64(now), 0)
	}
}

func (p *predictivePolicy) cancelWake() {
	if p.wakeTimer != nil {
		p.wakeTimer.Cancel()
		p.wakeTimer = nil
	}
}

// ---------------------------------------------------------------------------
// History-Based multi-speed (Fig. 3(a)): predict the idle length, jump to
// the most appropriate RPM level, return to full speed ahead of time. A
// wrong prediction costs either energy (idle ended early, served slow) or
// performance, exactly as the paper notes.

type historyPolicy struct {
	eng  *sim.Engine
	cfg  Config
	ewma *EWMA

	idleStart sim.Time
	idling    bool
	rampTimer *sim.Event
	reviseFn  sim.Handler // bound once at Attach; shared by ramp and revise
	stats     Stats
}

func (p *historyPolicy) Kind() Kind { return KindHistory }

func (p *historyPolicy) PolicyStats() Stats { return p.stats }

func (p *historyPolicy) Attach(d *disk.Disk) {
	p.reviseFn = func(now sim.Time) {
		if d.Busy() || d.QueueLen() > 0 {
			return
		}
		// Still idle when the timer fires: the idle period is provably
		// longer than the working prediction, so revise upward instead of
		// surfacing to full speed for the rest of a long gap.
		p.stats.PreActivations++
		p.eng.Probe().Emit(probe.KindPreActivation, int32(d.ID), int64(now), 0)
		p.engage(d, 2*(now-p.idleStart))
	}
	d.SetListener(p)
	engageIfIdle(p, d, p.eng)
}

// chooseRPM returns the lowest speed whose round-trip transition cost,
// scaled by the safety margin, fits inside the predicted idle period: the
// speed that "saves maximum energy while keeping the performance impact
// bounded".
func (p *historyPolicy) chooseRPM(params *disk.Params, predicted sim.Duration) int {
	best := params.MaxRPM
	// Step through params.Levels() fastest-first without building it.
	for rpm := params.MaxRPM; rpm >= params.MinRPM; rpm -= params.RPMStep {
		roundTrip := params.RPMShiftTime(params.MaxRPM, rpm) * 2
		if float64(roundTrip)*p.cfg.HistoryMargin <= float64(predicted) {
			best = rpm // levels are fastest-first; keep descending
		}
	}
	return best
}

//sddsvet:hotpath
func (p *historyPolicy) IdleStarted(d *disk.Disk, now sim.Time) {
	p.idleStart = now
	p.idling = true
	pred, ok := p.ewma.Predict()
	if !ok {
		return
	}
	p.engage(d, sim.Duration(pred))
}

// engage drops to the speed the working prediction admits and arms the
// revision timer. When the timer fires with the disk still idle, the idle
// period is provably longer than predicted: the policy doubles the working
// prediction (possibly dropping deeper) rather than ramping up — only a
// request, or a prediction that proves accurate, brings the disk back to
// full speed ahead of time.
//
//sddsvet:hotpath
func (p *historyPolicy) engage(d *disk.Disk, pred sim.Duration) {
	params := d.Params()
	target := p.chooseRPM(params, pred)
	if target < d.TargetRPM() {
		if err := d.SetTargetRPM(target, false); err != nil {
			return
		}
	} else {
		target = d.TargetRPM()
	}
	if target <= params.MinRPM {
		// Already at the floor: nothing deeper to gain, so park until the
		// next request restores full speed (ends the revision chain — the
		// event queue must drain at end of run).
		p.cancelRamp()
		return
	}
	if target >= params.MaxRPM {
		// Nothing gained at full speed. Re-check only when the prediction
		// is substantial — probing every sub-second idle start would drag
		// dense I/O phases through pointless shifts.
		if pred >= 500*sim.Millisecond {
			p.armRevision(d, pred)
		}
		return
	}
	// Plan the return to full speed just ahead of the predicted idle end.
	backShift := params.RPMShiftTime(target, params.MaxRPM)
	lead := sim.Duration(0.85*float64(pred)) - backShift
	elapsed := p.eng.Now() - p.idleStart
	down := params.RPMShiftTime(params.MaxRPM, target)
	if lead < elapsed+down {
		lead = elapsed + down
	}
	p.cancelRamp()
	p.rampTimer = p.eng.Schedule(lead-elapsed, "power.history.ramp", p.reviseFn)
}

// armRevision re-checks an unengaged idle period after the predicted
// length passes. Revisions stop once the working prediction exceeds a
// generous bound — by then the disk is as low as it will go and the chain
// must terminate so the event queue can drain.
func (p *historyPolicy) armRevision(d *disk.Disk, pred sim.Duration) {
	if pred <= 0 {
		pred = sim.MilliToTime(100)
	}
	if pred > 30*sim.Minute {
		return
	}
	p.cancelRamp()
	p.rampTimer = p.eng.Schedule(pred, "power.history.revise", p.reviseFn)
}

func (p *historyPolicy) RequestArrived(d *disk.Disk, now sim.Time) {
	p.cancelRamp()
	if p.idling {
		p.idling = false
		p.ewma.Observe(float64(now - p.idleStart))
	}
	// Wrong prediction: the request finds the disk below full speed. It is
	// served at the current speed (the performance loss the paper
	// describes); the disk returns to full speed at the next idle moment.
	if d.TargetRPM() != d.Params().MaxRPM {
		p.stats.WrongPredictions++
		p.eng.Probe().Emit(probe.KindWrongPredict, int32(d.ID), int64(now), 0)
		_ = d.SetTargetRPM(d.Params().MaxRPM, false)
	}
}

func (p *historyPolicy) cancelRamp() {
	if p.rampTimer != nil {
		p.rampTimer.Cancel()
		p.rampTimer = nil
	}
}

// ---------------------------------------------------------------------------
// Staggered multi-speed (Fig. 3(b)): on idleness, drop to the second-fastest
// speed; every further Timeout of continued idleness, drop another level;
// on the next request, ramp back to the fastest speed before serving.

type staggeredPolicy struct {
	eng    *sim.Engine
	cfg    Config
	timer  *sim.Event
	stepFn sim.Handler // bound once at Attach
	stats  Stats
}

func (p *staggeredPolicy) Kind() Kind { return KindStaggered }

func (p *staggeredPolicy) PolicyStats() Stats { return p.stats }

func (p *staggeredPolicy) Attach(d *disk.Disk) {
	p.stepFn = func(sim.Time) { p.stepDown(d) }
	d.SetListener(p)
	engageIfIdle(p, d, p.eng)
}

func (p *staggeredPolicy) IdleStarted(d *disk.Disk, _ sim.Time) {
	// The first step fires only once idleness persists for the detection
	// timeout; each further step needs another x1 of continued idleness.
	p.cancelTimer()
	p.timer = p.eng.Schedule(p.cfg.Timeout, "power.staggered.first", p.stepFn)
}

// stepDown lowers the target one level and arms the next step.
//
//sddsvet:hotpath
func (p *staggeredPolicy) stepDown(d *disk.Disk) {
	params := d.Params()
	next := d.TargetRPM() - params.RPMStep
	if next < params.MinRPM {
		return
	}
	if err := d.SetTargetRPM(next, false); err != nil {
		return
	}
	p.cancelTimer()
	p.timer = p.eng.Schedule(p.cfg.Timeout, "power.staggered.step", p.stepFn)
}

func (p *staggeredPolicy) RequestArrived(d *disk.Disk, now sim.Time) {
	p.cancelTimer()
	if d.TargetRPM() != d.Params().MaxRPM || d.RPM() != d.Params().MaxRPM {
		p.stats.WrongPredictions++
		p.eng.Probe().Emit(probe.KindWrongPredict, int32(d.ID), int64(now), 0)
		// Back to the fastest speed. Service proceeds at the current speed
		// while the (slow, UpShiftFactor×) recovery is pending — the disk
		// model forces the ramp after at most maxUpDefer of continued
		// service, which is the recovery penalty the paper attributes to
		// this scheme.
		_ = d.SetTargetRPM(d.Params().MaxRPM, false)
	}
}

func (p *staggeredPolicy) cancelTimer() {
	if p.timer != nil {
		p.timer.Cancel()
		p.timer = nil
	}
}

// ---------------------------------------------------------------------------
// Oracle: a wrapper that receives the true length of each idle period from
// an external hint source (a previous run's trace). Used by the ablation
// benchmarks to bound how much better perfect prediction could do.

// HintSource supplies the true upcoming idle length at each idle start.
type HintSource interface {
	// NextIdle returns the actual duration of the idle period beginning
	// now, and false when unknown.
	NextIdle(diskID int, now sim.Time) (sim.Duration, bool)
}

// Oracle is a History-style multi-speed policy driven by perfect hints.
type Oracle struct {
	eng    *sim.Engine
	cfg    Config
	hints  HintSource
	margin float64
	rampFn sim.Handler // bound once at Attach
	stats  Stats
}

// PolicyStats reports the oracle's prediction outcomes.
func (o *Oracle) PolicyStats() Stats { return o.stats }

// NewOracle returns an oracle policy using hints for idle lengths.
func NewOracle(eng *sim.Engine, cfg Config, hints HintSource) *Oracle {
	cfg = cfg.withDefaults()
	return &Oracle{eng: eng, cfg: cfg, hints: hints, margin: 1.0}
}

// Kind reports KindHistory: the oracle is the history mechanism with a
// perfect predictor.
func (o *Oracle) Kind() Kind { return KindHistory }

// Attach installs the oracle as the disk's listener.
func (o *Oracle) Attach(d *disk.Disk) {
	o.rampFn = func(now sim.Time) {
		o.stats.PreActivations++
		o.eng.Probe().Emit(probe.KindPreActivation, int32(d.ID), int64(now), 0)
		_ = d.SetTargetRPM(d.Params().MaxRPM, false)
	}
	d.SetListener(o)
	engageIfIdle(o, d, o.eng)
}

// IdleStarted drops straight to the best speed the true idle length admits.
//
//sddsvet:hotpath
func (o *Oracle) IdleStarted(d *disk.Disk, now sim.Time) {
	gap, ok := o.hints.NextIdle(d.ID, now)
	if !ok {
		return
	}
	params := d.Params()
	best := params.MaxRPM
	for rpm := params.MaxRPM; rpm >= params.MinRPM; rpm -= params.RPMStep {
		roundTrip := params.RPMShiftTime(params.MaxRPM, rpm) + params.RPMShiftTime(rpm, params.MaxRPM)
		if float64(roundTrip)*o.margin <= float64(gap) {
			best = rpm
		}
	}
	if best >= d.TargetRPM() {
		return
	}
	if err := d.SetTargetRPM(best, false); err != nil {
		return
	}
	back := params.RPMShiftTime(best, params.MaxRPM)
	lead := gap - back
	if lead < 0 {
		lead = 0
	}
	o.eng.ScheduleFunc(lead, "power.oracle.ramp", o.rampFn)
}

// RequestArrived restores full speed if a hint was wrong (should not happen
// with a faithful trace).
func (o *Oracle) RequestArrived(d *disk.Disk, now sim.Time) {
	if d.TargetRPM() != d.Params().MaxRPM {
		o.stats.WrongPredictions++
		o.eng.Probe().Emit(probe.KindWrongPredict, int32(d.ID), int64(now), 0)
		_ = d.SetTargetRPM(d.Params().MaxRPM, false)
	}
}
