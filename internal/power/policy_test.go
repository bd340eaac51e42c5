package power

import (
	"math"
	"testing"
	"testing/quick"

	"sdds/internal/disk"
	"sdds/internal/sim"
)

func newRig(t *testing.T, kind Kind) (*sim.Engine, *disk.Disk, Policy) {
	t.Helper()
	eng := sim.NewEngine(1)
	d := disk.MustNew(eng, 0, disk.DefaultParams())
	p, err := New(eng, Config{Kind: kind})
	if err != nil {
		t.Fatal(err)
	}
	p.Attach(d)
	return eng, d, p
}

// fire submits a tiny read and drains the engine (including any policy
// timers that follow the completion).
func fire(t *testing.T, eng *sim.Engine, d *disk.Disk) {
	t.Helper()
	if err := d.Submit(&disk.Request{Op: disk.OpRead, Sector: 0, Bytes: 4096}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
}

// fireStep submits a tiny read and steps the engine only until the request
// completes, leaving policy timers pending. Use it to observe the state the
// policy establishes *at* idle start.
func fireStep(t *testing.T, eng *sim.Engine, d *disk.Disk) {
	t.Helper()
	done := false
	r := &disk.Request{Op: disk.OpRead, Sector: 0, Bytes: 4096, Done: func(sim.Time, *disk.Request) { done = true }}
	if err := d.Submit(r); err != nil {
		t.Fatal(err)
	}
	for !done {
		if !eng.Step() {
			t.Fatal("engine drained before request completion")
		}
	}
}

func TestKindString(t *testing.T) {
	for _, k := range AllKinds() {
		if k.String() == "invalid" {
			t.Errorf("kind %d has no name", k)
		}
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind accepted bogus name")
	}
	if Kind(99).String() != "invalid" {
		t.Error("unknown kind must stringify as invalid")
	}
}

func TestNewRejectsInvalidKind(t *testing.T) {
	if _, err := New(sim.NewEngine(1), Config{Kind: Kind(42)}); err == nil {
		t.Fatal("New accepted invalid kind")
	}
}

func TestManagedKindsExcludesDefault(t *testing.T) {
	for _, k := range ManagedKinds() {
		if k == KindDefault {
			t.Fatal("ManagedKinds contains default")
		}
	}
	if len(ManagedKinds()) != 4 {
		t.Fatalf("len(ManagedKinds()) = %d, want 4", len(ManagedKinds()))
	}
}

func TestBreakEvenIdle(t *testing.T) {
	p := disk.DefaultParams()
	be := BreakEvenIdle(&p)
	// Hand computation with Table II numbers:
	// (14·10 + 44.8·16 − 7.2·26) / (17.1 − 7.2) ≈ 67.6 s.
	want := (14.0*10 + 44.8*16 - 7.2*26) / (17.1 - 7.2)
	if math.Abs(be.Seconds()-want) > 0.01 {
		t.Fatalf("BreakEvenIdle = %v s, want %.2f s", be.Seconds(), want)
	}
	// Degenerate: standby draws as much as idle → never worth it.
	p.StandbyPowerW = p.IdlePowerW
	if BreakEvenIdle(&p) < sim.Duration(1)<<61 {
		t.Fatal("break-even with no standby saving should be effectively infinite")
	}
}

func TestDefaultPolicyNeverTouchesDisk(t *testing.T) {
	eng, d, _ := newRig(t, KindDefault)
	fire(t, eng, d)
	eng.RunUntil(eng.Now() + 10*sim.Minute)
	if d.State() != disk.StateIdle || d.RPM() != d.Params().MaxRPM {
		t.Fatalf("default policy changed disk state: %v @%d RPM", d.State(), d.RPM())
	}
	if s := d.Stats(); s.SpinDowns != 0 || s.RPMShifts != 0 {
		t.Fatalf("default policy issued transitions: %+v", s)
	}
}

func TestSimpleSpinsDownAfterTimeout(t *testing.T) {
	eng, d, _ := newRig(t, KindSimple)
	fire(t, eng, d) // completion starts the idle timer
	eng.RunUntil(eng.Now() + sim.Minute)
	if d.State() != disk.StateStandby {
		t.Fatalf("state = %v, want standby after timeout", d.State())
	}
	if d.Stats().SpinDowns != 1 {
		t.Fatalf("SpinDowns = %d", d.Stats().SpinDowns)
	}
}

func TestSimpleTimerCancelledByArrival(t *testing.T) {
	eng, d, _ := newRig(t, KindSimple)
	fireStep(t, eng, d)
	idleStart := eng.Now()
	// New request 10 ms after completion: inside the 50 ms timeout. It
	// cancels the armed timer and re-arms a fresh one at its own completion.
	eng.Schedule(sim.MilliToTime(10), "again", func(sim.Time) {
		_ = d.Submit(&disk.Request{Op: disk.OpRead, Sector: 0, Bytes: 4096})
	})
	// At +45 ms the original timer would have fired (at +50 ms it would be
	// due); the re-armed one is not yet due.
	eng.RunUntil(idleStart + sim.MilliToTime(45))
	if d.Stats().SpinDowns != 0 {
		t.Fatal("cancelled timeout still spun the disk down")
	}
	eng.RunUntil(eng.Now() + 2*sim.Minute)
	if d.State() != disk.StateStandby {
		t.Fatal("re-armed timer never spun the disk down")
	}
}

func TestPredictiveNoSpinDownWithoutHistory(t *testing.T) {
	eng, d, _ := newRig(t, KindPredictive)
	fire(t, eng, d)
	eng.RunUntil(eng.Now() + sim.Minute)
	if d.Stats().SpinDowns != 0 {
		t.Fatal("predictive policy spun down with no observed idle periods")
	}
}

func TestPredictiveSpinsDownOnLongPrediction(t *testing.T) {
	eng, d, _ := newRig(t, KindPredictive)
	be := BreakEvenIdle(d.Params())
	// Teach it one long idle period (2× break-even), then go idle again.
	fireStep(t, eng, d)
	eng.RunUntil(eng.Now() + 2*be)
	fireStep(t, eng, d) // observes the 2×be gap; disk idles again now
	if d.State() == disk.StateIdle {
		// The policy should have initiated a spin-down immediately at idle
		// start (no timeout wait).
		t.Fatalf("predictive policy did not spin down at idle start")
	}
	eng.RunUntil(eng.Now() + d.Params().SpinDownTime + sim.Second)
	if d.Stats().SpinDowns != 1 {
		t.Fatalf("SpinDowns = %d, want 1", d.Stats().SpinDowns)
	}
}

func TestPredictiveWakesAheadOfTime(t *testing.T) {
	eng, d, _ := newRig(t, KindPredictive)
	be := BreakEvenIdle(d.Params())
	gap := 2 * be
	fireStep(t, eng, d)
	eng.RunUntil(eng.Now() + gap)
	fireStep(t, eng, d) // gap observed; spin-down begins
	idleStart := eng.Now()
	// No request ever arrives; the wake timer should spin the disk back up
	// around idleStart + gap − spinUpTime.
	eng.RunUntil(idleStart + gap + sim.Second)
	if d.Stats().SpinUps == 0 {
		t.Fatal("predictive policy never proactively spun up")
	}
	if d.State() != disk.StateIdle && d.State() != disk.StateSpinningUp {
		t.Fatalf("state = %v at predicted idle end", d.State())
	}
}

func TestPredictiveShortPredictionNoSpinDown(t *testing.T) {
	eng, d, _ := newRig(t, KindPredictive)
	// Teach it a short gap (1 ms).
	fire(t, eng, d)
	eng.RunUntil(eng.Now() + sim.Millisecond)
	fire(t, eng, d)
	eng.RunUntil(eng.Now() + sim.Minute)
	if d.Stats().SpinDowns != 0 {
		t.Fatal("spun down despite short predicted idleness")
	}
}

func TestHistoryDropsRPMAndRecoversOnRequest(t *testing.T) {
	eng, d, _ := newRig(t, KindHistory)
	// Teach a 30 s idle period.
	fireStep(t, eng, d)
	eng.RunUntil(eng.Now() + 30*sim.Second)
	fireStep(t, eng, d) // observe; disk idles again
	// Immediately after idle start the policy should command a lower speed.
	if d.TargetRPM() >= d.Params().MaxRPM {
		t.Fatalf("target RPM = %d, want below max", d.TargetRPM())
	}
	// The disk stays low while idleness persists (revision, not ramp-up);
	// the next request restores full speed as the target.
	eng.RunUntil(eng.Now() + 31*sim.Second)
	if d.RPM() >= d.Params().MaxRPM {
		t.Fatalf("RPM = %d during continued idleness, want below max", d.RPM())
	}
	fireStep(t, eng, d)
	if d.Stats().RPMShifts < 1 {
		t.Fatalf("RPMShifts = %d, want ≥1", d.Stats().RPMShifts)
	}
	// The request restored the full-speed target; the policy may re-park
	// afterwards, but the drop itself must have engaged.
	if d.TargetRPM() >= d.Params().MaxRPM {
		t.Fatalf("policy did not re-engage after service: target %d", d.TargetRPM())
	}
}

func TestHistoryChooseRPMMonotone(t *testing.T) {
	p := &historyPolicy{cfg: Config{}.withDefaults()}
	params := disk.DefaultParams()
	prev := params.MaxRPM + 1
	for _, idleSec := range []float64{0.1, 1, 5, 20, 60, 300} {
		rpm := p.chooseRPM(&params, sim.Duration(idleSec*float64(sim.Second)))
		if rpm > prev {
			t.Fatalf("chooseRPM not monotone: idle %.1fs → %d RPM after %d", idleSec, rpm, prev)
		}
		prev = rpm
	}
	// Tiny idleness → full speed; huge idleness → minimum speed.
	if got := p.chooseRPM(&params, sim.Millisecond); got != params.MaxRPM {
		t.Fatalf("chooseRPM(1ms) = %d, want max", got)
	}
	if got := p.chooseRPM(&params, 10*sim.Minute); got != params.MinRPM {
		t.Fatalf("chooseRPM(10min) = %d, want min", got)
	}
}

func TestHistoryWrongPredictionServesPromptly(t *testing.T) {
	eng, d, _ := newRig(t, KindHistory)
	fireStep(t, eng, d)
	eng.RunUntil(eng.Now() + 60*sim.Second)
	fireStep(t, eng, d) // predicts 60 s, drops speed
	if d.TargetRPM() >= d.Params().MaxRPM {
		t.Fatal("setup: speed not dropped")
	}
	// Request arrives way early (after 2 s): wrong prediction. Multi-speed
	// disks serve at the current speed, so the penalty is bounded by the
	// slower mechanics, not by a spin-up.
	eng.RunUntil(eng.Now() + 2*sim.Second)
	var lat sim.Duration
	r := &disk.Request{Op: disk.OpRead, Sector: 0, Bytes: 4096, Done: func(_ sim.Time, rq *disk.Request) { lat = rq.Latency() }}
	if err := d.Submit(r); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + sim.Second)
	if lat == 0 || lat > 200*sim.Millisecond {
		t.Fatalf("wrong-prediction request latency = %v, want prompt low-speed service", lat)
	}
}

func TestStaggeredStepsThroughSpeeds(t *testing.T) {
	eng, d, _ := newRig(t, KindStaggered)
	fireStep(t, eng, d)
	// The first step fires once idleness persists for the detection
	// timeout; before that the disk stays at full speed.
	if d.TargetRPM() != d.Params().MaxRPM {
		t.Fatalf("stepped down before the detection timeout: %d", d.TargetRPM())
	}
	eng.RunUntil(eng.Now() + sim.MilliToTime(80))
	if want := d.Params().MaxRPM - d.Params().RPMStep; d.TargetRPM() > want {
		t.Fatalf("first step target = %d, want ≤ %d", d.TargetRPM(), want)
	}
	eng.RunUntil(eng.Now() + 10*sim.Second)
	if d.RPM() != d.Params().MinRPM {
		t.Fatalf("RPM = %d after long idleness, want min %d", d.RPM(), d.Params().MinRPM)
	}
}

func TestStaggeredRampsToMaxOnArrival(t *testing.T) {
	eng, d, _ := newRig(t, KindStaggered)
	fire(t, eng, d)
	eng.RunUntil(eng.Now() + 10*sim.Second) // bottom out at min RPM
	if d.RPM() != d.Params().MinRPM {
		t.Fatal("setup: did not bottom out")
	}
	var served *disk.Request
	r := &disk.Request{Op: disk.OpRead, Sector: 0, Bytes: 4096, Done: func(_ sim.Time, rq *disk.Request) { served = rq }}
	if err := d.Submit(r); err != nil {
		t.Fatal(err)
	}
	// The arrival restores the full-speed target; the request itself is
	// served at the current (low) speed.
	if d.TargetRPM() != d.Params().MaxRPM {
		t.Fatalf("target = %d after arrival, want max", d.TargetRPM())
	}
	for served == nil {
		if !eng.Step() {
			t.Fatal("drained before service")
		}
	}
	if lat := served.Latency(); lat > 200*sim.Millisecond {
		t.Fatalf("low-speed service latency = %v, want prompt", lat)
	}
	// With the queue empty the recovery ramp begins at once; with no
	// further requests the staircase then legitimately walks back down, so
	// we only check that the recovery started.
	if d.State() != disk.StateShiftingRPM && d.RPM() == d.Params().MinRPM {
		t.Fatalf("recovery did not engage: state=%v rpm=%d", d.State(), d.RPM())
	}
}

func TestStaggeredSavesEnergyWhenIdle(t *testing.T) {
	energy := func(kind Kind) float64 {
		eng := sim.NewEngine(1)
		d := disk.MustNew(eng, 0, disk.DefaultParams())
		MustNew(eng, Config{Kind: kind}).Attach(d)
		_ = d.Submit(&disk.Request{Op: disk.OpRead, Sector: 0, Bytes: 4096})
		eng.Run()
		eng.RunUntil(eng.Now() + 5*sim.Minute)
		return d.Energy().TotalJoules(eng.Now())
	}
	if st, def := energy(KindStaggered), energy(KindDefault); st >= def {
		t.Fatalf("staggered energy %v J not below default %v J over a long idle", st, def)
	}
}

func TestSimpleSavesEnergyOnVeryLongIdle(t *testing.T) {
	energy := func(kind Kind) float64 {
		eng := sim.NewEngine(1)
		d := disk.MustNew(eng, 0, disk.DefaultParams())
		MustNew(eng, Config{Kind: kind}).Attach(d)
		_ = d.Submit(&disk.Request{Op: disk.OpRead, Sector: 0, Bytes: 4096})
		eng.Run()
		eng.RunUntil(eng.Now() + 30*sim.Minute)
		return d.Energy().TotalJoules(eng.Now())
	}
	if s, def := energy(KindSimple), energy(KindDefault); s >= def {
		t.Fatalf("simple energy %v J not below default %v J over 30 min idle", s, def)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if _, ok := e.Predict(); ok {
		t.Fatal("fresh EWMA claims a prediction")
	}
	e.Observe(100)
	if v, ok := e.Predict(); !ok || v != 100 {
		t.Fatalf("after first observation: %v, %v", v, ok)
	}
	e.Observe(200)
	if v, _ := e.Predict(); v != 150 {
		t.Fatalf("EWMA(0.5) after 100,200 = %v, want 150", v)
	}
	e.Reset()
	if _, ok := e.Predict(); ok {
		t.Fatal("Reset did not clear history")
	}
}

func TestEWMAInvalidAlphaFallsBack(t *testing.T) {
	for _, a := range []float64{-1, 0, 1.5} {
		e := NewEWMA(a)
		if e.alpha != 0.5 {
			t.Fatalf("NewEWMA(%v).alpha = %v, want 0.5", a, e.alpha)
		}
	}
}

// Property: EWMA prediction always lies within [min, max] of observations.
func TestPropertyEWMABounded(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		e := NewEWMA(0.5)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			x := float64(v)
			e.Observe(x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		got, ok := e.Predict()
		return ok && got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

type fixedHints struct{ gap sim.Duration }

func (h fixedHints) NextIdle(int, sim.Time) (sim.Duration, bool) { return h.gap, true }

func TestOracleUsesHints(t *testing.T) {
	eng := sim.NewEngine(1)
	d := disk.MustNew(eng, 0, disk.DefaultParams())
	o := NewOracle(eng, Config{}, fixedHints{gap: 60 * sim.Second})
	o.Attach(d)
	fireStep(t, eng, d)
	if d.TargetRPM() != d.Params().MinRPM {
		t.Fatalf("oracle with 60 s hint targeted %d RPM, want min", d.TargetRPM())
	}
	if o.Kind() != KindHistory {
		t.Fatalf("oracle Kind = %v", o.Kind())
	}
}

func TestPredictiveCooldownAfterAbort(t *testing.T) {
	eng, d, _ := newRig(t, KindPredictive)
	be := BreakEvenIdle(d.Params())
	// Teach a long gap so the policy spins down at idle start.
	fireStep(t, eng, d)
	eng.RunUntil(eng.Now() + 2*be)
	fireStep(t, eng, d) // spin-down begins now
	if d.State() != disk.StateSpinningDown {
		t.Fatalf("state = %v, want spinning down", d.State())
	}
	// A request lands mid-transition (misprediction): abort + cooldown.
	eng.RunUntil(eng.Now() + sim.Second)
	fireStep(t, eng, d)
	downs := d.Stats().SpinDowns
	// The next idle start must NOT trigger another spin-down while the
	// cooldown is active, even though the EWMA still predicts long.
	eng.RunUntil(eng.Now() + 30*sim.Second)
	if d.Stats().SpinDowns != downs {
		t.Fatalf("spin-down during cooldown: %d → %d", downs, d.Stats().SpinDowns)
	}
}

func TestPredictiveWakeNotBeforeBreakEven(t *testing.T) {
	eng, d, _ := newRig(t, KindPredictive)
	be := BreakEvenIdle(d.Params())
	// Teach a gap just above threshold (0.6×be > 0.5×be) whose EWMA-based
	// wake would have fired long before break-even.
	fireStep(t, eng, d)
	eng.RunUntil(eng.Now() + 8*be/10)
	fireStep(t, eng, d)
	if d.State() == disk.StateIdle {
		t.Skip("prediction below threshold on this parameterization")
	}
	idleStart := eng.Now()
	// Before break-even the disk must not have proactively spun up.
	eng.RunUntil(idleStart + be - sim.Second)
	if d.State() == disk.StateIdle && d.RPM() == d.Params().MaxRPM {
		t.Fatal("woke before the energy break-even point")
	}
}

func TestEngageIfIdleSkipsBusyDisk(t *testing.T) {
	eng := sim.NewEngine(1)
	d := disk.MustNew(eng, 0, disk.DefaultParams())
	// Make the disk busy before attaching.
	_ = d.Submit(&disk.Request{Op: disk.OpRead, Sector: 0, Bytes: 1 << 20})
	eng.Step()
	p := MustNew(eng, Config{Kind: KindStaggered})
	p.Attach(d) // must not step a busy disk down
	if d.TargetRPM() != d.Params().MaxRPM {
		t.Fatal("engageIfIdle acted on a busy disk")
	}
}
