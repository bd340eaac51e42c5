package disk

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"sdds/internal/sim"
)

func testDisk(t *testing.T) (*sim.Engine, *Disk) {
	t.Helper()
	eng := sim.NewEngine(1)
	d, err := New(eng, 0, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

func TestParamsValidate(t *testing.T) {
	def := DefaultParams()
	if err := def.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.CapacityGB = 0 },
		func(p *Params) { p.SectorSize = -1 },
		func(p *Params) { p.SectorsPerCylinder = 0 },
		func(p *Params) { p.MaxRPM = 0 },
		func(p *Params) { p.MinRPM = 0 },
		func(p *Params) { p.MinRPM = p.MaxRPM + 1 },
		func(p *Params) { p.RPMStep = 0 },
		func(p *Params) { p.RPMStep = 999 },
		func(p *Params) { p.MaxTransferMBps = 0 },
		func(p *Params) { p.SpinUpTime = 0 },
		func(p *Params) { p.IdlePowerW = 0 },
		func(p *Params) { p.SpinDownPowerW = 0 },
		func(p *Params) { p.BusMBps = 0 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d: Validate() = nil, want error", i)
		}
	}
}

func TestLevels(t *testing.T) {
	p := DefaultParams()
	levels := p.Levels()
	if len(levels) != 8 {
		t.Fatalf("len(levels) = %d, want 8 (12000..3600 step 1200)", len(levels))
	}
	if levels[0] != 12000 || levels[len(levels)-1] != 3600 {
		t.Fatalf("levels = %v", levels)
	}
	for i := 1; i < len(levels); i++ {
		if levels[i-1]-levels[i] != 1200 {
			t.Fatalf("level gap %d→%d", levels[i-1], levels[i])
		}
	}
}

func TestQuadraticPowerModel(t *testing.T) {
	p := DefaultParams()
	// Eq. 1: halving RPM quarters the power.
	half := p.IdlePowerAt(6000)
	if math.Abs(half-p.IdlePowerW/4) > 1e-9 {
		t.Fatalf("IdlePowerAt(6000) = %v, want %v", half, p.IdlePowerW/4)
	}
	if p.ActivePowerAt(12000) != p.ActivePowerW {
		t.Fatal("full-speed active power mismatch")
	}
	if p.SeekPowerAt(3600) >= p.SeekPowerAt(12000) {
		t.Fatal("seek power must decrease with RPM")
	}
}

func TestClampRPM(t *testing.T) {
	p := DefaultParams()
	cases := []struct{ in, want int }{
		{15000, 12000}, {12000, 12000}, {11900, 12000}, {11000, 10800},
		{3600, 3600}, {100, 3600}, {4100, 3600}, {4300, 4800},
	}
	for _, c := range cases {
		if got := p.ClampRPM(c.in); got != c.want {
			t.Errorf("ClampRPM(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestFullRotation(t *testing.T) {
	p := DefaultParams()
	if got := p.FullRotation(12000); got != 5000 {
		t.Fatalf("FullRotation(12000) = %v µs, want 5000", got)
	}
	if got := p.FullRotation(6000); got != 10000 {
		t.Fatalf("FullRotation(6000) = %v µs, want 10000", got)
	}
	if got := p.FullRotation(0); got != 0 {
		t.Fatalf("FullRotation(0) = %v, want 0", got)
	}
}

func TestSeekTimeMonotone(t *testing.T) {
	p := DefaultParams()
	if p.SeekTime(0) != 0 {
		t.Fatal("zero-distance seek must be free")
	}
	prev := sim.Duration(0)
	for _, d := range []int64{1, 10, 100, 1000, 10000} {
		s := p.SeekTime(d)
		if s <= prev {
			t.Fatalf("SeekTime(%d) = %v not > %v", d, s, prev)
		}
		prev = s
	}
}

func TestSqrtInt(t *testing.T) {
	for _, v := range []int64{0, 1, 4, 9, 100, 10000, 123456789} {
		got := sqrtInt(v)
		want := math.Sqrt(float64(v))
		if math.Abs(got-want) > 1e-6*math.Max(1, want) {
			t.Errorf("sqrtInt(%d) = %v, want %v", v, got, want)
		}
	}
}

func TestSubmitAndComplete(t *testing.T) {
	eng, d := testDisk(t)
	var done *Request
	r := &Request{Op: OpRead, Sector: 5000, Bytes: 64 << 10, Done: func(_ sim.Time, r *Request) { done = r }}
	if err := d.Submit(r); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if done == nil {
		t.Fatal("request never completed")
	}
	if done.Finish <= done.Start || done.Start < done.Arrival {
		t.Fatalf("bad timestamps: arrival=%v start=%v finish=%v", done.Arrival, done.Start, done.Finish)
	}
	st := d.Stats()
	if st.Completed != 1 || st.BytesRead != 64<<10 {
		t.Fatalf("stats = %+v", st)
	}
	if d.State() != StateIdle {
		t.Fatalf("state after completion = %v, want idle", d.State())
	}
}

func TestSubmitValidation(t *testing.T) {
	_, d := testDisk(t)
	if err := d.Submit(&Request{Op: OpRead, Sector: 0, Bytes: 0}); err == nil {
		t.Fatal("zero-byte request accepted")
	}
	if err := d.Submit(&Request{Op: OpRead, Sector: -1, Bytes: 1}); err == nil {
		t.Fatal("negative sector accepted")
	}
	if err := d.Submit(&Request{Op: OpRead, Sector: 1 << 62, Bytes: 1}); err == nil {
		t.Fatal("out-of-range sector accepted")
	}
}

func TestWriteAccounting(t *testing.T) {
	eng, d := testDisk(t)
	if err := d.Submit(&Request{Op: OpWrite, Sector: 0, Bytes: 4096}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if d.Stats().BytesWritten != 4096 {
		t.Fatalf("BytesWritten = %d", d.Stats().BytesWritten)
	}
}

func TestLowerRPMSlowerService(t *testing.T) {
	serviceTime := func(rpm int) sim.Duration {
		eng := sim.NewEngine(1)
		d := MustNew(eng, 0, DefaultParams())
		if rpm != d.Params().MaxRPM {
			if err := d.SetTargetRPM(rpm, true); err != nil {
				t.Fatal(err)
			}
			eng.Run() // let the shift finish
		}
		var lat sim.Duration
		r := &Request{Op: OpRead, Sector: 100000, Bytes: 1 << 20, Done: func(_ sim.Time, r *Request) { lat = r.Finish - r.Start }}
		if err := d.Submit(r); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		return lat
	}
	fast := serviceTime(12000)
	slow := serviceTime(3600)
	if slow <= fast {
		t.Fatalf("service at 3600 RPM (%v) not slower than 12000 RPM (%v)", slow, fast)
	}
	// Media transfer scales ~linearly: expect at least 2.5× on a 1 MB read.
	if float64(slow) < 2.5*float64(fast) {
		t.Fatalf("slowdown only %.2f×, want ≥2.5×", float64(slow)/float64(fast))
	}
}

func TestSpinDownUpCycle(t *testing.T) {
	eng, d := testDisk(t)
	if err := d.SpinDown(); err != nil {
		t.Fatal(err)
	}
	if d.State() != StateSpinningDown {
		t.Fatalf("state = %v, want spin-down", d.State())
	}
	eng.Run()
	if d.State() != StateStandby {
		t.Fatalf("state = %v, want standby", d.State())
	}
	// A request in standby triggers spin-up and is served afterwards.
	var finished sim.Time
	r := &Request{Op: OpRead, Sector: 0, Bytes: 4096, Done: func(now sim.Time, _ *Request) { finished = now }}
	if err := d.Submit(r); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if finished < d.Params().SpinUpTime {
		t.Fatalf("request finished at %v, before spin-up time %v", finished, d.Params().SpinUpTime)
	}
	st := d.Stats()
	if st.SpinUps != 1 || st.SpinDowns != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSpinDownWhileBusyFails(t *testing.T) {
	eng, d := testDisk(t)
	if err := d.Submit(&Request{Op: OpRead, Sector: 0, Bytes: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	eng.Step() // begin service but don't finish
	if err := d.SpinDown(); !errors.Is(err, ErrNotIdle) {
		t.Fatalf("SpinDown while busy = %v, want ErrNotIdle", err)
	}
}

func TestSpinUpDuringSpinDownAborts(t *testing.T) {
	eng, d := testDisk(t)
	if err := d.SpinDown(); err != nil {
		t.Fatal(err)
	}
	// Half-way through the spin-down, command a spin-up: the spindle
	// coasts, so recovery costs the head reload plus the quadratic share
	// of the spin-up time (0.5² = 25%).
	eng.RunUntil(d.Params().SpinDownTime / 2)
	if err := d.SpinUp(); err != nil {
		t.Fatal(err)
	}
	end := eng.Run()
	if d.State() != StateIdle || d.RPM() != d.Params().MaxRPM {
		t.Fatalf("state=%v rpm=%d after abort spin-up", d.State(), d.RPM())
	}
	want := d.Params().SpinDownTime/2 + 300*sim.Millisecond + d.Params().SpinUpTime/4
	if end != want {
		t.Fatalf("recovered at %v, want %v (quadratic abort)", end, want)
	}
	if d.Stats().SpinUps != 1 {
		t.Fatalf("SpinUps = %d", d.Stats().SpinUps)
	}
}

func TestSpinUpWhenIdleFails(t *testing.T) {
	_, d := testDisk(t)
	if err := d.SpinUp(); !errors.Is(err, ErrNotStandby) {
		t.Fatalf("SpinUp while idle = %v, want ErrNotStandby", err)
	}
}

func TestRequestDuringSpinDownAbortsAndServes(t *testing.T) {
	eng, d := testDisk(t)
	if err := d.SpinDown(); err != nil {
		t.Fatal(err)
	}
	var finished sim.Time
	// Arrives 1 s into the 10 s spin-down: the spindle reverses from 10%
	// progress, paying the head reload plus ~1% of the spin-up time rather
	// than the full 26 s cycle.
	eng.Schedule(sim.Second, "inject", func(sim.Time) {
		_ = d.Submit(&Request{Op: OpRead, Sector: 0, Bytes: 4096, Done: func(now sim.Time, _ *Request) { finished = now }})
	})
	eng.Run()
	p := d.Params()
	partialUp := 300*sim.Millisecond + sim.Duration(0.01*float64(p.SpinUpTime))
	if finished < sim.Second+partialUp {
		t.Fatalf("finished at %v, before partial recovery %v", finished, sim.Second+partialUp)
	}
	if finished >= p.SpinDownTime+p.SpinUpTime {
		t.Fatalf("finished at %v — paid the full down+up cycle despite the abort", finished)
	}
}

func TestSetTargetRPMShiftsWhenIdle(t *testing.T) {
	eng, d := testDisk(t)
	if err := d.SetTargetRPM(3600, false); err != nil {
		t.Fatal(err)
	}
	if d.State() != StateShiftingRPM {
		t.Fatalf("state = %v, want rpm-shift", d.State())
	}
	end := eng.Run()
	if d.RPM() != 3600 {
		t.Fatalf("RPM = %d, want 3600", d.RPM())
	}
	wantShift := d.Params().RPMShiftTime(12000, 3600)
	if end != wantShift {
		t.Fatalf("shift took %v, want %v", end, wantShift)
	}
}

func TestSetTargetRPMInStandbyFails(t *testing.T) {
	eng, d := testDisk(t)
	_ = d.SpinDown()
	eng.Run()
	if err := d.SetTargetRPM(3600, false); !errors.Is(err, ErrNotStandby) {
		t.Fatalf("SetTargetRPM in standby = %v, want ErrNotStandby", err)
	}
}

// rampOnArrival mimics the staggered policy: on request arrival it commands
// a ramp to full speed that must complete before service.
type rampOnArrival struct{}

func (rampOnArrival) RequestArrived(d *Disk, _ sim.Time) {
	if d.RPM() != d.Params().MaxRPM {
		_ = d.SetTargetRPM(d.Params().MaxRPM, true)
	}
}
func (rampOnArrival) IdleStarted(*Disk, sim.Time) {}

func TestRampFirstDelaysService(t *testing.T) {
	// A disk parked at 3600 RPM whose policy ramps-first on arrival: the
	// request must wait for the full ramp before being served at max speed.
	eng, d := testDisk(t)
	_ = d.SetTargetRPM(3600, false)
	eng.Run()
	d.SetListener(rampOnArrival{})
	var started sim.Time
	r := &Request{Op: OpRead, Sector: 0, Bytes: 4096, Done: func(_ sim.Time, r *Request) { started = r.Start }}
	base := eng.Now()
	if err := d.Submit(r); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	shift := d.Params().RPMShiftTime(3600, 12000)
	if started < base+shift {
		t.Fatalf("service started at %v, before ramp completion %v", started, base+shift)
	}
	if d.RPM() != 12000 {
		t.Fatalf("RPM after ramp = %d", d.RPM())
	}
}

func TestServeAtLowSpeedWithoutRampFirst(t *testing.T) {
	eng, d := testDisk(t)
	_ = d.SetTargetRPM(3600, false)
	eng.Run()
	if d.RPM() != 3600 {
		t.Fatal("setup failed")
	}
	var lat sim.Duration
	r := &Request{Op: OpRead, Sector: 0, Bytes: 4096, Done: func(_ sim.Time, r *Request) { lat = r.Latency() }}
	if err := d.Submit(r); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	// Served without waiting for any ramp: latency well under a shift time.
	if lat >= d.Params().RPMShiftTime(3600, 12000) {
		t.Fatalf("latency %v suggests the disk ramped first", lat)
	}
}

func TestIdleGapRecording(t *testing.T) {
	eng, d := testDisk(t)
	rec := &gapCollector{}
	d.SetIdleRecorder(rec)
	// First request at t=0 closes the initial gap (length 0), then a second
	// arrives 100 ms after the first completes.
	var firstDone sim.Time
	_ = d.Submit(&Request{Op: OpRead, Sector: 0, Bytes: 4096, Done: func(now sim.Time, _ *Request) { firstDone = now }})
	eng.Run()
	eng.Schedule(sim.MilliToTime(100), "second", func(sim.Time) {
		_ = d.Submit(&Request{Op: OpRead, Sector: 0, Bytes: 4096})
	})
	eng.Run()
	if len(rec.gaps) != 2 {
		t.Fatalf("recorded %d gaps, want 2", len(rec.gaps))
	}
	if rec.gaps[0] != 0 {
		t.Fatalf("initial gap = %v, want 0", rec.gaps[0])
	}
	want := firstDone + sim.MilliToTime(100) - firstDone
	if rec.gaps[1] != want {
		t.Fatalf("gap = %v, want %v", rec.gaps[1], want)
	}
}

type gapCollector struct{ gaps []sim.Duration }

func (g *gapCollector) RecordIdle(_ *Disk, gap sim.Duration) { g.gaps = append(g.gaps, gap) }

func TestFlushIdleGap(t *testing.T) {
	eng, d := testDisk(t)
	rec := &gapCollector{}
	d.SetIdleRecorder(rec)
	eng.RunUntil(sim.Second)
	d.FlushIdleGap(eng.Now())
	if len(rec.gaps) != 1 || rec.gaps[0] != sim.Second {
		t.Fatalf("gaps = %v, want [1s]", rec.gaps)
	}
	// Double flush must not record twice.
	d.FlushIdleGap(eng.Now())
	if len(rec.gaps) != 1 {
		t.Fatal("flush recorded a closed gap again")
	}
}

func TestEnergyConservation(t *testing.T) {
	eng, d := testDisk(t)
	for i := 0; i < 20; i++ {
		i := i
		eng.Schedule(sim.Duration(i)*sim.MilliToTime(37), "req", func(sim.Time) {
			_ = d.Submit(&Request{Op: OpRead, Sector: int64(i) * 100000, Bytes: 64 << 10})
		})
	}
	end := eng.Run()
	// Total accounted time equals elapsed time.
	var total sim.Duration
	for _, s := range AllStates() {
		total += d.Energy().TimeIn(end, s)
	}
	if total != end {
		t.Fatalf("accounted %v of %v elapsed", total, end)
	}
	// Energy is bounded by elapsed × max power and ≥ elapsed × min power.
	j := d.Energy().TotalJoules(end)
	maxJ := d.Params().SpinUpPowerW * end.Seconds()
	minJ := d.Params().StandbyPowerW * end.Seconds()
	if j <= minJ || j > maxJ+1e-9 {
		t.Fatalf("energy %v J outside [%v, %v]", j, minJ, maxJ)
	}
}

func TestEnergyLowerAtLowRPM(t *testing.T) {
	run := func(rpm int) float64 {
		eng := sim.NewEngine(1)
		d := MustNew(eng, 0, DefaultParams())
		if rpm != 12000 {
			_ = d.SetTargetRPM(rpm, false)
		}
		eng.RunUntil(10 * sim.Second)
		return d.Energy().TotalJoules(eng.Now())
	}
	if lo, hi := run(3600), run(12000); lo >= hi {
		t.Fatalf("idle energy at 3600 RPM (%v J) not below 12000 RPM (%v J)", lo, hi)
	}
}

func TestElevatorSCANOrder(t *testing.T) {
	eng, d := testDisk(t)
	var order []int64
	mk := func(cyl int64) *Request {
		return &Request{Op: OpRead, Sector: cyl * int64(d.Params().SectorsPerCylinder), Bytes: 4096,
			Done: func(_ sim.Time, r *Request) { order = append(order, r.cylinder) }}
	}
	// A blocker at cylinder 0 is served first; the rest queue up while it is
	// in service and are then swept upward from head 0: 10, 50, 90.
	for _, c := range []int64{0, 90, 10, 50} {
		if err := d.Submit(mk(c)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	want := []int64{0, 10, 50, 90}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("SCAN order = %v, want %v", order, want)
		}
	}
}

func TestElevatorReversesDirection(t *testing.T) {
	q := newElevator()
	mk := func(cyl int64) *Request { return &Request{cylinder: cyl} }
	for _, c := range []int64{10, 60, 40} {
		q.Push(mk(c))
	}
	// Head at 50, sweeping up: 60 first, then reverse: 40, 10.
	var got []int64
	head := int64(50)
	for q.Len() > 0 {
		r := q.Pop(head)
		got = append(got, r.cylinder)
		head = r.cylinder
	}
	want := []int64{60, 40, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// Property: the elevator always returns every pushed request exactly once.
func TestPropertyElevatorCompleteness(t *testing.T) {
	f := func(cyls []uint16, start uint16) bool {
		q := newElevator()
		want := make(map[int64]int)
		for _, c := range cyls {
			q.Push(&Request{cylinder: int64(c)})
			want[int64(c)]++
		}
		head := int64(start)
		got := make(map[int64]int)
		for i := 0; i <= len(cyls); i++ {
			r := q.Pop(head)
			if r == nil {
				break
			}
			got[r.cylinder]++
			head = r.cylinder
		}
		if q.Len() != 0 {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return len(got) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: energy account never decreases and per-state sums equal total.
func TestPropertyEnergyAccountConsistency(t *testing.T) {
	f := func(steps []uint8) bool {
		a := NewEnergyAccount(0, StateIdle, 10)
		now := sim.Time(0)
		states := AllStates()
		prev := 0.0
		for i, s := range steps {
			now += sim.Duration(s) + 1
			st := states[i%len(states)]
			a.SetDraw(now, st, float64(1+i%40))
			tot := a.TotalJoules(now)
			if tot < prev-1e-9 {
				return false
			}
			prev = tot
		}
		var sum float64
		for _, s := range states {
			sum += a.JoulesIn(now, s)
		}
		return math.Abs(sum-a.TotalJoules(now)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueDelayAccumulates(t *testing.T) {
	eng, d := testDisk(t)
	for i := 0; i < 5; i++ {
		_ = d.Submit(&Request{Op: OpRead, Sector: int64(i) * 1000000, Bytes: 1 << 20})
	}
	eng.Run()
	if d.Stats().QueueDelay <= 0 {
		t.Fatal("five back-to-back requests produced no queueing delay")
	}
}

func BenchmarkDiskService(b *testing.B) {
	eng := sim.NewEngine(1)
	d := MustNew(eng, 0, DefaultParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Submit(&Request{Op: OpRead, Sector: int64(i%1000) * 4096, Bytes: 64 << 10})
		eng.Run()
	}
}

func TestAccessorsAndStateHelpers(t *testing.T) {
	eng, d := testDisk(t)
	if OpRead.String() != "read" || OpWrite.String() != "write" || Op(0).String() != "invalid" {
		t.Fatal("Op names wrong")
	}
	if d.TargetRPM() != d.Params().MaxRPM || d.QueueLen() != 0 || d.Busy() {
		t.Fatal("fresh disk accessors wrong")
	}
	if !StateSeeking.Serving() || !StateTransferring.Serving() || StateIdle.Serving() {
		t.Fatal("Serving() wrong")
	}
	if got := d.Params().Cylinders(); got <= 0 {
		t.Fatalf("Cylinders = %d", got)
	}
	tiny := DefaultParams()
	tiny.CapacityGB = 1e-9
	if tiny.Cylinders() != 1 {
		t.Fatal("Cylinders floor missing")
	}
	_ = d.Submit(&Request{Op: OpRead, Sector: 0, Bytes: 1 << 20})
	_ = d.Submit(&Request{Op: OpRead, Sector: 0, Bytes: 1 << 20})
	eng.Step()
	if !d.Busy() && d.QueueLen() == 0 {
		t.Fatal("busy state not visible")
	}
	eng.Run()
	end := eng.Now()
	if d.Energy().Elapsed(end) != end {
		t.Fatal("Elapsed mismatch")
	}
	br := d.Energy().Breakdown(end)
	var sum float64
	for _, v := range br {
		sum += v
	}
	if diff := sum - d.Energy().TotalJoules(end); diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("Breakdown sum %v != total %v", sum, d.Energy().TotalJoules(end))
	}
}

func TestUpShiftSlowerThanDown(t *testing.T) {
	p := DefaultParams()
	down := p.RPMShiftTime(12000, 3600)
	up := p.RPMShiftTime(3600, 12000)
	if up != down*UpShiftFactor {
		t.Fatalf("up %v, down %v: want %d× asymmetry", up, down, UpShiftFactor)
	}
}

func TestDeferredUpShiftBreaksSaturation(t *testing.T) {
	// A disk parked at min RPM receiving a steady stream faster than its
	// low-speed service rate must still reach full speed within the defer
	// bound rather than being trapped.
	eng, d := testDisk(t)
	_ = d.SetTargetRPM(d.Params().MinRPM, false)
	eng.Run()
	if d.RPM() != d.Params().MinRPM {
		t.Fatal("setup failed")
	}
	_ = d.SetTargetRPM(d.Params().MaxRPM, false)
	// Saturating arrivals: a 1 MB read every 10 ms.
	for i := 0; i < 400; i++ {
		at := sim.Duration(i) * sim.MilliToTime(10)
		eng.Schedule(at, "sat", func(sim.Time) {
			_ = d.Submit(&Request{Op: OpRead, Sector: 0, Bytes: 1 << 20})
		})
	}
	eng.RunUntil(eng.Now() + 4*sim.Second)
	if d.RPM() != d.Params().MaxRPM {
		t.Fatalf("disk trapped at %d RPM under saturation", d.RPM())
	}
}

// sqrtInt20 is the previous form of sqrtInt: always twenty Newton steps.
func sqrtInt20(v int64) float64 {
	if v <= 0 {
		return 0
	}
	x := float64(v)
	g := x / 2
	if g < 1 {
		g = 1
	}
	for i := 0; i < 20; i++ {
		g = (g + x/g) / 2
	}
	return g
}

// TestSqrtIntMatchesTwentySteps checks that stopping at the Newton fixed
// point is bit-identical to running all twenty steps, for every seek
// distance the default geometry can produce.
func TestSqrtIntMatchesTwentySteps(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive over every cylinder distance")
	}
	p := DefaultParams()
	maxDist := p.Cylinders()
	for v := int64(-1); v <= maxDist; v++ {
		if got, want := sqrtInt(v), sqrtInt20(v); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("sqrtInt(%d) = %v, twenty steps give %v", v, got, want)
		}
	}
}

// TestEnergyBreakdownTouchedStates checks that Breakdown lists exactly the
// states the account has charged, zero-length stays included.
func TestEnergyBreakdownTouchedStates(t *testing.T) {
	a := NewEnergyAccount(0, StateIdle, 10)
	a.SetDraw(sim.Second, StateSeeking, 20)
	a.SetDraw(sim.Second, StateTransferring, 30) // zero-length seek
	got := a.Breakdown(2 * sim.Second)
	want := map[State]float64{StateIdle: 10, StateSeeking: 0, StateTransferring: 30}
	if len(got) != len(want) {
		t.Fatalf("Breakdown = %v, want %v", got, want)
	}
	for s, j := range want {
		if g, ok := got[s]; !ok || math.Abs(g-j) > 1e-9 {
			t.Fatalf("Breakdown[%v] = %v (present %v), want %v", s, g, ok, j)
		}
	}
	if a.JoulesIn(2*sim.Second, State(0)) != 0 || a.TimeIn(2*sim.Second, State(99)) != 0 {
		t.Fatal("invalid state reported energy or time")
	}
}
