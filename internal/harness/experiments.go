package harness

import (
	"context"
	"fmt"
	"time"

	"sdds/internal/cluster"
	"sdds/internal/compiler"
	"sdds/internal/core"
	"sdds/internal/disk"
	"sdds/internal/metrics"
	"sdds/internal/power"
	"sdds/internal/sim"
	"sdds/internal/workloads"
)

// table2 dumps the default configuration, mirroring Table II.
func table2(ctx context.Context, s *Session, c Config) (*Result, error) {
	cfg := cluster.DefaultConfig()
	p := cfg.Node.DiskParams
	rows := [][]string{
		{"Number of Client (Compute) Nodes", fmt.Sprintf("%d", cfg.Procs)},
		{"Number of I/O nodes", fmt.Sprintf("%d", cfg.Layout.NumNodes)},
		{"Stripe Size", fmt.Sprintf("%dKB", cfg.Layout.StripeSize>>10)},
		{"RAID Level", cfg.Node.Level.String()},
		{"Disks per I/O node", fmt.Sprintf("%d", cfg.Node.Members)},
		{"Individual Disk Capacity", fmt.Sprintf("%.0fGB", p.CapacityGB)},
		{"Storage Cache Capacity", fmt.Sprintf("%dMB (per I/O node)", cfg.Node.CacheBytes>>20)},
		{"Maximum Disk Rotation Speed", fmt.Sprintf("%d RPM", p.MaxRPM)},
		{"Idle Power", fmt.Sprintf("%.1fW (at %d RPM)", p.IdlePowerW, p.MaxRPM)},
		{"Active (R/W) Power", fmt.Sprintf("%.1fW (at %d RPM)", p.ActivePowerW, p.MaxRPM)},
		{"Seek Power", fmt.Sprintf("%.1fW (at %d RPM)", p.SeekPowerW, p.MaxRPM)},
		{"Standby Power", fmt.Sprintf("%.1fW", p.StandbyPowerW)},
		{"Spin-up Power", fmt.Sprintf("%.1fW", p.SpinUpPowerW)},
		{"Spin-up Time", fmt.Sprintf("%.0fsecs", p.SpinUpTime.Seconds())},
		{"Spin-down Time", fmt.Sprintf("%.0fsecs", p.SpinDownTime.Seconds())},
		{"Disk-Arm Scheduling", "Elevator"},
		{"Minimum Disk Rotation Speed", fmt.Sprintf("%d RPM", p.MinRPM)},
		{"RPM Step-Size", fmt.Sprintf("%d", p.RPMStep)},
		{"delta", fmt.Sprintf("%d iterations (slots)", cfg.Compiler.Delta)},
		{"theta", fmt.Sprintf("%d", cfg.Compiler.Theta)},
	}
	return &Result{ID: "table2", Title: "Main experimental parameters",
		Headers: []string{"Parameter", "Value"}, Rows: rows}, nil
}

// table3 reports per-application execution time and disk energy under the
// Default Scheme (no power management) — the baseline every other number is
// normalized against.
func table3(ctx context.Context, s *Session, c Config) (*Result, error) {
	base, err := runBaselines(ctx, s, c)
	if err != nil {
		return nil, err
	}
	rows := make([][]string, 0, len(c.Apps))
	for _, app := range c.Apps {
		spec, _ := workloads.ByName(app)
		res := base.byApp[app]
		rows = append(rows, []string{
			app, spec.Description,
			fmt.Sprintf("%.1f", res.ExecTime.Seconds()/60),
			fmt.Sprintf("%.1f", res.EnergyJ),
		})
	}
	return &Result{ID: "table3", Title: "Application programs",
		Headers: []string{"Name", "Brief Description", "Exec Time (minutes)", "Disk Energy (Joule)"},
		Rows:    rows}, nil
}

// cdfResult renders per-app idle CDFs at the paper's bucket bounds.
func cdfResult(ctx context.Context, s *Session, id, title string, c Config, scheduling bool) (*Result, error) {
	headers := []string{"Idleness (msec)"}
	headers = append(headers, c.Apps...)
	hists := make([]*metrics.IdleHistogram, len(c.Apps))
	for i, app := range c.Apps {
		res, err := runOne(ctx, s, c, app, power.KindDefault, scheduling)
		if err != nil {
			return nil, err
		}
		hists[i] = res.Idle
	}
	var rows [][]string
	for bi, bound := range metrics.PaperBucketsMs {
		row := []string{fmt.Sprintf("%.0f", bound)}
		for _, h := range hists {
			row = append(row, metrics.Pct(h.CDF()[bi].Frac))
		}
		rows = append(rows, row)
	}
	var mean100, mean5000 float64
	for _, h := range hists {
		mean100 += h.FracAtMost(100)
		mean5000 += h.FracAtMost(5000)
	}
	notes := []string{fmt.Sprintf("average: %s of idle periods ≤100ms, %s ≤5s (paper without scheme: 86.4%% and 96.5%%)",
		metrics.Pct(mean100/float64(len(hists))), metrics.Pct(mean5000/float64(len(hists))))}
	return &Result{ID: id, Title: title, Headers: headers, Rows: rows, Notes: notes}, nil
}

func fig12a(ctx context.Context, s *Session, c Config) (*Result, error) {
	return cdfResult(ctx, s, "fig12a", "CDF of idle periods without the scheme", c, false)
}

func fig12b(ctx context.Context, s *Session, c Config) (*Result, error) {
	return cdfResult(ctx, s, "fig12b", "CDF of idle periods with the scheme", c, true)
}

// energyResult renders normalized energy per app × policy.
func energyResult(ctx context.Context, s *Session, id, title string, c Config, scheduling bool) (*Result, error) {
	base, err := runBaselines(ctx, s, c)
	if err != nil {
		return nil, err
	}
	kinds := power.ManagedKinds()
	headers := []string{"App"}
	for _, k := range kinds {
		headers = append(headers, k.String())
	}
	rows := make([][]string, 0, len(c.Apps))
	avg := make([]float64, len(kinds))
	values := make([][]float64, 0, len(c.Apps))
	for _, app := range c.Apps {
		row := []string{app}
		vals := make([]float64, 0, len(kinds))
		for ki, k := range kinds {
			res, err := runOne(ctx, s, c, app, k, scheduling)
			if err != nil {
				return nil, err
			}
			norm := metrics.NormalizedEnergy(res.EnergyJ, base.byApp[app].EnergyJ)
			avg[ki] += 1 - norm
			row = append(row, metrics.Pct(norm))
			vals = append(vals, norm)
		}
		rows = append(rows, row)
		values = append(values, vals)
	}
	series := make([]string, len(kinds))
	for ki, k := range kinds {
		series[ki] = k.String()
	}
	chart := &metrics.BarChart{Title: title, Groups: c.Apps, Series: series, Values: values}
	note := "average savings:"
	for ki, k := range kinds {
		note += fmt.Sprintf(" %s %s", k, metrics.Pct(avg[ki]/float64(len(c.Apps))))
	}
	paper := "paper without scheme: simple 4.7%, prediction 6.3%, history 15.6%, staggered 9.8%"
	if scheduling {
		paper = "paper with scheme: simple 9.4%, prediction 14.2%, history 29.2%, staggered 25.9%"
	}
	return &Result{ID: id, Title: title, Headers: headers, Rows: rows,
		Notes: []string{note, paper}, Chart: chart}, nil
}

func fig12c(ctx context.Context, s *Session, c Config) (*Result, error) {
	return energyResult(ctx, s, "fig12c", "Normalized energy consumption without the scheme", c, false)
}

func fig12d(ctx context.Context, s *Session, c Config) (*Result, error) {
	return energyResult(ctx, s, "fig12d", "Normalized energy consumption with the scheme", c, true)
}

// degradationResult renders performance degradation per app × policy.
func degradationResult(ctx context.Context, s *Session, id, title string, c Config, scheduling bool) (*Result, error) {
	base, err := runBaselines(ctx, s, c)
	if err != nil {
		return nil, err
	}
	kinds := power.ManagedKinds()
	headers := []string{"App"}
	for _, k := range kinds {
		headers = append(headers, k.String())
	}
	rows := make([][]string, 0, len(c.Apps))
	avg := make([]float64, len(kinds))
	for _, app := range c.Apps {
		row := []string{app}
		for ki, k := range kinds {
			res, err := runOne(ctx, s, c, app, k, scheduling)
			if err != nil {
				return nil, err
			}
			d := metrics.Degradation(res.ExecTime, base.byApp[app].ExecTime)
			avg[ki] += d
			row = append(row, metrics.Pct(d))
		}
		rows = append(rows, row)
	}
	note := "average degradation:"
	for ki, k := range kinds {
		note += fmt.Sprintf(" %s %s", k, metrics.Pct(avg[ki]/float64(len(c.Apps))))
	}
	return &Result{ID: id, Title: title, Headers: headers, Rows: rows, Notes: []string{note}}, nil
}

func fig13a(ctx context.Context, s *Session, c Config) (*Result, error) {
	return degradationResult(ctx, s, "fig13a", "Performance degradation without the scheme", c, false)
}

func fig13b(ctx context.Context, s *Session, c Config) (*Result, error) {
	return degradationResult(ctx, s, "fig13b", "Performance degradation with the scheme", c, true)
}

// extraSavings computes the additional energy reduction the scheme brings
// over the history-based policy alone, for one app under a tagged cluster
// config variant. Both runs resolve through the session cache.
func extraSavings(ctx context.Context, s *Session, c Config, app, variant string) (float64, error) {
	without, _, err := s.run(ctx, c.request(app, power.KindHistory, false, variant))
	if err != nil {
		return 0, err
	}
	with, _, err := s.run(ctx, c.request(app, power.KindHistory, true, variant))
	if err != nil {
		return 0, err
	}
	return metrics.EnergySaving(with.EnergyJ, without.EnergyJ), nil
}

// sweepDef declares a parameter sweep once, so its run plan and its
// rendering derive from the same table: the extra savings of the scheme
// (over history-based) across the values, averaged over the apps. Each
// point is the variant tag param=value, in the grammar of ParseVariant.
type sweepDef struct {
	id, title, param string
	values           []string
}

// tagOf names one sweep point (shared across experiments: fig14a and
// fig14b both tag "theta=N").
func (d sweepDef) tagOf(vi int) string { return d.param + "=" + d.values[vi] }

// requests plans both scheme-off and scheme-on runs of every sweep point.
func (d sweepDef) requests(c Config) []Request {
	out := make([]Request, 0, 2*len(c.Apps)*len(d.values))
	for _, app := range c.Apps {
		for vi := range d.values {
			out = append(out,
				c.request(app, power.KindHistory, false, d.tagOf(vi)),
				c.request(app, power.KindHistory, true, d.tagOf(vi)))
		}
	}
	return out
}

// run renders the sweep table.
func (d sweepDef) run(ctx context.Context, s *Session, c Config) (*Result, error) {
	headers := append([]string{"App"}, d.values...)
	rows := make([][]string, 0, len(c.Apps))
	avg := make([]float64, len(d.values))
	for _, app := range c.Apps {
		row := []string{app}
		for vi := range d.values {
			sav, err := extraSavings(ctx, s, c, app, d.tagOf(vi))
			if err != nil {
				return nil, err
			}
			avg[vi] += sav
			row = append(row, metrics.Pct(sav))
		}
		rows = append(rows, row)
	}
	note := fmt.Sprintf("average extra reduction by %s:", d.param)
	for vi, v := range d.values {
		note += fmt.Sprintf(" %s=%s %s", d.param, v, metrics.Pct(avg[vi]/float64(len(c.Apps))))
	}
	return &Result{ID: d.id, Title: d.title, Headers: headers, Rows: rows, Notes: []string{note}}, nil
}

var fig13cDef = sweepDef{
	id: "fig13c", title: "Energy reduction as the number of I/O nodes varies",
	param: "nodes", values: []string{"2", "4", "8", "16", "32"},
}

var fig13dDef = sweepDef{
	id: "fig13d", title: "Energy reduction as the value of delta varies",
	param: "delta", values: []string{"5", "10", "20", "40", "80"},
}

var fig14aDef = sweepDef{
	id: "fig14a", title: "Energy reduction as the value of theta varies",
	param: "theta", values: []string{"2", "4", "6", "8"},
}

var cacheSensDef = sweepDef{
	id: "cachesens", title: "Extra energy reduction vs storage-cache capacity",
	param: "cache", values: []string{"32MB", "64MB", "256MB"},
}

// planFig14b plans the scheme-on θ sweep points; they share tags (and thus
// cached runs) with fig14a's sweep.
func planFig14b(c Config) []Request {
	out := make([]Request, 0, len(c.Apps)*len(fig14aDef.values))
	for _, app := range c.Apps {
		for vi := range fig14aDef.values {
			out = append(out, c.request(app, power.KindHistory, true, fig14aDef.tagOf(vi)))
		}
	}
	return out
}

// fig14b sweeps θ for performance improvement of raising θ relative to the
// most constrained setting (θ=2), with the scheme on.
func fig14b(ctx context.Context, s *Session, c Config) (*Result, error) {
	headers := append([]string{"App"}, fig14aDef.values...)
	rows := make([][]string, 0, len(c.Apps))
	for _, app := range c.Apps {
		times := make([]float64, len(fig14aDef.values))
		for vi := range fig14aDef.values {
			res, _, err := s.run(ctx, c.request(app, power.KindHistory, true, fig14aDef.tagOf(vi)))
			if err != nil {
				return nil, err
			}
			times[vi] = res.ExecTime.Seconds()
		}
		row := []string{app}
		for _, t := range times {
			row = append(row, metrics.Pct((times[0]-t)/times[0]))
		}
		rows = append(rows, row)
	}
	return &Result{ID: "fig14b", Title: "Performance improvement as theta varies (vs theta=2)",
		Headers: headers, Rows: rows}, nil
}

// compileCost measures the wall-clock cost of the compiler pass per app
// (the paper reports ~1.4 s worst case, ~40% over the baseline compile).
func compileCost(ctx context.Context, s *Session, c Config) (*Result, error) {
	rows := make([][]string, 0, len(c.Apps))
	for _, app := range c.Apps {
		spec, err := workloads.ByName(app)
		if err != nil {
			return nil, err
		}
		prog := spec.Build(c.Scale)
		start := time.Now() //sddsvet:ignore detflow -- measures real compile wall time: the experiment's deliverable, not golden-compared
		res, err := compiler.CompileContext(ctx, prog, compiler.DefaultOptions(32))
		if err != nil {
			return nil, err
		}
		wall := time.Since(start) //sddsvet:ignore detflow -- measures real compile wall time: the experiment's deliverable, not golden-compared
		rows = append(rows, []string{
			app,
			fmt.Sprintf("%d", len(res.Accesses)),
			fmt.Sprintf("%d", res.Program.Slots(32)),
			fmt.Sprintf("%.3fs", wall.Seconds()),
			fmt.Sprintf("%v", res.UsedProfiler),
		})
	}
	return &Result{ID: "compile", Title: "Scheduling pass cost",
		Headers: []string{"App", "Accesses", "Slots", "Wall time", "Profiler"},
		Rows:    rows}, nil
}

// ablations quantifies the design choices of §IV-B on the scheduling
// algorithm itself (no cluster simulation): processing order, σ weights,
// and the vertical reuse range, measured by packed node-slot activations
// (lower = tighter grouping).
func ablations(ctx context.Context, s *Session, c Config) (*Result, error) {
	type variant struct {
		name   string
		mutate func(*compiler.Options)
	}
	variants := []variant{
		{"paper (slack order, weights, delta=20)", nil},
		{"input order", func(o *compiler.Options) { o.Order = core.OrderInput }},
		{"longest-slack first", func(o *compiler.Options) { o.Order = core.OrderLongestSlack }},
		{"no position weights", func(o *compiler.Options) { o.NoWeights = true }},
		{"delta=0 (horizontal only)", func(o *compiler.Options) { o.Delta = 0 }},
		{"coalesced d=8 (Sec. IV-A)", func(o *compiler.Options) { o.CoalesceD = 8 }},
	}
	headers := []string{"Variant"}
	headers = append(headers, c.Apps...)
	rows := make([][]string, 0, len(variants))
	for _, v := range variants {
		row := []string{v.name}
		for _, app := range c.Apps {
			spec, err := workloads.ByName(app)
			if err != nil {
				return nil, err
			}
			prog := spec.Build(c.Scale)
			opts := compiler.DefaultOptions(32)
			if v.mutate != nil {
				v.mutate(&opts)
			}
			res, err := compiler.CompileContext(ctx, prog, opts)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%d", res.Schedule.NodeActivations()))
		}
		rows = append(rows, row)
	}
	return &Result{ID: "ablations", Title: "Scheduler design ablations (node-slot activations; lower = tighter grouping)",
		Headers: headers, Rows: rows}, nil
}

// planOracle plans the history-based pass of the oracle comparison (its
// trace-recording and replay passes are stateful and run inline).
func planOracle(c Config) []Request {
	out := make([]Request, 0, len(c.Apps))
	for _, app := range c.Apps {
		out = append(out, c.request(app, power.KindHistory, false, ""))
	}
	return out
}

// oracle compares the history-based policy against an oracle multi-speed
// policy fed the true idle lengths recorded in a first pass — an upper
// bound on what better prediction could buy (ablation beyond the paper).
// The trace-recording and replay passes are coupled through shared state,
// so they bypass the run cache and execute inline.
func oracle(ctx context.Context, s *Session, c Config) (*Result, error) {
	headers := []string{"App", "default (J)", "history (J)", "oracle (J)", "history saving", "oracle saving"}
	rows := make([][]string, 0, len(c.Apps))
	for _, app := range c.Apps {
		spec, err := workloads.ByName(app)
		if err != nil {
			return nil, err
		}
		// Pass 1: Default Scheme, recording the gap trace.
		var trace *metrics.GapTrace
		cfg := cluster.DefaultConfig()
		cfg.Seed = c.Seed
		var eng0 *sim.Engine // captured by the factory below
		cfg.PolicyFactory = func(eng *sim.Engine) (power.Policy, error) {
			if trace == nil {
				eng0 = eng
				trace = metrics.NewGapTrace(func() sim.Time { return eng0.Now() })
			}
			return power.New(eng, power.Config{Kind: power.KindDefault})
		}
		cfg.ExtraIdleRecorder = traceHolder{&trace}
		base, err := cluster.RunContext(ctx, spec.Build(c.Scale), cfg)
		if err != nil {
			return nil, err
		}
		// Pass 2a: history (cache-resolved; also in the experiment plan).
		hist, err := runOne(ctx, s, c, app, power.KindHistory, false)
		if err != nil {
			return nil, err
		}
		// Pass 2b: oracle replaying the recorded gaps.
		cfgO := cluster.DefaultConfig()
		cfgO.Seed = c.Seed
		cfgO.PolicyFactory = func(eng *sim.Engine) (power.Policy, error) {
			return power.NewOracle(eng, power.Config{}, trace), nil
		}
		orc, err := cluster.RunContext(ctx, spec.Build(c.Scale), cfgO)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			app,
			fmt.Sprintf("%.0f", base.EnergyJ),
			fmt.Sprintf("%.0f", hist.EnergyJ),
			fmt.Sprintf("%.0f", orc.EnergyJ),
			metrics.Pct(metrics.EnergySaving(hist.EnergyJ, base.EnergyJ)),
			metrics.Pct(metrics.EnergySaving(orc.EnergyJ, base.EnergyJ)),
		})
	}
	return &Result{ID: "oracle", Title: "Oracle prediction upper bound (ablation)",
		Headers: headers, Rows: rows}, nil
}

// traceHolder defers recorder resolution until the trace exists (the
// factory creates it on first use).
type traceHolder struct{ t **metrics.GapTrace }

func (h traceHolder) RecordIdle(d *disk.Disk, gap sim.Duration) {
	if *h.t != nil {
		(*h.t).RecordIdle(d, gap)
	}
}

// planPALRU plans the LRU (default config) and PA-LRU (variant) runs under
// the simple spin-down policy.
func planPALRU(c Config) []Request {
	out := make([]Request, 0, 2*len(c.Apps))
	for _, app := range c.Apps {
		out = append(out,
			c.request(app, power.KindSimple, false, ""),
			c.request(app, power.KindSimple, false, "pacache"))
	}
	return out
}

// palruCache compares the plain LRU storage cache against the power-aware
// PA-LRU variant (eviction avoids blocks whose disk sleeps) under the
// simple spin-down policy — the related-work direction (§VI) implemented
// as an extension.
func palruCache(ctx context.Context, s *Session, c Config) (*Result, error) {
	headers := []string{"App", "LRU (J)", "PA-LRU (J)", "delta"}
	rows := make([][]string, 0, len(c.Apps))
	for _, app := range c.Apps {
		lru, err := runOne(ctx, s, c, app, power.KindSimple, false)
		if err != nil {
			return nil, err
		}
		pal, _, err := s.run(ctx, c.request(app, power.KindSimple, false, "pacache"))
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			app,
			fmt.Sprintf("%.0f", lru.EnergyJ),
			fmt.Sprintf("%.0f", pal.EnergyJ),
			metrics.Pct(metrics.EnergySaving(pal.EnergyJ, lru.EnergyJ)),
		})
	}
	return &Result{ID: "palru", Title: "Power-aware storage-cache replacement (extension)",
		Headers: headers, Rows: rows}, nil
}
