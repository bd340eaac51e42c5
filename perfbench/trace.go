package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sdds/internal/cluster"
	"sdds/internal/compiler"
	"sdds/internal/harness"
	"sdds/internal/loop"
	"sdds/internal/polyhedral"
	"sdds/internal/power"
	"sdds/internal/probe"
	"sdds/internal/workloads"
)

// Span names: one per public call the traced run times, plus the request
// and set-up roots.
const (
	spanRequest   = "request"
	spanSetupRep  = "setup"
	spanBuild     = "workloads.Spec.Build"
	spanNewSetup  = "cluster.NewSetup"
	spanAnalyze   = "polyhedral.Analyze"
	spanCompile   = "compiler.CompileContext"
	spanRun       = "cluster.RunPrepared"
	spanRunAll    = "harness.Session.RunAll"
	spanRunReq    = "harness.Session.RunRequest"
	noParent      = -1
	ringCapacity  = 1024 // the smallest ring; only its emitted count is read
	bytesPerMB    = 1 << 20
	spanTraceFile = "trace-%s-seed%d.json"
)

// span is one timed call: name, start and end since the tracer's epoch,
// the index of the span that made the call, and the request it served.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	key        string
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine only. A nil tracer records nothing.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int, key string) int {
	if t == nil {
		return noParent
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), end: -1, parent: parent, key: key})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil {
		return 0
	}
	t.spans[i].end = time.Since(t.epoch)
	return t.spans[i].end - t.spans[i].start
}

// selfTimes returns each span's duration minus the part of its interval
// its child spans cover.
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.end - s.start - covered(t.spans, children[i], s.start, s.end)
	}
	return self
}

// covered returns how much of [lo, hi] the union of the given spans
// covers.
func covered(spans []span, idx []int, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].start, lo), min(spans[i].end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, reach time.Duration
	reach = lo
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		if v.a < reach {
			v.a = reach
		}
		total += v.b - v.a
		reach = v.b
	}
	return total
}

// chromeTrace renders the spans as Chrome trace-event JSON: one complete
// event per span on a single track, so nested calls stack.
func (t *tracer) chromeTrace() ([]byte, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{{Name: "thread_name", Ph: "M", Args: map[string]any{"name": "perfbench"}}}
	for i, s := range t.spans {
		dur := float64(s.end-s.start) / float64(time.Microsecond)
		args := map[string]any{"id": i, "key": s.key}
		if s.parent >= 0 {
			args["parent"] = s.parent
		}
		events = append(events, event{
			Name: s.name, Ph: "X", Ts: float64(s.start) / float64(time.Microsecond),
			Dur: &dur, Args: args,
		})
	}
	return json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// writeTrace writes the spans to dir as one Chrome trace file and checks
// the bytes with the repository's trace validator.
func (t *tracer) writeTrace(dir, workload string, seed int64) (string, error) {
	data, err := t.chromeTrace()
	if err != nil {
		return "", err
	}
	problems, _, err := probe.CheckChromeTrace(data)
	if err != nil {
		return "", fmt.Errorf("trace check: %w", err)
	}
	if len(problems) > 0 {
		return "", fmt.Errorf("trace check: %d problems, first: %s", len(problems), problems[0])
	}
	path := filepath.Join(dir, fmt.Sprintf(spanTraceFile, workload, seed))
	return path, os.WriteFile(path, data, 0o644)
}

// layerRun is what the traced, decomposed run of one request measured.
type layerRun struct {
	key                            string
	total, analyze, compile        time.Duration
	simulate                       time.Duration // RunPrepared self time
	compileAllocMB, clusterAllocMB float64
	accesses                       int
	records                        uint64
	res                            *cluster.Result
}

// compileService is the benchmark's cluster.CompileService: it times
// polyhedral.Analyze and compiler.CompileContext as children of the
// RunPrepared span that asks for them. With memo set it serves repeated
// compile keys from memory, as the session compile cache does.
type compileService struct {
	tr     *tracer
	parent int
	lr     *layerRun
	memo   map[string]*compiler.Result
}

func (c *compileService) CompileContext(ctx context.Context, p *loop.Program, opts compiler.Options) (*compiler.Result, compiler.Provenance, error) {
	key, cacheable := compiler.KeyFor(p, opts)
	if cacheable && c.memo != nil {
		if r, ok := c.memo[key]; ok {
			return r, compiler.ProvMemory, nil
		}
	}
	a := c.tr.begin(spanAnalyze, c.parent, c.lr.key)
	_, err := polyhedral.Analyze(p, opts.Procs)
	c.lr.analyze = c.tr.end(a)
	var na *polyhedral.ErrNonAffine
	if err != nil && !errors.As(err, &na) {
		return nil, compiler.ProvNone, err
	}
	before := totalAlloc()
	s := c.tr.begin(spanCompile, c.parent, c.lr.key)
	res, err := compiler.CompileContext(ctx, p, opts)
	c.lr.compile = c.tr.end(s)
	c.lr.compileAllocMB = float64(totalAlloc()-before) / bytesPerMB
	if err != nil {
		return nil, compiler.ProvNone, err
	}
	c.lr.accesses = len(res.Accesses)
	if cacheable && c.memo != nil {
		c.memo[key] = res
	}
	return res, compiler.ProvCompiled, nil
}

// totalAlloc reads the cumulative Go heap bytes allocated.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runConfig derives the cluster config of a normalized request the way
// the harness does (Table II defaults, seed, policy, scheduling, variant).
// The fingerprint check against the harness's own run of the request
// catches any divergence.
func runConfig(req harness.Request) (cluster.Config, error) {
	kind, err := power.ParseKind(req.Policy)
	if err != nil {
		return cluster.Config{}, err
	}
	mutate, err := harness.ParseVariant(req.Variant)
	if err != nil {
		return cluster.Config{}, err
	}
	cfg := cluster.DefaultConfig()
	cfg.Seed = req.Seed
	cfg.Policy = power.Config{Kind: kind}
	cfg.Scheduling = req.Scheduling
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg, nil
}

// decomposed runs one normalized request call by call, each call in its
// own span: build the program, build the setup, and run it with the
// compile pass resolved through the benchmark's compile service. A
// ring-bearing probe counts the simulator's records.
func decomposed(ctx context.Context, tr *tracer, req harness.Request, memo map[string]*compiler.Result) (*layerRun, error) {
	lr := &layerRun{key: req.Key()}
	root := tr.begin(spanRequest, noParent, lr.key)
	defer func() { lr.total = tr.end(root) }()
	spec, err := workloads.ByName(req.App)
	if err != nil {
		return nil, err
	}
	cfg, err := runConfig(req)
	if err != nil {
		return nil, err
	}
	b := tr.begin(spanBuild, root, lr.key)
	prog := spec.Build(req.Scale)
	tr.end(b)
	s := tr.begin(spanNewSetup, root, lr.key)
	setup, err := cluster.NewSetup(prog, cfg.Procs)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	cfg.Probe = probe.NewProbe(ringCapacity)
	r := tr.begin(spanRun, root, lr.key)
	cfg.CompileCache = &compileService{tr: tr, parent: r, lr: lr, memo: memo}
	before := totalAlloc()
	lr.res, err = cluster.RunPrepared(ctx, setup, cfg)
	run := tr.end(r)
	lr.simulate = run - lr.analyze - lr.compile
	lr.clusterAllocMB = float64(totalAlloc()-before)/bytesPerMB - lr.compileAllocMB
	lr.records = cfg.Probe.Emitted()
	if err != nil {
		return nil, err
	}
	return lr, nil
}

// sessionTrace validates the span probe a traced RunAll recorded into,
// through the same exporter and checker the CLIs use.
func sessionTrace(p *probe.Probe) error {
	var buf bytes.Buffer
	if err := probe.WriteChromeTrace(&buf, p, probe.ChromeOptions{}); err != nil {
		return err
	}
	problems, _, err := probe.CheckChromeTrace(buf.Bytes())
	if err != nil {
		return err
	}
	if len(problems) > 0 {
		return fmt.Errorf("session trace: %d problems, first: %s", len(problems), problems[0])
	}
	return nil
}
