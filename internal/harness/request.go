package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"sdds/internal/cluster"
	"sdds/internal/fault"
	"sdds/internal/loop"
	"sdds/internal/power"
	"sdds/internal/strutil"
	"sdds/internal/workloads"
)

// Request is the canonical, JSON-serializable description of one cluster
// simulation: everything that determines the result, and nothing else. It
// is the single submission model shared by the CLIs (via internal/cliutil),
// the sddsd HTTP service, the session run cache, and the persistent result
// store — a run is content-addressed by Key/ContentKey, so two requests
// that normalize equally always dedup onto one simulation.
//
// The zero values of Policy, Scale and Seed normalize to the Table II
// defaults ("default", 1.0, 1). Variant is a canonical config-mutation tag
// in the grammar of ParseVariant ("" = the unmodified Table II cluster);
// Faults is a canonical fault-injection spec in the grammar of
// fault.ParseSpec ("" = no injection).
type Request struct {
	// App names one of the six Table III applications.
	App string `json:"app"`
	// Policy is the power policy name ("default", "simple",
	// "prediction-based", "history-based", "staggered"; short forms accepted
	// and canonicalized by Normalize).
	Policy string `json:"policy,omitempty"`
	// Scheduling enables the compiler-directed scheduling framework.
	Scheduling bool `json:"scheduling,omitempty"`
	// Scale multiplies workload trip counts (0 → 1.0, the full size).
	Scale float64 `json:"scale,omitempty"`
	// Seed feeds the cluster simulation (0 → 1).
	Seed int64 `json:"seed,omitempty"`
	// Variant is the canonical cluster-config mutation tag, e.g. "theta=8"
	// or "nodes=16,procs=64" (see ParseVariant).
	Variant string `json:"variant,omitempty"`
	// Faults is the canonical fault-injection spec (fault.ParseSpec form).
	Faults string `json:"faults,omitempty"`
	// TimeoutMS, when positive, bounds the run's wall-clock time. It is an
	// execution knob, not part of the canonical key: a run that completes
	// is the same result under any timeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// policyNames are the accepted -policy spellings, for did-you-mean
// suggestions when parsing fails.
var policyNames = []string{
	"default", "simple", "prediction", "prediction-based",
	"history", "history-based", "staggered",
}

// Normalize returns the request in canonical form: defaults applied,
// policy/variant/faults rendered canonically. Two requests describing the
// same simulation normalize to equal values (TimeoutMS aside), which is
// what makes Key content-addressing sound. It reports the first
// validation problem — unknown app or policy (with suggestions), malformed
// variant or fault spec — as an error.
func (r Request) Normalize() (Request, error) {
	if r.App == "" {
		return r, fmt.Errorf("harness: request has no app (have %v)", workloads.Names())
	}
	if _, err := workloads.ByName(r.App); err != nil {
		return r, err
	}
	if r.Policy == "" {
		r.Policy = power.KindDefault.String()
	} else {
		kind, err := power.ParseKind(r.Policy)
		if err != nil {
			if sug := strutil.Suggest(r.Policy, policyNames); len(sug) > 0 {
				return r, fmt.Errorf("harness: unknown policy %q (did you mean %s?)",
					r.Policy, strings.Join(sug, " or "))
			}
			return r, err
		}
		r.Policy = kind.String()
	}
	if r.Scale == 0 {
		r.Scale = 1.0
	}
	if err := checkScale(r.Scale); err != nil {
		return r, err
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	variant, err := canonVariant(r.Variant)
	if err != nil {
		return r, err
	}
	r.Variant = variant
	fc, err := fault.ParseSpec(r.Faults)
	if err != nil {
		return r, err
	}
	r.Faults = fc.Canon()
	if r.TimeoutMS < 0 {
		return r, fmt.Errorf("harness: negative timeout %dms", r.TimeoutMS)
	}
	return r, nil
}

// checkScale rejects a negative or non-finite workload scale. NaN and ±Inf
// would otherwise reach the workload generators (which clamp the bad trip
// counts into a plausible-looking run), and a NaN-scale request is not
// even equal to itself as a session-memo key.
func checkScale(scale float64) error {
	if scale < 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return fmt.Errorf("harness: scale %v must be a positive finite number", scale)
	}
	return nil
}

// Validate reports the first problem with the request, or nil.
func (r Request) Validate() error {
	_, err := r.Normalize()
	return err
}

// canonical strips the execution-only fields, leaving exactly the cache
// identity. The session memo and the content key both use this form.
func (r Request) canonical() Request {
	r.TimeoutMS = 0
	return r
}

// Key renders the request's canonical identity as one readable line:
//
//	app=sar|policy=history-based|sched=true|scale=1|seed=1|variant=theta=8|faults=
//
// Equal keys mean bit-identical results (the simulator is deterministic in
// its inputs). The request must be normalized first; Key does not
// normalize.
func (r Request) Key() string {
	r = r.canonical()
	return strings.Join([]string{
		"app=" + r.App,
		"policy=" + r.Policy,
		"sched=" + strconv.FormatBool(r.Scheduling),
		"scale=" + strconv.FormatFloat(r.Scale, 'g', -1, 64),
		"seed=" + strconv.FormatInt(r.Seed, 10),
		"variant=" + r.Variant,
		"faults=" + r.Faults,
	}, "|")
}

// ContentKey is the content address of the request's result: the SHA-256
// of Key in hex. It names the run in the persistent store and in the
// service's /v1/runs/{key} URLs.
func (r Request) ContentKey() string {
	sum := sha256.Sum256([]byte(r.Key()))
	return hex.EncodeToString(sum[:])
}

// Tag renders the request for progress lines, e.g.
// "sar/history-based+sched (theta=8)". Like Key, it renders the fields as
// given: normalize first.
func (r Request) Tag() string {
	s := r.App + "/" + r.Policy
	if r.Scheduling {
		s += "+sched"
	}
	if r.Variant != "" {
		s += " (" + r.Variant + ")"
	}
	return s
}

// BuildRun resolves the request to its simulation inputs: the scaled
// workload program and the fully-derived cluster config. It is the one
// translation from the canonical request model to cluster.RunContext
// arguments — the session's workers and direct runners (sddsim) share it.
func (r Request) BuildRun() (*loop.Program, cluster.Config, error) {
	r, err := r.Normalize()
	if err != nil {
		return nil, cluster.Config{}, err
	}
	spec, err := workloads.ByName(r.App)
	if err != nil {
		return nil, cluster.Config{}, err
	}
	kind, err := power.ParseKind(r.Policy)
	if err != nil {
		return nil, cluster.Config{}, err
	}
	mutate, err := ParseVariant(r.Variant)
	if err != nil {
		return nil, cluster.Config{}, err
	}
	fc, err := fault.ParseSpec(r.Faults)
	if err != nil {
		return nil, cluster.Config{}, err
	}
	cfg := cluster.DefaultConfig()
	cfg.Seed = r.Seed
	cfg.Policy = power.Config{Kind: kind}
	cfg.Scheduling = r.Scheduling
	cfg.Faults = fc
	if mutate != nil {
		mutate(&cfg)
	}
	return spec.Build(r.Scale), cfg, nil
}

// Variant grammar
//
// A variant tag canonically names a deviation from the Table II cluster
// config: a comma-separated list of elements, each "key=value" (or the
// bare flag "pacache"), sorted, with elements equal to the defaults
// dropped. The same grammar backs the in-process experiment sweeps
// (fig13c tags "nodes=16", fig14a tags "theta=8", cachesens tags
// "cache=32MB") and externally-submitted requests, so both address the
// same store entries.

// variantKeys lists the grammar's keys for did-you-mean suggestions.
var variantKeys = []string{"cache", "delta", "nodes", "pacache", "procs", "theta"}

// variantElem is one parsed element: its canonical rendering plus the
// config mutation it denotes. A defaulted element renders as "".
type variantElem struct {
	canon  string
	mutate func(*cluster.Config)
}

// parseVariantElem parses one element of a variant tag.
func parseVariantElem(field string) (variantElem, error) {
	key, val, hasVal := strings.Cut(field, "=")
	key = strings.TrimSpace(key)
	val = strings.TrimSpace(val)
	def := cluster.DefaultConfig()
	intVal := func() (int, error) {
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("harness: variant %s=%q: want a non-negative integer", key, val)
		}
		return n, nil
	}
	switch key {
	case "pacache":
		if hasVal && val != "true" {
			return variantElem{}, fmt.Errorf("harness: variant pacache takes no value (got %q)", val)
		}
		return variantElem{canon: "pacache", mutate: func(cfg *cluster.Config) {
			cfg.Node.PowerAwareCache = true
		}}, nil
	case "procs":
		n, err := intVal()
		if err != nil {
			return variantElem{}, err
		}
		if n == def.Procs {
			return variantElem{}, nil
		}
		return variantElem{canon: "procs=" + strconv.Itoa(n), mutate: func(cfg *cluster.Config) {
			cfg.Procs = n
		}}, nil
	case "nodes":
		n, err := intVal()
		if err != nil {
			return variantElem{}, err
		}
		if n == def.Layout.NumNodes {
			return variantElem{}, nil
		}
		return variantElem{canon: "nodes=" + strconv.Itoa(n), mutate: func(cfg *cluster.Config) {
			cfg.Layout.NumNodes = n
			cfg.Net.NumNodes = n
		}}, nil
	case "delta":
		n, err := intVal()
		if err != nil {
			return variantElem{}, err
		}
		if n == def.Compiler.Delta {
			return variantElem{}, nil
		}
		return variantElem{canon: "delta=" + strconv.Itoa(n), mutate: func(cfg *cluster.Config) {
			cfg.Compiler.Delta = n
		}}, nil
	case "theta":
		n, err := intVal()
		if err != nil {
			return variantElem{}, err
		}
		if n == def.Compiler.Theta {
			return variantElem{}, nil
		}
		return variantElem{canon: "theta=" + strconv.Itoa(n), mutate: func(cfg *cluster.Config) {
			cfg.Compiler.Theta = n
		}}, nil
	case "cache":
		b, err := parseCacheBytes(val)
		if err != nil {
			return variantElem{}, err
		}
		if b == def.Node.CacheBytes {
			return variantElem{}, nil
		}
		return variantElem{canon: "cache=" + renderCacheBytes(b), mutate: func(cfg *cluster.Config) {
			cfg.Node.CacheBytes = b
		}}, nil
	}
	if sug := strutil.Suggest(key, variantKeys); len(sug) > 0 {
		return variantElem{}, fmt.Errorf("harness: unknown variant key %q (did you mean %s?)",
			key, strings.Join(sug, " or "))
	}
	return variantElem{}, fmt.Errorf("harness: unknown variant key %q (have %v)", key, variantKeys)
}

// parseCacheBytes accepts a byte count or an "MB"-suffixed size ("32MB").
func parseCacheBytes(val string) (int64, error) {
	s := val
	mb := false
	if cut, ok := strings.CutSuffix(s, "MB"); ok {
		s, mb = cut, true
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("harness: variant cache=%q: want bytes or an MB size like 32MB", val)
	}
	if mb {
		if n > math.MaxInt64>>20 {
			return 0, fmt.Errorf("harness: variant cache=%q: size overflows", val)
		}
		n <<= 20
	}
	return n, nil
}

// renderCacheBytes renders whole megabytes as "NMB", else raw bytes —
// matching the tags the cachesens sweep has always used.
func renderCacheBytes(b int64) string {
	if b%(1<<20) == 0 {
		return strconv.FormatInt(b>>20, 10) + "MB"
	}
	return strconv.FormatInt(b, 10)
}

// parseVariantElems parses a tag into its live elements (defaulted ones
// dropped), sorted canonically.
func parseVariantElems(tag string) ([]variantElem, error) {
	tag = strings.TrimSpace(tag)
	if tag == "" {
		return nil, nil
	}
	var elems []variantElem
	seen := make(map[string]bool)
	for _, field := range strings.Split(tag, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		e, err := parseVariantElem(field)
		if err != nil {
			return nil, err
		}
		if e.canon == "" {
			continue // element restates a default: canonically absent
		}
		key, _, _ := strings.Cut(e.canon, "=")
		if seen[key] {
			return nil, fmt.Errorf("harness: variant key %q repeated in %q", key, tag)
		}
		seen[key] = true
		elems = append(elems, e)
	}
	sort.Slice(elems, func(i, j int) bool { return elems[i].canon < elems[j].canon })
	return elems, nil
}

// canonVariant re-renders a variant tag in canonical form: elements
// sorted, values normalized, defaults dropped.
func canonVariant(tag string) (string, error) {
	elems, err := parseVariantElems(tag)
	if err != nil {
		return "", err
	}
	parts := make([]string, len(elems))
	for i, e := range elems {
		parts[i] = e.canon
	}
	return strings.Join(parts, ","), nil
}

// ParseVariant resolves a variant tag into the cluster-config mutation it
// denotes (nil for the empty tag). Supported elements: procs=N, nodes=N,
// delta=N, theta=N (0 = unbounded), cache=SIZE (bytes or "32MB"), and the
// bare flag pacache (power-aware storage-cache replacement).
func ParseVariant(tag string) (func(*cluster.Config), error) {
	elems, err := parseVariantElems(tag)
	if err != nil {
		return nil, err
	}
	if len(elems) == 0 {
		return nil, nil
	}
	return func(cfg *cluster.Config) {
		for _, e := range elems {
			e.mutate(cfg)
		}
	}, nil
}

// VariantOverrides captures the cluster-config knobs a client may deviate
// from the Table II defaults, for building a canonical variant tag from
// CLI flags or API parameters. Zero values mean "leave at the default".
type VariantOverrides struct {
	// Procs overrides the client (compute) node count (default 32).
	Procs int
	// Nodes overrides the I/O node count (default 8).
	Nodes int
	// Delta overrides the vertical reuse range δ (default 20).
	Delta int
	// Theta overrides the per-node concurrency cap θ (default 4); -1 means
	// unbounded (θ=0).
	Theta int
	// CacheBytes overrides the per-node storage-cache capacity (default
	// 64 MB).
	CacheBytes int64
	// PACache enables power-aware storage-cache replacement.
	PACache bool
}

// Tag renders the overrides as a canonical variant tag ("" when every
// field is at its default).
func (o VariantOverrides) Tag() string {
	var parts []string
	if o.Procs > 0 {
		parts = append(parts, "procs="+strconv.Itoa(o.Procs))
	}
	if o.Nodes > 0 {
		parts = append(parts, "nodes="+strconv.Itoa(o.Nodes))
	}
	if o.Delta > 0 {
		parts = append(parts, "delta="+strconv.Itoa(o.Delta))
	}
	if o.Theta == -1 {
		parts = append(parts, "theta=0")
	} else if o.Theta > 0 {
		parts = append(parts, "theta="+strconv.Itoa(o.Theta))
	}
	if o.CacheBytes > 0 {
		parts = append(parts, "cache="+renderCacheBytes(o.CacheBytes))
	}
	if o.PACache {
		parts = append(parts, "pacache")
	}
	tag, err := canonVariant(strings.Join(parts, ","))
	if err != nil {
		// Every branch above emits grammar-valid elements; a failure here is
		// a programming error, not user input.
		panic("harness: VariantOverrides produced an unparseable tag: " + err.Error())
	}
	return tag
}
