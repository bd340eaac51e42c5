package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"sdds/internal/harness"
)

// scale is the workload size every request runs at: the golden matrix's
// scale, small enough that a run measures a hundred or more requests.
const scale = 0.05

// policies are the five power policies of Fig. 12(c)/(d).
var policies = []string{"default", "simple", "prediction-based", "history-based", "staggered"}

// thetas are the per-node concurrency caps sched_compile sweeps.
var thetas = []int{2, 4, 8, 16}

// sweepExperiments are the paper_sweep figures, rendered by one RunAll.
var sweepExperiments = []string{"fig12c", "fig12d", "fig13a", "fig13b"}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	why  string
	apps []string
	// variants lists the per-app request shapes; nil for the sweep, whose
	// requests come from the experiments' run plan.
	variants []harness.Request
}

// sweep reports whether the workload is the RunAll batch.
func (w workload) sweep() bool { return w.variants == nil }

var benchWorkloads = []workload{
	{
		name: "policy_sim",
		why:  "scheduling off, every power policy: all host time is in the simulator, which a compiler change must leave unmoved",
		apps: []string{"sar", "hf", "madbench2", "wupwise"},
		variants: func() []harness.Request {
			var out []harness.Request
			for _, p := range policies {
				out = append(out, harness.Request{Policy: p})
			}
			return out
		}(),
	},
	{
		name: "sched_compile",
		why:  "scheduling on at four theta values with a fresh compile cache per request: compile dominates and every compile misses",
		apps: []string{"sar", "astro", "madbench2", "hf"},
		variants: func() []harness.Request {
			var out []harness.Request
			for _, t := range thetas {
				out = append(out, harness.Request{Policy: "history-based", Scheduling: true, Variant: "theta=" + strconv.Itoa(t)})
			}
			return out
		}(),
	},
	{
		name: "paper_sweep",
		why:  "fig12c/d and fig13a/b in one journaled 2-worker RunAll: run dedup, the shared compile cache, the pool and the store",
		apps: []string{"sar", "madbench2", "hf", "apsi"},
	},
}

// workloadByName finds a workload.
func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// simSeed draws one simulation seed.
func simSeed(rng *rand.Rand) int64 { return 1 + rng.Int63n(1<<30) }

// requests returns the workload's normalized request set (apps ×
// variants) with simulation seeds drawn from seed, in an order drawn from
// seed. The same seed always yields the same list.
func (w workload) requests(seed int64) ([]harness.Request, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []harness.Request
	for _, app := range w.apps {
		for _, v := range w.variants {
			r := v
			r.App = app
			r.Scale = scale
			r.Seed = simSeed(rng)
			n, err := r.Normalize()
			if err != nil {
				return nil, err
			}
			out = append(out, n)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// sweepConfig returns the paper_sweep harness config: the simulation seed
// and the app order are drawn from seed.
func (w workload) sweepConfig(seed int64) harness.Config {
	rng := rand.New(rand.NewSource(seed))
	apps := append([]string(nil), w.apps...)
	s := simSeed(rng)
	rng.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	return harness.Config{Scale: scale, Apps: apps, Seed: s}
}

// experiments resolves the paper_sweep experiment ids.
func experiments() ([]harness.Experiment, error) {
	out := make([]harness.Experiment, 0, len(sweepExperiments))
	for _, id := range sweepExperiments {
		e, err := harness.ByID(id)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// plan returns the distinct runs one pass of the workload executes, in
// canonical key order.
func (w workload) plan(seed int64) ([]harness.Request, error) {
	var reqs []harness.Request
	if w.sweep() {
		exps, err := experiments()
		if err != nil {
			return nil, err
		}
		reqs = harness.PlanRequests(exps, w.sweepConfig(seed))
	} else {
		var err error
		if reqs, err = w.requests(seed); err != nil {
			return nil, err
		}
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].Key() < reqs[j].Key() })
	return reqs, nil
}
