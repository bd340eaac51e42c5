// Package cluster wires the full simulated system of Fig. 1 and executes a
// program on it: client processes (one per client node) advancing through
// their scheduling slots, the MPI-IO middleware striping I/O over the I/O
// nodes, per-disk power policies, and — when the framework is enabled — the
// compiler pass plus the runtime data access scheduler with its global
// client buffer. It produces the measurements every figure of the paper is
// built from: execution time, disk energy, and the idle-period histogram.
package cluster

import (
	"context"
	"fmt"

	"sdds/internal/compiler"
	"sdds/internal/disk"
	"sdds/internal/fault"
	"sdds/internal/ionode"
	"sdds/internal/loop"
	"sdds/internal/netsim"
	"sdds/internal/power"
	"sdds/internal/probe"
	"sdds/internal/sim"
	"sdds/internal/stripe"
)

// Config describes one simulated run.
type Config struct {
	// Procs is the number of client (compute) nodes; Table II: 32.
	Procs int
	// Layout stripes files over the I/O nodes; Table II: 8 nodes, 64 KB.
	Layout stripe.Layout
	// Node configures each I/O node (disks, RAID, storage cache).
	Node ionode.Config
	// Net configures the interconnect.
	Net netsim.Config
	// Policy selects the disk power-management mechanism.
	Policy power.Config
	// PolicyFactory, when non-nil, overrides Policy: it is invoked once per
	// disk to build the power manager (used by the Oracle ablation, which
	// needs a policy wired to an external hint source).
	PolicyFactory func(eng *sim.Engine) (power.Policy, error)
	// ExtraIdleRecorder, when non-nil, additionally receives every idle gap
	// (the built-in histogram always records); used to capture gap traces
	// for the Oracle ablation's second pass.
	ExtraIdleRecorder disk.IdleRecorder
	// Scheduling enables the paper's framework (compiler pass + runtime
	// scheduler).
	Scheduling bool
	// Compiler parameterizes the pass when Scheduling is on.
	Compiler compiler.Options
	// BufferBytes is the client-side global buffer capacity.
	BufferBytes int64
	// BufferHitTime is the cost of consuming a prefetched block.
	BufferHitTime sim.Duration
	// ComputeJitter varies per-slot compute cost by ±Jitter (fraction),
	// deterministically per (seed, process, slot). It models the compute
	// variability that keeps client processes out of lock-step ("application
	// processes on different client nodes do not execute in a lock-step
	// fashion", §III).
	ComputeJitter float64
	// Seed drives all randomized choices; equal seeds → identical runs.
	Seed int64
	// Probe, when non-nil, is attached to the engine as the run's flight
	// recorder: device models emit power-state, I/O, cache, and buffer
	// records into its ring, and the runner wraps its compile and simulate
	// phases in spans. Tracing never perturbs the simulation — a traced run
	// is bit-identical to an untraced one. A ring-bearing probe must not be
	// shared across concurrent runs (use probe.NewSpanProbe for that).
	Probe *probe.Probe
	// Faults, when non-nil, attaches a deterministic fault injector to the
	// run: transient disk errors, bad-sector remaps, spin-up failures and
	// delays, network drops/duplicates, and I/O-node stalls, each drawn from
	// its own seeded stream (mixed with Seed). A nil config — or one with
	// all-zero rates — leaves the run bit-identical to a fault-free run.
	Faults *fault.Config
	// CompileCache, when non-nil, resolves the compile pass through a
	// shared compile memo (internal/compilecache) instead of compiling
	// inline. Like Probe, it is a runtime knob rather than part of run
	// identity: the compile pass is a pure function of its key, so equal
	// configs produce bit-identical results with the cache off, cold, or
	// warm.
	CompileCache CompileService
}

// CompileService resolves a compile pass, possibly from a cache, and
// reports where the result came from. internal/compilecache implements it;
// cluster depends only on this interface, so callers can plug in their own
// (an instrumented memo, for example).
type CompileService interface {
	CompileContext(ctx context.Context, p *loop.Program, opts compiler.Options) (*compiler.Result, compiler.Provenance, error)
}

// DefaultConfig returns the Table II system: 32 clients, 8 I/O nodes with
// 64 KB striping, RAID5 nodes with 64 MB caches, the Default power policy
// and the framework off.
func DefaultConfig() Config {
	layout := stripe.DefaultLayout()
	return Config{
		Procs:         32,
		Layout:        layout,
		Node:          ionode.DefaultConfig(),
		Net:           netsim.DefaultConfig(layout.NumNodes),
		Policy:        power.Config{Kind: power.KindDefault},
		Scheduling:    false,
		Compiler:      compiler.DefaultOptions(32),
		BufferBytes:   128 << 20,
		BufferHitTime: sim.MilliToTime(0.05),
		ComputeJitter: 0.15,
		Seed:          1,
	}
}

// Validate reports the first configuration problem, or nil. It also keeps
// the sub-configurations mutually consistent.
func (c Config) Validate() error {
	if c.Procs <= 0 {
		return fmt.Errorf("cluster: procs %d must be positive", c.Procs)
	}
	if err := c.Layout.Validate(); err != nil {
		return err
	}
	if err := c.Node.Validate(); err != nil {
		return err
	}
	if err := c.Net.Validate(); err != nil {
		return err
	}
	if c.Net.NumNodes != c.Layout.NumNodes {
		return fmt.Errorf("cluster: network has %d nodes, layout %d", c.Net.NumNodes, c.Layout.NumNodes)
	}
	if c.BufferBytes <= 0 {
		return fmt.Errorf("cluster: buffer %d bytes must be positive", c.BufferBytes)
	}
	if c.BufferHitTime < 0 {
		return fmt.Errorf("cluster: negative buffer hit time")
	}
	if c.ComputeJitter < 0 || c.ComputeJitter >= 1 {
		return fmt.Errorf("cluster: compute jitter %v must be in [0,1)", c.ComputeJitter)
	}
	if c.Scheduling {
		opts := c.Compiler
		opts.Procs = c.Procs
		opts.Layout = c.Layout
		if err := opts.Validate(); err != nil {
			return err
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// normalized returns a copy with derived fields made consistent.
func (c Config) normalized() Config {
	c.Net.NumNodes = c.Layout.NumNodes
	c.Compiler.Procs = c.Procs
	c.Compiler.Layout = c.Layout
	return c
}
