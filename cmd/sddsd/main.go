// Command sddsd is the resident experiment service: a long-lived HTTP
// daemon that accepts canonical run requests (the same harness.Request
// the CLIs build), simulates each distinct configuration exactly once,
// and persists every result in a content-addressed store that survives
// restarts — re-submitting an already-answered sweep simulates nothing.
//
//	sddsd -store results.jsonl -addr 127.0.0.1:8377
//
// Endpoints (all under /v1): POST /runs, POST /sweeps, GET /runs/{key},
// GET /events (SSE progress), GET /status, GET /doctor, GET /metrics
// (Prometheus text), and the sharded-sweep family POST /shards/sweeps,
// /shards/lease, /shards/renew, /shards/complete, GET /shards/status —
// sddsd acts as the lease-based coordinator for sddsworker processes.
// SIGINT/SIGTERM drain inflight runs before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sdds/internal/cliutil"
	"sdds/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runCtx(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sddsd:", err)
		os.Exit(1)
	}
}

func runCtx(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sddsd", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8377", "listen address (host:port; port 0 picks a free port)")
		storeArg = fs.String("store", "", "persistent content-addressed result store (JSONL; required)")
		workers  = fs.Int("workers", 0, "concurrent cluster simulations (0 = GOMAXPROCS)")
		timeout  = fs.Duration("timeout", 0, "per-run wall-clock deadline (0 = none)")
		drain    = fs.Duration("drain", 30*time.Second, "graceful-shutdown budget for inflight runs")
		tail     = fs.Int("tail", 8, "recent store entries reported by /v1/doctor")
		addrFile = fs.String("addr-file", "", "write the resolved listen address to this file (for scripts using port 0)")
		leaseTTL = fs.Duration("lease-ttl", 15*time.Second, "shard lease lifetime; a worker silent this long forfeits its shard")
		shardSz  = fs.Int("shard-size", 4, "default requests per shard for sharded sweeps")
		retries  = fs.Int("shard-retries", 5, "lease grants per shard before it is poisoned")
		grace    = fs.Duration("local-grace", 3*time.Second, "wait this long for a worker before running a sharded sweep locally (negative disables the fallback)")
	)
	var df cliutil.DiagFlags
	df.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *storeArg == "" {
		return fmt.Errorf("-store is required (the persistent result store path)")
	}
	log, closeLog, err := df.NewLogger()
	if err != nil {
		return err
	}
	defer closeLog()
	// The flag spells "<=0 disarms"; the service spells "0 means default".
	// Translate so the flag semantics win.
	watchdog := df.Watchdog
	if watchdog <= 0 {
		watchdog = -1
	}
	srv, err := service.NewServer(service.Options{
		StorePath:        *storeArg,
		Workers:          *workers,
		RunTimeout:       *timeout,
		DrainTimeout:     *drain,
		Tail:             *tail,
		CaptureDir:       df.CaptureDir,
		SlowMultiplier:   watchdog,
		Log:              log,
		LeaseTTL:         *leaseTTL,
		ShardSize:        *shardSz,
		MaxShardAttempts: *retries,
		LocalGrace:       *grace,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		return err
	}
	resolved := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(resolved), 0o644); err != nil {
			ln.Close()
			srv.Close()
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "sddsd: listening on http://%s (store %s)\n", resolved, *storeArg)
	return srv.Serve(ctx, ln)
}
