// Package compilecache memoizes compile results across a session's worker
// pool. The compile pass — slack analysis plus scheduling-table
// construction — is a pure function of (program, procs, compiler.Options),
// so sweep points that differ only in runtime knobs (seed, power policy,
// RPM set, buffer size, faults) share one result. The cache is an
// in-process singleflight memo keyed by the canonical compile key.
package compilecache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"sdds/internal/compiler"
	"sdds/internal/loop"
)

// errAbandoned marks a memo entry whose owner was cancelled before
// producing a result; waiters retry and one of them becomes the new owner.
var errAbandoned = errors.New("compilecache: compile abandoned")

// entry is one singleflight cell.
type entry struct {
	done chan struct{}
	res  *compiler.Result
	err  error
}

// Cache is an in-process compile-result memo, safe for concurrent use.
type Cache struct {
	mu   sync.Mutex
	memo map[string]*entry

	hits        atomic.Int64
	misses      atomic.Int64
	uncacheable atomic.Int64
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{memo: make(map[string]*entry)}
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	// Hits counts compiles served from the memo.
	Hits int64 `json:"hits"`
	// Misses counts compiles that ran fresh.
	Misses int64 `json:"misses"`
	// Uncacheable counts compiles that bypassed the cache because a
	// non-serializable input (custom region, random ties) defeats keying.
	Uncacheable int64 `json:"uncacheable"`
	// Entries is the current memo size.
	Entries int `json:"entries"`
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries := len(c.memo)
	c.mu.Unlock()
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Uncacheable: c.uncacheable.Load(),
		Entries:     entries,
	}
}

// CompileContext resolves the compile pass for (program, options) through
// the cache, reporting where the result came from. Concurrent callers
// with the same key share one compile (singleflight); a cancelled owner
// abandons its cell so waiters retry rather than inherit the
// cancellation. Deterministic compile errors are cached like results.
// It satisfies cluster.CompileService.
func (c *Cache) CompileContext(ctx context.Context, p *loop.Program, opts compiler.Options) (*compiler.Result, compiler.Provenance, error) {
	key, ok := compiler.KeyFor(p, opts)
	if !ok {
		c.uncacheable.Add(1)
		res, err := compiler.CompileContext(ctx, p, opts)
		return res, compiler.ProvUncacheable, err
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, compiler.ProvNone, err
		}
		c.mu.Lock()
		if e, ok := c.memo[key]; ok {
			c.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, compiler.ProvNone, ctx.Err()
			}
			if errors.Is(e.err, errAbandoned) {
				continue // owner cancelled; race for the cell again
			}
			c.hits.Add(1)
			return e.res, compiler.ProvMemory, e.err
		}
		e := &entry{done: make(chan struct{})}
		c.memo[key] = e
		c.mu.Unlock()

		res, err := compiler.CompileContext(ctx, p, opts)
		if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// Cancellation reflects this caller's context, not the compile
			// input: never poison the cell with it.
			c.mu.Lock()
			delete(c.memo, key)
			c.mu.Unlock()
			e.err = errAbandoned
			close(e.done)
			return nil, compiler.ProvNone, err
		}
		if err == nil {
			c.misses.Add(1)
		}
		e.res, e.err = res, err
		close(e.done)
		return res, compiler.ProvCompiled, err
	}
}
