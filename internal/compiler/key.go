package compiler

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"sdds/internal/loop"
)

// keyVersion tags the canonical rendering; bump it whenever the rendering
// or the semantics of any rendered field change, so keys from different
// renderings can never collide.
const keyVersion = "sdds-compile-key-v1"

// KeyFor derives the canonical content-addressed compile key for
// (program, options): a SHA-256 over a fixed-order textual rendering of
// every input the compile pass is a function of — the program structure
// and the semantic options (procs, layout, δ, θ, slot bytes, max advance,
// coalescing, profile forcing, order, weights). Runtime-only knobs (seed,
// power policy, buffer size, fault spec, probes) are not compile inputs
// and never reach this function, so equal keys across such variants is
// structural. The rendering is independent of Options field order and
// treats zero-value defaults canonically (CoalesceD 0 and 1 render
// identically).
//
// ok=false marks the compilation uncacheable: a non-serializable input is
// present (a Stmt.Custom region function or an Options.RandomTies tie
// breaker), so no content key can capture it.
func KeyFor(p *loop.Program, opts Options) (string, bool) {
	if opts.RandomTies != nil {
		return "", false
	}
	for _, n := range p.Nests {
		for _, s := range n.Body {
			if s.Custom != nil {
				return "", false
			}
		}
	}
	h := sha256.New()
	writeKeyMaterial(h, p, opts)
	return hex.EncodeToString(h.Sum(nil)), true
}

// writeKeyMaterial renders the canonical key material. Every field is
// prefixed with a stable label and the variable-length sections carry
// explicit counts, so no two distinct inputs can render identically.
func writeKeyMaterial(w io.Writer, p *loop.Program, opts Options) {
	fmt.Fprintf(w, "%s\n", keyVersion)
	fmt.Fprintf(w, "procs=%d\n", opts.Procs)
	fmt.Fprintf(w, "layout=%d,%d,%d\n", opts.Layout.NumNodes, opts.Layout.StripeSize, opts.Layout.FirstNode)
	fmt.Fprintf(w, "delta=%d theta=%d slotbytes=%d maxadvance=%d\n",
		opts.Delta, opts.Theta, opts.SlotBytes, opts.MaxAdvance)
	fmt.Fprintf(w, "coalesce=%d\n", coalesceFactor(opts))
	fmt.Fprintf(w, "forceprofile=%t order=%d noweights=%t\n",
		opts.ForceProfile, int(opts.Order), opts.NoWeights)
	fmt.Fprintf(w, "program=%q files=%d nests=%d\n", p.Name, len(p.Files), len(p.Nests))
	for _, f := range p.Files {
		fmt.Fprintf(w, "file=%d,%q,%d\n", f.ID, f.Name, f.Size)
	}
	for _, n := range p.Nests {
		fmt.Fprintf(w, "nest=%q trips=%d parallel=%t itercost=%d body=%d\n",
			n.Name, n.Trips, n.Parallel, int64(n.IterCost), len(n.Body))
		for _, s := range n.Body {
			fmt.Fprintf(w, "stmt=%d file=%d region=%d,%d,%d,%d cost=%d every=%d\n",
				int(s.Kind), s.File,
				s.Region.Base, s.Region.IterCoef, s.Region.ProcCoef, s.Region.Len,
				int64(s.Cost), s.Every)
		}
	}
}
