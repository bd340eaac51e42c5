// Package hotalloc implements the sddsvet analyzer guarding the
// allocation-free event hot path. PR 2 removed the per-event closure and
// boxing allocations by pre-binding handlers (sim.Handler/sim.ArgHandler
// fields initialized once at construction) and recycling events through the
// engine's free list; this analyzer keeps those call sites from regressing:
//
//   - anywhere in the module, a capturing function literal passed directly
//     to sim.Engine.ScheduleFunc or ScheduleArg is reported — each such call
//     allocates a closure per scheduled event, exactly the cost the
//     de-closuring removed. Startup-only sites may carry
//     //sddsvet:ignore hotalloc -- <reason>.
//
//   - inside functions annotated //sddsvet:hotpath, every per-call heap
//     allocation is reported: capturing closures (wherever they flow),
//     new(T), &T{...}, make, and slice/map composite literals.
//
//   - inside the same hotpath functions, any call into encoding/json is
//     reported: (de)serialization belongs to the journal restore and
//     store layers, which run once per run — a Marshal on the per-event
//     path allocates and reflects per call.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"sdds/internal/analysis"
	"sdds/internal/analysis/callsum"
)

const simPkg = "sdds/internal/sim"

// scheduleMethods are the fire-and-forget scheduling entry points whose
// events are free-listed; a closure argument defeats the point.
var scheduleMethods = map[string]bool{"ScheduleFunc": true, "ScheduleArg": true}

// Analyzer reports hot-path allocations.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flags capturing closures passed to sim.Engine.ScheduleFunc/ScheduleArg, " +
		"any per-call allocation inside //sddsvet:hotpath functions, and " +
		"encoding/json (de)serialization on those hot paths",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && analysis.IsHotpath(fd) && fd.Body != nil {
				checkHotpathBody(pass, fd)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkScheduleCall(pass, call)
			return true
		})
	}
	return nil
}

// checkScheduleCall reports capturing closures handed to the engine's
// allocation-free scheduling primitives.
func checkScheduleCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || !scheduleMethods[fn.Name()] || !analysis.IsMethodOn(fn, simPkg, "Engine") {
		return
	}
	for _, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.FuncLit)
		if !ok {
			continue
		}
		if analysis.Captures(pass.TypesInfo, lit) {
			pass.Reportf(lit.Pos(), "capturing closure passed to Engine.%s allocates per scheduled event; pre-bind a sim.Handler/sim.ArgHandler (or //sddsvet:ignore hotalloc for startup-only sites)", fn.Name())
		}
	}
}

// checkHotpathBody reports every per-call allocation inside a
// //sddsvet:hotpath function.
func checkHotpathBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if analysis.Captures(pass.TypesInfo, n) {
				pass.Reportf(n.Pos(), "capturing closure in hotpath function %s allocates per call", name)
			}
			return true
		case *ast.CallExpr:
			if fn := analysis.CalleeFunc(pass.TypesInfo, n); fn != nil {
				if fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" {
					pass.Reportf(n.Pos(), "encoding/json.%s in hotpath function %s reflects and allocates per call; (de)serialization belongs in the restore/store layer, outside the event path", fn.Name(), name)
					return true
				}
				checkTransitiveCall(pass, fd, n, fn)
				return true
			}
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			switch id.Name {
			case "new":
				pass.Reportf(n.Pos(), "new(...) in hotpath function %s allocates per call", name)
			case "make":
				pass.Reportf(n.Pos(), "make(...) in hotpath function %s allocates per call", name)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal in hotpath function %s escapes and allocates per call", name)
					return false // don't double-report the literal itself
				}
			}
		case *ast.CompositeLit:
			if t, ok := pass.TypesInfo.Types[n]; ok {
				switch t.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(n.Pos(), "slice/map literal in hotpath function %s allocates per call", name)
				}
			}
		}
		return true
	})
}

// checkTransitiveCall reports a hotpath call whose callee — any number of
// levels down, across packages — performs a per-call allocation, carrying
// the full chain ("disk.transfer → ionode.flushBatch → fmt.Sprintf
// allocates"). Callees that are themselves //sddsvet:hotpath are skipped:
// they are held to the same standard where they are declared, so the
// violation is reported (or suppressed) exactly once, at the leaf-most
// annotated function.
func checkTransitiveCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, fn *types.Func) {
	if fn.Pkg() == nil || pass.Mod == nil || pass.Mod.Package(fn.Pkg().Path()) == nil {
		return
	}
	sums := callsum.Of(pass.Mod)
	sum := sums.ForFunc(fn)
	if sum == nil || sum.Hotpath || sum.Effect(callsum.Alloc) == nil {
		return
	}
	caller, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	chain := sums.CallChain(caller, call.Pos(), fn, callsum.Alloc)
	pass.ReportChain(call.Pos(), chain,
		"call allocates on the hot path: %s", callsum.Render(chain))
}
