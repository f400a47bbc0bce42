package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HTMSafe walks the call graph of every closure passed to htm.Region.Run /
// RunOutcome and rejects anything that would guarantee an abort (or worse)
// on real restricted transactional memory:
//
//   - cache-line flushes and fences (Arena Persist/PersistStream/Fence/
//     EvictLine, and Tx.Persist — a flush inside a transaction always
//     aborts, §2.2);
//   - direct arena access that bypasses the transactional read/write sets
//     (zombie reads, unbuffered stores);
//   - blocking operations: channel sends/receives/selects, sync and sync2
//     lock acquisition, time.Sleep, goroutine launches;
//   - unbounded allocation: make/append, and calls into packages outside a
//     small allowlist (any heap allocation can trigger a GC cycle, the
//     static analogue of a capacity/interrupt abort);
//   - nested transactions: Region.Run/RunOutcome and the Region line ops
//     (LoadLine, StoreLine, CopyLine).
//
// Audited exceptions carry the //htm:safe annotation.
var HTMSafe = &Analyzer{
	Name: "htmsafe",
	Doc:  "closures passed to htm.Region.Run must not flush, block or allocate",
	Run:  runHTMSafe,
}

// htmAllowedPkgs are external packages whose functions are deemed HTM-safe:
// pure compute with no allocation or syscalls.
var htmAllowedPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// htmAllowedArena / htmAllowedRegion / htmAllowedSync2 are the read-only,
// non-blocking methods of the modeled packages.
var (
	htmAllowedArena  = map[string]bool{"Size": true, "Latency": true}
	htmAllowedRegion = map[string]bool{"Arena": true, "Stats": true, "FallbackHeld": true}
	htmBlockingSync2 = map[string]bool{"Lock": true, "StableVersion": true}
	// htmRegionLineOps are transactions of their own: inside a Run body
	// they nest, as Run does.
	htmRegionLineOps = map[string]bool{"LoadLine": true, "StoreLine": true, "CopyLine": true}
)

func runHTMSafe(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(pass.Pkg.Info, call)
			if !isRegionMethod(fn) || (fn.Name() != "Run" && fn.Name() != "RunOutcome") {
				return true
			}
			if len(call.Args) != 1 {
				return true
			}
			body := ast.Unparen(call.Args[0])
			switch b := body.(type) {
			case *ast.FuncLit:
				checkHTMBody(pass, pass.Pkg, b.Body, make(map[*types.Func]bool), 0)
			default:
				// A named function or method value: resolve and walk it.
				if callee := funcValueOf(pass.Pkg.Info, body); callee != nil {
					checkHTMCallee(pass, callee, body.Pos(), make(map[*types.Func]bool), 0)
				} else {
					pass.Reportf(body.Pos(),
						"cannot statically verify the body passed to htm.Region.%s (audit it and annotate //htm:safe)", fn.Name())
				}
			}
			return true
		})
	}
}

// funcValueOf resolves an expression used as a function value to its
// declared *types.Func, when it is a plain reference.
func funcValueOf(info *types.Info, expr ast.Expr) *types.Func {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[e].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		if f, ok := info.Uses[e.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

const htmMaxDepth = 12

// checkHTMCallee verifies a named function reachable from an HTM region:
// target-package bodies are walked transitively; externals are classified
// by package.
func checkHTMCallee(pass *Pass, fn *types.Func, callPos token.Pos, seen map[*types.Func]bool, depth int) {
	if fn == nil || seen[fn] || depth > htmMaxDepth {
		return
	}
	seen[fn] = true
	name := fn.Name()
	switch {
	case isTxMethod(fn):
		if name == "Persist" {
			pass.Reportf(callPos, "Tx.Persist inside HTM region: a cache-line flush always aborts the transaction (hoist the persist outside Region.Run)")
		}
		return // other Tx methods are the transactional API itself
	case isArenaMethod(fn):
		switch {
		case arenaPersists[name] || name == "Fence" || name == "EvictLine":
			pass.Reportf(callPos, "arena %s inside HTM region: flushes and fences guarantee a transaction abort", name)
		case htmAllowedArena[name]:
		default:
			pass.Reportf(callPos, "direct arena %s inside HTM region bypasses transactional buffering/validation (use the Tx API)", name)
		}
		return
	case isRegionMethod(fn):
		if name == "Run" || name == "RunOutcome" || htmRegionLineOps[name] {
			pass.Reportf(callPos, "nested htm.Region.%s inside HTM region", name)
		} else if !htmAllowedRegion[name] {
			pass.Reportf(callPos, "htm.Region.%s inside HTM region is not verified HTM-safe", name)
		}
		return
	case isMethodOn(fn, sync2Path, "VersionLock") || isMethodOn(fn, sync2Path, "SpinLock"):
		if htmBlockingSync2[name] {
			pass.Reportf(callPos, "sync2 %s inside HTM region blocks (spin-wait inside a transaction livelocks or aborts)", name)
		}
		return
	}
	if decl, pkg := pass.Prog.BodyOf(fn); decl != nil {
		checkHTMBody(pass, pkg, decl.Body, seen, depth+1)
		return
	}
	// External function without a loaded body: classify by package.
	pkgPath := ""
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	switch {
	case htmAllowedPkgs[pkgPath]:
	case pkgPath == "sync":
		pass.Reportf(callPos, "sync.%s inside HTM region blocks (lock acquisition aborts the transaction)", name)
	case pkgPath == "time":
		pass.Reportf(callPos, "time.%s inside HTM region (timers/sleeps block and syscalls abort transactions)", name)
	default:
		pass.Reportf(callPos, "call into %s inside HTM region may block or allocate (move it outside Region.Run, or annotate //htm:safe)", pkgPath)
	}
}

// checkHTMBody walks one body that executes inside an HTM region, including
// nested function literals (they may be invoked before commit).
func checkHTMBody(pass *Pass, pkg *Package, body ast.Node, seen map[*types.Func]bool, depth int) {
	if depth > htmMaxDepth {
		return
	}
	info := pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside HTM region blocks (guaranteed abort)")
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				pass.Reportf(n.Pos(), "channel receive inside HTM region blocks (guaranteed abort)")
			}
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "select inside HTM region blocks (guaranteed abort)")
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "goroutine launch inside HTM region allocates and schedules (guaranteed abort)")
		case *ast.RangeStmt:
			if tv, ok := info.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					pass.Reportf(n.Pos(), "range over channel inside HTM region blocks (guaranteed abort)")
				}
			}
		case *ast.CallExpr:
			fun := ast.Unparen(n.Fun)
			if tv, ok := info.Types[fun]; ok && tv.IsType() {
				return true // conversion, not a call
			}
			if _, ok := fun.(*ast.FuncLit); ok {
				return true // directly-invoked literal: its body is walked below
			}
			if id, ok := fun.(*ast.Ident); ok {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					if id.Name == "make" || id.Name == "append" {
						pass.Reportf(n.Pos(), "%s inside HTM region allocates (heap allocation can trigger GC, a guaranteed abort)", id.Name)
					}
					return true
				}
			}
			if callee := calleeOf(info, n); callee != nil {
				checkHTMCallee(pass, callee, n.Pos(), seen, depth)
			} else if !isTypeParamOrFuncValueBenign(info, fun) {
				pass.Reportf(n.Pos(), "call through a function value inside HTM region cannot be verified (annotate //htm:safe after auditing)")
			}
		}
		return true
	})
}

// isTypeParamOrFuncValueBenign filters call expressions we deliberately do
// not flag as unverifiable: method expressions on the Tx parameter itself
// never reach here, so today nothing is exempt. Kept as a seam for future
// allowances.
func isTypeParamOrFuncValueBenign(info *types.Info, fun ast.Expr) bool {
	_ = info
	_ = fun
	return false
}
