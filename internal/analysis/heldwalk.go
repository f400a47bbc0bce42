package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the shared branch-aware held-lock engine. It grew out of
// lockflush's private walker; lockflush, spinblock and lockorder all drive
// the same traversal now, so the control-flow approximations (early-exit
// unlocks, loop entry state, clause joins, deferred unlocks) are decided in
// exactly one place.
//
// The engine threads a set of held locks through one function body in
// source order. Hooks observe the traversal:
//
//   - onAcquire fires when a lock is taken, with the set held just before
//     (lockorder derives its acquisition edges from this);
//   - onCall fires for every resolved call, with the current held set
//     (lockflush checks for reachable persists, spinblock for reachable
//     blocking operations);
//   - onNode fires for the statement forms that can block by themselves —
//     channel send, channel receive, select, range-over-channel — again
//     with the current held set (spinblock classifies them).
//
// Function literals encountered along the way are queued and walked
// afterwards with an empty lock set: a closure may run on another goroutine
// or after the enclosing critical section ends, so it gets its own scope.
type heldWalker struct {
	info *types.Info

	// classify decides whether a call acquires or releases a tracked lock.
	// The default tracks the sync2 spin/version locks (lockflush's rule);
	// lockorder widens it to sync.Mutex/RWMutex.
	classify func(fn *types.Func) lockClass

	onAcquire func(l heldLock, prev []heldLock)
	onCall    func(call *ast.CallExpr, fn *types.Func, held []heldLock)
	onNode    func(n ast.Node, held []heldLock)

	closures []*ast.FuncLit
}

// lockClass is the walker's view of one call: not a lock operation, a
// blocking acquisition, or a release.
type lockClass int

const (
	lockNone lockClass = iota
	lockAcquire
	lockRelease
)

// heldLock is one acquired lock instance.
type heldLock struct {
	recv string // receiver expression text ("t.mu"): per-function tracking key
	node string // program-wide identity ("kv.kvPart.mu"), "" if unresolvable
	pos  token.Pos
	fn   *types.Func // the acquiring method (distinguishes lock types)
}

// classifySync2 is the default classification: the sync2 spin/version lock
// methods, blocking acquisition only (TryLock never holds the caller up).
func classifySync2(fn *types.Func) lockClass {
	switch {
	case isSync2Lock(fn):
		return lockAcquire
	case isSync2Unlock(fn):
		return lockRelease
	}
	return lockNone
}

// walkBody runs the walker over one function body, then over every queued
// closure with a fresh (empty) lock set.
func (w *heldWalker) walkBody(body *ast.BlockStmt) {
	if w.classify == nil {
		w.classify = classifySync2
	}
	w.walkStmts(body.List, nil)
	for i := 0; i < len(w.closures); i++ { // closures may queue more closures
		w.walkStmts(w.closures[i].Body.List, nil)
	}
}

// walkStmts walks one straight-line statement list, threading the set of
// held locks through it. It returns the lock set at fall-through and
// whether every path through the list terminates (return / branch).
func (w *heldWalker) walkStmts(stmts []ast.Stmt, held []heldLock) ([]heldLock, bool) {
	for _, s := range stmts {
		var term bool
		held, term = w.walkStmt(s, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (w *heldWalker) walkStmt(s ast.Stmt, held []heldLock) ([]heldLock, bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = w.walkStmt(s.Init, held)
		}
		held = w.scanExpr(s.Cond, held)
		thenHeld, thenTerm := w.walkStmts(s.Body.List, cloneLocks(held))
		elseHeld, elseTerm := held, false
		if s.Else != nil {
			elseHeld, elseTerm = w.walkStmt(s.Else, cloneLocks(held))
		}
		switch {
		case thenTerm && elseTerm:
			return held, true
		case thenTerm:
			return elseHeld, false
		case elseTerm:
			return thenHeld, false
		default:
			return unionLocks(thenHeld, elseHeld), false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = w.walkStmt(s.Init, held)
		}
		held = w.scanExpr(s.Cond, held)
		w.walkStmts(s.Body.List, cloneLocks(held))
		if s.Post != nil {
			w.walkStmt(s.Post, cloneLocks(held))
		}
		return held, false // loop-carried lock state is approximated by entry state
	case *ast.RangeStmt:
		held = w.scanExpr(s.X, held)
		if w.onNode != nil {
			if tv, ok := w.info.Types[s.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					w.onNode(s, held)
				}
			}
		}
		w.walkStmts(s.Body.List, cloneLocks(held))
		return held, false
	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = w.walkStmt(s.Init, held)
		}
		held = w.scanExpr(s.Tag, held)
		return w.walkClauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			held, _ = w.walkStmt(s.Init, held)
		}
		return w.walkClauses(s.Body, held)
	case *ast.SelectStmt:
		if w.onNode != nil {
			w.onNode(s, held)
		}
		return w.walkClauses(s.Body, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			held = w.scanExpr(e, held)
		}
		return held, true
	case *ast.BranchStmt:
		// break/continue/goto end this straight-line path; the target path
		// re-enters with the state computed at its own walk.
		return held, true
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held for the rest of the source
		// text (it runs at return). Other deferred calls are scanned: a
		// deferred persist or block registered under a lock is suspect
		// enough to surface.
		if fn := calleeOf(w.info, s.Call); fn != nil && w.classify(fn) == lockRelease {
			return held, false
		}
		return w.scanExpr(s.Call, held), false
	case *ast.GoStmt:
		// The goroutine body runs outside this critical section; its FuncLit
		// (if any) is queued for a fresh-scope walk.
		ast.Inspect(s.Call, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				w.closures = append(w.closures, lit)
				return false
			}
			return true
		})
		return held, false
	case *ast.ExprStmt:
		return w.scanExpr(s.X, held), false
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			held = w.scanExpr(e, held)
		}
		for _, e := range s.Lhs {
			held = w.scanExpr(e, held)
		}
		return held, false
	case *ast.IncDecStmt:
		return w.scanExpr(s.X, held), false
	case *ast.SendStmt:
		if w.onNode != nil {
			w.onNode(s, held)
		}
		held = w.scanExpr(s.Chan, held)
		return w.scanExpr(s.Value, held), false
	case *ast.DeclStmt:
		return w.scanExpr(s, held), false
	default:
		return held, false
	}
}

// walkClauses handles the case/comm clause bodies of a switch or select.
func (w *heldWalker) walkClauses(body *ast.BlockStmt, held []heldLock) ([]heldLock, bool) {
	after := held // no default clause ⇒ fall-through with entry state
	hasDefault := false
	allTerm := true
	sawClause := false
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			stmts = c.Body
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				held = w.scanExpr(e, held)
			}
		case *ast.CommClause:
			stmts = c.Body
			if c.Comm == nil {
				hasDefault = true
			}
		default:
			continue
		}
		sawClause = true
		h, term := w.walkStmts(stmts, cloneLocks(held))
		if !term {
			allTerm = false
			after = unionLocks(after, h)
		}
	}
	if sawClause && hasDefault && allTerm {
		return held, true
	}
	return after, false
}

// scanExpr inspects one expression (or declaration) in source order,
// updating the lock set on acquire/release calls and dispatching every
// other resolved call (and blocking receive) to the hooks. Function
// literals are queued for a fresh-scope walk, not descended into.
func (w *heldWalker) scanExpr(node ast.Node, held []heldLock) []heldLock {
	if node == nil {
		return held
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			w.closures = append(w.closures, lit)
			return false
		}
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			if w.onNode != nil {
				w.onNode(u, held)
			}
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(w.info, call)
		if fn == nil {
			return true
		}
		switch w.classify(fn) {
		case lockAcquire:
			l := heldLock{recv: recvString(call), node: lockNodeOf(w.info, call), pos: call.Pos(), fn: fn}
			if w.onAcquire != nil {
				w.onAcquire(l, held)
			}
			held = append(held, l)
			return true
		case lockRelease:
			recv := recvString(call)
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].recv == recv {
					held = append(held[:i], held[i+1:]...)
					break
				}
			}
			return true
		}
		if w.onCall != nil {
			w.onCall(call, fn, held)
		}
		return true
	})
	return held
}

func cloneLocks(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

// unionLocks merges the lock sets of two joining paths conservatively: a
// lock held on either path is treated as held after the join.
func unionLocks(a, b []heldLock) []heldLock {
	out := cloneLocks(a)
	for _, l := range b {
		dup := false
		for _, o := range out {
			if o.recv == l.recv {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	return out
}

// lockNodeOf resolves the receiver of a lock-method call to a stable
// program-wide identity: "pkg.Type.field" for a lock field of a named
// struct (array/slice stripes collapse to their field), "pkg.var" for a
// package-level lock variable. Locks reached through local variables or
// returned pointers have no stable name and yield "" — they still gate
// lockflush/spinblock, but lockorder cannot type them (see DESIGN.md §16).
func lockNodeOf(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	expr := ast.Unparen(sel.X)
	// A stripe access (l.locks[i].Lock()) names the field, not the element.
	if idx, ok := expr.(*ast.IndexExpr); ok {
		expr = ast.Unparen(idx.X)
	}
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		if s, ok := info.Selections[e]; ok {
			if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
				return fieldNodeName(s.Recv(), v)
			}
			return ""
		}
		// Package-qualified variable (pkg.Mu).
		if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
			return v.Pkg().Name() + "." + v.Name()
		}
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok && !v.IsField() && v.Pkg() != nil {
			// Only package-level variables are stable across functions.
			if v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Name() + "." + v.Name()
			}
		}
	}
	return ""
}

// fieldNodeName renders "pkg.Type.field" for a field selected from recv.
func fieldNodeName(recv types.Type, field *types.Var) string {
	t := recv
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Name() + "." + obj.Name() + "." + field.Name()
}
