package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds a call-graph-aware lock-acquisition graph over the
// repository's lock fields — sync2.SpinLock, sync2.VersionLock, sync.Mutex
// and sync.RWMutex — and reports any cycle as a potential deadlock. Locks
// are typed by identity, not instance: the field of the owning struct
// ("kv.kvPart.mu", "core.leafMeta.vl") or the package-level variable.
// An edge a→b is recorded whenever b is acquired while a is held, either
// directly in one function body (via the shared heldWalker) or through a
// call made with a held — the callee's transitive acquisitions are
// summarized and attributed to the call site.
//
// Two findings exist:
//
//   - a cycle through the observed edges (including the a→a self-edge of
//     hand-over-hand locking over two instances of the same lock field,
//     which is only safe under a documented instance order and therefore
//     deserves an audited annotation);
//   - an observed edge that contradicts the DECLARED hierarchy: packages
//     state the intended order with //rnvet:lockorder a<b (chains a<b<c
//     allowed), declared edges join the graph, and any acquisition path
//     closing a cycle through them is reported — so the directive doubles
//     as machine-checked documentation.
//
// Approximations (DESIGN.md §16): locks reached through local variables or
// function return values have no stable identity and are invisible here;
// callee summaries ignore branch structure (every acquisition anywhere in
// the callee counts); goroutine bodies are excluded from summaries (they
// do not run under the caller's locks).
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "the lock-acquisition graph (observed + declared //rnvet:lockorder) must stay acyclic",
	Run:  runLockOrder,
}

// lockOrderDecl is one parsed a<b pair of a //rnvet:lockorder directive.
type lockOrderDecl struct {
	before, after string
	pos           token.Pos
}

// parseLockOrder parses "//rnvet:lockorder a<b[<c...] [why]" into its
// adjacent pairs. ok reports whether the comment is a lockorder directive
// at all (even a malformed one, so it is not mistaken for a suppression).
func parseLockOrder(text string, pos token.Pos) ([]lockOrderDecl, bool) {
	const prefix = "//rnvet:lockorder"
	if !strings.HasPrefix(text, prefix) {
		return nil, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
	// The chain is the first whitespace-separated field; the remainder of
	// the comment is the justification.
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	parts := strings.Split(rest, "<")
	var decls []lockOrderDecl
	for i := 0; i+1 < len(parts); i++ {
		a, b := strings.TrimSpace(parts[i]), strings.TrimSpace(parts[i+1])
		if a == "" || b == "" {
			continue
		}
		decls = append(decls, lockOrderDecl{before: a, after: b, pos: pos})
	}
	return decls, true
}

// classifyAnyLock widens the walker's lock set to sync.Mutex/RWMutex.
// RLock counts as an acquisition (reader/writer cycles deadlock too).
func classifyAnyLock(fn *types.Func) lockClass {
	if c := classifySync2(fn); c != lockNone {
		return c
	}
	if fn == nil {
		return lockNone
	}
	if isMethodOn(fn, "sync", "Mutex") || isMethodOn(fn, "sync", "RWMutex") {
		switch fn.Name() {
		case "Lock", "RLock":
			return lockAcquire
		case "Unlock", "RUnlock":
			return lockRelease
		}
	}
	return lockNone
}

// loEdge is one a→b acquisition-order edge.
type loEdge struct {
	from, to string
	pos      token.Pos // anchor: the acquisition (or call) that adds the edge
	declared bool
	via      string // callee name when the edge came through a call summary
}

type loGraph struct {
	edges []loEdge
	// next[from] lists the distinct successor nodes, for reachability.
	next map[string][]string
}

func runLockOrder(pass *Pass) {
	g, ok := pass.Prog.memos["lockorder"].(*loGraph)
	if !ok {
		g = buildLockGraph(pass.Prog)
		pass.Prog.memos["lockorder"] = g
	}
	// Report each observed edge that lies on a cycle, anchored at its own
	// acquisition site so a //rnvet:ignore lockorder annotation (or a fix)
	// lands exactly where the out-of-order acquisition happens. Only edges
	// positioned in this pass's package are reported here; Run deduplicates
	// across packages.
	for _, e := range g.edges {
		if e.declared {
			continue
		}
		if !pass.posInPkg(e.pos) {
			continue
		}
		if path := g.pathBack(e.to, e.from); path != nil {
			cycle := e.from + " -> " + e.to
			if e.from != e.to {
				cycle = e.from + " -> " + e.to + " -> " + strings.Join(path[1:], " -> ")
			}
			via := ""
			if e.via != "" {
				via = " (acquired inside call to " + e.via + ")"
			}
			if e.from == e.to {
				pass.Reportf(e.pos,
					"lock order: %s acquired while another instance of %s is held%s — instance order is unverified (document it and annotate //rnvet:ignore lockorder, or split the lock)",
					e.to, e.from, via)
			} else {
				pass.Reportf(e.pos,
					"lock order: acquiring %s while %s is held%s closes the cycle %s — potential deadlock (fix the order or declare it with //rnvet:lockorder)",
					e.to, e.from, via, cycle)
			}
		}
	}
	// Contradictory directives (a declared-only cycle) anchor at the later
	// directive. Report once, from the package that contains it.
	for _, e := range g.edges {
		if !e.declared || !pass.posInPkg(e.pos) {
			continue
		}
		if path := g.declaredPathBack(e.to, e.from); path != nil && e.from != e.to {
			pass.Reportf(e.pos,
				"contradictory //rnvet:lockorder directives: %s<%s conflicts with the declared order %s -> %s",
				e.from, e.to, e.to, strings.Join(path[1:], " -> "))
		}
	}
}

// posInPkg reports whether pos falls inside one of the pass package's files.
func (p *Pass) posInPkg(pos token.Pos) bool {
	for _, f := range p.Pkg.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return true
		}
	}
	return false
}

// pathBack returns a node path from `from` to `to` through the full graph
// (observed + declared), or nil if unreachable. Used to close cycles: an
// edge a→b is cyclic iff b reaches a.
func (g *loGraph) pathBack(from, to string) []string {
	return g.bfs(from, to, false)
}

// declaredPathBack restricts reachability to declared edges.
func (g *loGraph) declaredPathBack(from, to string) []string {
	return g.bfs(from, to, true)
}

func (g *loGraph) bfs(from, to string, declaredOnly bool) []string {
	next := g.next
	if declaredOnly {
		next = make(map[string][]string)
		for _, e := range g.edges {
			if e.declared {
				next[e.from] = append(next[e.from], e.to)
			}
		}
	}
	prev := map[string]string{from: ""}
	queue := []string{from}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range next[n] {
			if _, seen := prev[m]; seen {
				continue
			}
			prev[m] = n
			if m == to {
				var path []string
				for cur := m; cur != ""; cur = prev[cur] {
					path = append([]string{cur}, path...)
					if cur == from {
						break
					}
				}
				return path
			}
			queue = append(queue, m)
		}
	}
	if from == to {
		return []string{from}
	}
	return nil
}

// buildLockGraph walks every function of every loaded package, recording
// intra-body acquisition edges and call-summary edges, then merges the
// declared hierarchy.
func buildLockGraph(prog *Program) *loGraph {
	g := &loGraph{next: make(map[string][]string)}
	summaries := make(map[*types.Func][]loSite)
	seenEdge := make(map[string]bool)
	addEdge := func(e loEdge) {
		key := e.from + "|" + e.to + "|" + boolStr(e.declared)
		// Keep every distinct position for observed edges (each acquisition
		// site is independently reportable/suppressible), but collapse the
		// successor index.
		if !seenEdge[key] {
			seenEdge[key] = true
			g.next[e.from] = append(g.next[e.from], e.to)
		}
		posKey := key + "|" + itoa(int(e.pos))
		if !seenEdge[posKey] {
			seenEdge[posKey] = true
			g.edges = append(g.edges, e)
		}
	}

	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				w := &heldWalker{
					info:     pkg.Info,
					classify: classifyAnyLock,
					onAcquire: func(l heldLock, prev []heldLock) {
						if l.node == "" {
							return
						}
						for _, p := range prev {
							if p.node != "" {
								addEdge(loEdge{from: p.node, to: l.node, pos: l.pos})
							}
						}
					},
					onCall: func(call *ast.CallExpr, fn *types.Func, held []heldLock) {
						if len(held) == 0 {
							return
						}
						for _, site := range lockSummary(prog, fn, summaries, nil, 0) {
							for _, p := range held {
								if p.node != "" {
									addEdge(loEdge{from: p.node, to: site.node, pos: call.Pos(), via: fn.Name()})
								}
							}
						}
					},
				}
				w.walkBody(fd.Body)
			}
		}
	}
	for _, d := range prog.lockOrders {
		addEdge(loEdge{from: d.before, to: d.after, pos: d.pos, declared: true})
	}
	sort.SliceStable(g.edges, func(i, j int) bool { return g.edges[i].pos < g.edges[j].pos })
	return g
}

func boolStr(b bool) string {
	if b {
		return "d"
	}
	return "o"
}

// loSite is one lock identity a callee may acquire, with a sample position.
type loSite struct {
	node string
	pos  token.Pos
}

const loMaxDepth = 12

// lockSummary computes the set of named locks fn may acquire, transitively
// through target-package bodies. Branch structure is ignored (any Lock call
// anywhere counts) and goroutine bodies are skipped — a `go` closure does
// not acquire under the caller's locks.
func lockSummary(prog *Program, fn *types.Func, memo map[*types.Func][]loSite, seen map[*types.Func]bool, depth int) []loSite {
	if fn == nil || depth > loMaxDepth {
		return nil
	}
	if s, ok := memo[fn]; ok {
		return s
	}
	if seen == nil {
		seen = make(map[*types.Func]bool)
	}
	if seen[fn] {
		return nil
	}
	seen[fn] = true
	decl, pkg := prog.BodyOf(fn)
	if decl == nil {
		return nil
	}
	byNode := make(map[string]token.Pos)
	var walk func(n ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				return false // runs outside the caller's critical section
			case *ast.CallExpr:
				callee := calleeOf(pkg.Info, n)
				if callee == nil {
					return true
				}
				if classifyAnyLock(callee) == lockAcquire {
					if node := lockNodeOf(pkg.Info, n); node != "" {
						if _, ok := byNode[node]; !ok {
							byNode[node] = n.Pos()
						}
					}
					return true
				}
				for _, site := range lockSummary(prog, callee, memo, seen, depth+1) {
					if _, ok := byNode[site.node]; !ok {
						byNode[site.node] = site.pos
					}
				}
			}
			return true
		})
	}
	walk(decl.Body)
	nodes := make([]string, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	sites := make([]loSite, 0, len(nodes))
	for _, n := range nodes {
		sites = append(sites, loSite{node: n, pos: byNode[n]})
	}
	memo[fn] = sites
	return sites
}
