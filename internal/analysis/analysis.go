// Package analysis is a self-contained static-analysis framework plus the
// rnvet pass suite that machine-checks the repository's NVM-persistence and
// HTM-safety invariants:
//
//   - persistcheck: every pmem.Arena mutation on a durable path must be
//     followed by a Persist/PersistStream covering it before the enclosing
//     function returns (durable linearizability, §4.2 of the paper).
//   - htmsafe: closures passed to htm.Region.Run/RunOutcome must not flush,
//     fence, block or allocate — any of those guarantees an abort on real
//     RTM hardware (§2.2).
//   - lockflush: no persist or fence may execute while a sync2 spin lock or
//     node metadata (version) lock is held — the paper's flush-outside-lock
//     rule ("overlapping persistency and concurrency", §4.2).
//   - fencecheck: no redundant fences (a fence with nothing unordered to
//     order) and no unfenced commit flushes (an EvictLine that is never
//     followed by an ordering fence).
//   - atomicfield: a struct field or package-level word accessed through
//     sync/atomic anywhere in the program must never also be read or
//     written plainly — mixed access on the packed protocol words (version
//     locks, repl epoch word, fingerprint words, stats counters) is a data
//     race the scheduler may never surface.
//   - lockorder: the whole-program lock-acquisition graph over named lock
//     fields (sync2 spin/version locks, sync.Mutex/RWMutex) must stay
//     acyclic; //rnvet:lockorder directives declare the intended hierarchy
//     and are machine-checked against the observed edges.
//   - spinblock: no operation that can park or indefinitely delay the
//     goroutine (channel traffic, sync parking, time.Sleep, I/O) may be
//     reachable while a sync2 spin lock is held — a blocked holder turns
//     every spinning waiter into a burning CPU.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic, golden tests driven by "// want" comments)
// but is built only on the standard library: packages are enumerated with
// `go list -json` and type-checked from source with go/types, using the
// compiler's "source" importer for out-of-module dependencies. See
// DESIGN.md §11 for each pass's invariant and its known approximations.
//
// # Annotation grammar
//
// A diagnostic can be suppressed by an audited annotation comment:
//
//	//pmem:volatile [justification]   — suppresses persistcheck
//	//htm:safe [justification]        — suppresses htmsafe
//	//rnvet:ignore pass[,pass] [why]  — suppresses exactly the named passes
//
// A second directive family DECLARES an invariant instead of suppressing a
// finding: //rnvet:lockorder a<b[<c...] states the intended lock hierarchy
// (a is acquired before b). Declared edges join the observed acquisition
// graph, so a directive both documents the order and turns any code path
// that contradicts it into a lockorder finding (see lockorder.go).
//
// An annotation applies to the source line it sits on, to the line directly
// below it (full-line comment form), or — when written in a function's doc
// comment or on the func declaration line — to the whole function. Each
// annotation suppresses only its own pass: //pmem:volatile never hides an
// htmsafe or lockflush finding, and vice versa.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and in //rnvet:ignore lists.
	Name string
	// Doc is a one-paragraph description of the invariant the pass encodes.
	Doc string
	// Run analyzes one package of the loaded program and reports findings
	// through the pass.
	Run func(*Pass)
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos     token.Pos
	Pass    string
	Message string
}

// A Pass carries one analyzer's view of one target package plus the whole
// loaded program (for interprocedural summaries).
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos unless an annotation suppresses it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Prog.suppressed(p.Analyzer.Name, pos) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     pos,
		Pass:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over every package of prog and returns the
// surviving (non-suppressed, de-duplicated) diagnostics in position order.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range prog.Packages {
			if !pkg.Analyze {
				continue // loaded only to keep the type universe whole
			}
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, diags: &diags}
			a.Run(pass)
		}
	}
	// Interprocedural passes can reach the same offending site from several
	// target packages; keep one copy of each finding.
	seen := make(map[string]bool, len(diags))
	out := diags[:0]
	for _, d := range diags {
		key := fmt.Sprintf("%s|%v|%s", d.Pass, d.Pos, d.Message)
		if !seen[key] {
			seen[key] = true
			out = append(out, d)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := prog.Fset.Position(out[i].Pos), prog.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return out[i].Pass < out[j].Pass
	})
	return out
}

// All returns the full rnvet suite in its canonical order.
func All() []*Analyzer {
	return []*Analyzer{PersistCheck, HTMSafe, LockFlush, FenceCheck, AtomicField, LockOrder, SpinBlock}
}

// ByName resolves a comma-separated pass list ("persistcheck,htmsafe").
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown pass %q", n)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty pass list")
	}
	return out, nil
}

// annotation directive parsing ---------------------------------------------

// noteEntry is one parsed annotation: the pass it suppresses and whether
// the comment leads its source line.
type noteEntry struct {
	pass    string
	leading bool
}

// directivePasses maps one comment's text to the set of pass names it
// suppresses (nil if the comment is not an rnvet annotation).
func directivePasses(text string) []string {
	switch {
	case strings.HasPrefix(text, "//pmem:volatile"):
		return []string{"persistcheck"}
	case strings.HasPrefix(text, "//htm:safe"):
		return []string{"htmsafe"}
	case strings.HasPrefix(text, "//rnvet:ignore"):
		rest := strings.TrimPrefix(text, "//rnvet:ignore")
		rest = strings.TrimSpace(rest)
		// The pass list is the first whitespace-separated field; anything
		// after it is the justification.
		if i := strings.IndexAny(rest, " \t"); i >= 0 {
			rest = rest[:i]
		}
		if rest == "" {
			return nil
		}
		var passes []string
		for _, p := range strings.Split(rest, ",") {
			if p = strings.TrimSpace(p); p != "" {
				passes = append(passes, p)
			}
		}
		return passes
	}
	return nil
}

// suppressed reports whether pass's diagnostic at pos is covered by an
// annotation: on the same line, on a full-line comment directly above, or
// on the enclosing function declaration. A trailing annotation applies only
// to its own line — it never leaks to the line below.
func (prog *Program) suppressed(pass string, pos token.Pos) bool {
	position := prog.Fset.Position(pos)
	lines := prog.notes[position.Filename]
	if lines != nil {
		for _, n := range lines[position.Line] {
			if n.pass == pass {
				return true
			}
		}
		for _, n := range lines[position.Line-1] {
			if n.pass == pass && n.leading {
				return true
			}
		}
	}
	if decl := prog.enclosingFunc(pos); decl != nil {
		declLine := prog.Fset.Position(decl.Pos()).Line
		for _, n := range lines[declLine] {
			if n.pass == pass {
				return true
			}
		}
		if decl.Doc != nil {
			for _, c := range decl.Doc.List {
				for _, p := range directivePasses(c.Text) {
					if p == pass {
						return true
					}
				}
			}
		}
	}
	return false
}

// collectNotes indexes every annotation comment of a file by line number,
// recording whether the comment leads its line (nothing but whitespace
// before it) — only leading annotations cover the line below. It also
// gathers the //rnvet:lockorder hierarchy declarations (lockorder.go).
func (prog *Program) collectNotes(f *ast.File, src []byte) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if decls, ok := parseLockOrder(c.Text, c.Pos()); ok {
				prog.lockOrders = append(prog.lockOrders, decls...)
				continue
			}
			passes := directivePasses(c.Text)
			if passes == nil {
				continue
			}
			pos := prog.Fset.Position(c.Pos())
			leading := true
			for off := pos.Offset - pos.Column + 1; off < pos.Offset && off < len(src); off++ {
				if src[off] != ' ' && src[off] != '\t' {
					leading = false
					break
				}
			}
			m := prog.notes[pos.Filename]
			if m == nil {
				m = make(map[int][]noteEntry)
				prog.notes[pos.Filename] = m
			}
			for _, p := range passes {
				m[pos.Line] = append(m[pos.Line], noteEntry{pass: p, leading: leading})
			}
		}
	}
}

// enclosingFunc finds the function declaration spanning pos, if any.
func (prog *Program) enclosingFunc(pos token.Pos) *ast.FuncDecl {
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			if f.FileStart <= pos && pos < f.FileEnd {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
						return fd
					}
				}
				return nil
			}
		}
	}
	return nil
}

// FuncOf returns the declared *types.Func for a FuncDecl in pkg.
func (pkg *Package) FuncOf(decl *ast.FuncDecl) *types.Func {
	if obj, ok := pkg.Info.Defs[decl.Name].(*types.Func); ok {
		return obj
	}
	return nil
}
