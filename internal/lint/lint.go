// Package lint implements lvmlint, the repository's custom static-analysis
// suite. It enforces the three invariants the Go compiler cannot check and
// this reproduction's correctness hangs on:
//
//   - fixed-point hygiene (fixedq): Q44.20 values are only combined through
//     the internal/fixed helpers, never raw integer operators (paper §4.5 —
//     one scaling slip silently corrupts every model prediction);
//   - address-type hygiene (addrtypes): addr.VA/PA/VPN/PPN are never
//     cross-converted directly, including laundering through uint64;
//   - determinism (nondeterm): no wall-clock reads, no global math/rand, and
//     no result-bearing map iteration in the simulator packages, so every
//     EXPERIMENTS.md number is bit-for-bit reproducible;
//   - float-free hot paths (floatfree): the hardware walk path performs no
//     floating-point arithmetic outside reporting helpers.
//
// On top of the per-package checks sits a whole-program layer (callgraph.go,
// facts.go): a CHA-style cross-package call graph with per-function facts
// (allocates / mutates-receiver / locks) that three interprocedural
// analyzers consume:
//
//   - hotalloc: nothing reachable from the translate-then-access hot path
//     (the sim translation pipeline, every scheme walker's
//     Walk/WalkInto/WalkBatch/Lookup) may heap-allocate — the static seal
//     over TestStepZeroAllocs;
//   - syncsafe: concurrency discipline for the scheduler and experiment
//     pipeline — no mutex copies, no untracked goroutines, and
//     `// guarded by <mu>` fields only touched with the lock held;
//   - snapshotpure: every Snapshot() metrics.Set implementation is
//     read-only;
//   - sortedfree: physical frames are never freed from inside a map
//     iteration (collect-and-sort first), keeping the buddy allocator's
//     state reproducible.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer / Pass /
// Diagnostic) but is built entirely on the standard library's go/ast and
// go/types so the module stays dependency-free.
//
// Legitimate exceptions are suppressed in source with
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory; an allow comment without one is itself reported, which keeps
// every exception auditable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ModulePath is the import-path prefix of this module; analyzers use it to
// scope rules to specific packages.
const ModulePath = "lvm"

// An Analyzer describes one invariant checker. Exactly one of Run and
// RunProgram is set: Run analyzers see one package at a time, RunProgram
// analyzers see the whole loaded program (call graph + facts) at once.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:allow comments.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run inspects the package and reports violations via pass.Report.
	Run func(pass *Pass)
	// RunProgram inspects the whole program at once.
	RunProgram func(pass *ProgramPass)
	// Covers reports whether the analyzer's scope includes the package.
	// Analyzers that sweep everything leave it nil; path-scoped analyzers
	// set it so the suite-wide scope-coverage test can prove that every
	// package importing sim/mmu/metrics is policed by at least one of
	// them.
	Covers func(pkgPath string) bool
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	// PkgPath is the package's import path with any test-variant suffix
	// (e.g. " [lvm/internal/sim.test]") already stripped.
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info

	diags []Diagnostic
}

// Reportf records a violation at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// FileName returns the base name of the file containing pos.
func (p *Pass) FileName(pos token.Pos) string {
	name := p.Fset.Position(pos).Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// InTestFile reports whether pos is inside a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.FileName(pos), "_test.go")
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Analyzers returns the full lvmlint suite in a stable order. The order
// is part of the result-cache key, so appending here invalidates stale
// cached runs automatically.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		FixedQ, AddrTypes, NonDeterm, FloatFree, NoPanic,
		HotAlloc, SyncSafe, SnapshotPure, SortedFree,
	}
}

// A Program is the whole-program view handed to RunProgram analyzers: the
// loaded packages, the CHA call graph over them, and the per-function
// facts (local ∪ imported).
type Program struct {
	Packages []*Package
	Graph    *Graph
	// Facts holds the summaries computed for this program's functions,
	// closed transitively over Imported.
	Facts *FactSet
	// Imported holds facts received from already-analyzed dependency
	// packages (the vet-tool facts seam); empty in whole-module runs.
	Imported *FactSet
}

// FactFor returns the best-known fact for a call target: a node's
// computed fact, an imported fact, or the external assumption table.
func (prog *Program) FactFor(id FuncID, ext ExtTarget) FuncFact {
	if f, ok := prog.Facts.Lookup(id); ok {
		return f
	}
	if f, ok := prog.Imported.Lookup(id); ok {
		return f
	}
	return externalFact(prog.Imported, ext)
}

// NewProgram builds the graph and facts over pkgs. allowed filters
// //lint:allow hotalloc sites out of the allocation facts; nil applies no
// filtering.
func NewProgram(pkgs []*Package, imported *FactSet, allowed func(pkg *Package, pos token.Pos) bool) *Program {
	if imported == nil {
		imported = NewFactSet()
	}
	g := BuildGraph(pkgs)
	return &Program{
		Packages: pkgs,
		Graph:    g,
		Facts:    ComputeFacts(g, pkgs, imported, allowed),
		Imported: imported,
	}
}

// A ProgramPass provides one program analyzer with the whole program.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags []Diagnostic
}

// Reportf records a violation at pos, resolved through pkg's FileSet.
func (p *ProgramPass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunSuite applies the full analyzer set — per-package and whole-program —
// to the loaded packages and returns the surviving diagnostics plus the
// computed facts (for the vet driver to export). Suppression is uniform:
// a //lint:allow in any package suppresses a diagnostic at that position
// regardless of which mode produced it.
func RunSuite(pkgs []*Package, analyzers []*Analyzer, imported *FactSet) ([]Diagnostic, *FactSet) {
	var perPkg, perProg []*Analyzer
	for _, a := range analyzers {
		if a.RunProgram != nil {
			perProg = append(perProg, a)
		} else {
			perPkg = append(perPkg, a)
		}
	}

	var allAllows []*allow
	var out []Diagnostic
	for _, pkg := range pkgs {
		allows, malformed := collectAllows(pkg.Fset, pkg.Files)
		allAllows = append(allAllows, allows...)
		out = append(out, malformed...)
	}
	allowedHot := func(pkg *Package, pos token.Pos) bool {
		p := pkg.Fset.Position(pos)
		for _, a := range allAllows {
			if a.analyzer == HotAlloc.Name && a.file == p.Filename &&
				(a.line == p.Line || a.line == p.Line-1) {
				return true
			}
		}
		return false
	}

	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range perPkg {
			pass := &Pass{
				Analyzer: a,
				PkgPath:  pkg.PkgPath,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
			}
			a.Run(pass)
			raw = append(raw, pass.diags...)
		}
	}

	prog := NewProgram(pkgs, imported, allowedHot)
	for _, a := range perProg {
		pass := &ProgramPass{Analyzer: a, Prog: prog}
		a.RunProgram(pass)
		raw = append(raw, pass.diags...)
	}

	out = append(out, suppress(raw, allAllows)...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		if out[i].Pos.Column != out[j].Pos.Column {
			return out[i].Pos.Column < out[j].Pos.Column
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		return out[i].Message < out[j].Message
	})
	return out, prog.Facts
}

// allow is one parsed //lint:allow comment.
type allow struct {
	analyzer string
	line     int
	file     string
	used     bool
}

const allowPrefix = "//lint:allow "

// collectAllows parses every //lint:allow comment in the package, returning
// the usable suppressions and diagnostics for malformed ones (missing
// analyzer name or missing reason).
func collectAllows(fset *token.FileSet, files []*ast.File) (allows []*allow, malformed []Diagnostic) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, strings.TrimSpace(allowPrefix)) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, strings.TrimSpace(allowPrefix))
				// Ignore a trailing "// want …" so the linttest golden files
				// can annotate expectations on the same line as an allow.
				if i := strings.Index(rest, "// want"); i >= 0 {
					rest = rest[:i]
				}
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Analyzer: "lint",
						Pos:      pos,
						Message:  "malformed //lint:allow: want \"//lint:allow <analyzer> <reason>\" with a non-empty reason",
					})
					continue
				}
				allows = append(allows, &allow{
					analyzer: fields[0],
					line:     pos.Line,
					file:     pos.Filename,
				})
			}
		}
	}
	return allows, malformed
}

// suppress filters diags through the package's allow comments. An allow on
// the diagnostic's line or the line directly above suppresses it.
func suppress(diags []Diagnostic, allows []*allow) []Diagnostic {
	var kept []Diagnostic
	for _, d := range diags {
		suppressed := false
		for _, a := range allows {
			if a.analyzer == d.Analyzer && a.file == d.Pos.Filename &&
				(a.line == d.Pos.Line || a.line == d.Pos.Line-1) {
				a.used = true
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}

// Run applies the per-package analyzers to one loaded package and returns
// the surviving diagnostics plus any malformed-allow diagnostics, sorted
// by position. Whole-program analyzers in the list are skipped; use
// RunSuite to run both kinds.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	allows, malformed := collectAllows(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			PkgPath:  pkg.PkgPath,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
		}
		a.Run(pass)
		out = append(out, suppress(pass.diags, allows)...)
	}
	out = append(out, malformed...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Pos.Column < out[j].Pos.Column
	})
	return out
}

// isNamed reports whether t is the named type pkgPath.name (after
// following aliases).
func isNamed(t types.Type, pkgPath, name string) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// StripVariant removes cmd/go's test-variant suffix from an import path:
// "p [p.test]" → "p".
func StripVariant(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}
