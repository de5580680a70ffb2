package lint_test

import (
	"strings"
	"testing"

	"lvm/internal/lint"
	"lvm/internal/lint/linttest"
)

// Each analyzer is exercised against a golden testdata package seeded with
// violations (the `// want` comments) and clean idioms that must stay
// silent. Scoped analyzers are additionally checked against impersonated
// import paths: the testdata is loaded *as* the package the rule targets or
// exempts.

func TestFixedQ(t *testing.T) {
	linttest.Run(t, lint.FixedQ, "testdata/src/fixedq", "lvm/test/fixedq")
}

func TestFixedQSilentInsideFixed(t *testing.T) {
	linttest.Run(t, lint.FixedQ, "testdata/src/fixedq_exempt", "lvm/internal/fixed")
}

func TestAddrTypes(t *testing.T) {
	linttest.Run(t, lint.AddrTypes, "testdata/src/addrtypes", "lvm/test/addrtypes")
}

func TestNonDeterm(t *testing.T) {
	linttest.Run(t, lint.NonDeterm, "testdata/src/nondeterm", "lvm/internal/sim")
}

func TestNonDetermMapRuleScoped(t *testing.T) {
	linttest.Run(t, lint.NonDeterm, "testdata/src/nondeterm_unscoped", "lvm/internal/workload")
}

// The map-iteration rule extends by prefix to the experiment subpackages:
// the parallel scheduler must not let iteration order reorder results.
func TestNonDetermCoversScheduler(t *testing.T) {
	linttest.Run(t, lint.NonDeterm, "testdata/src/nondeterm", "lvm/internal/experiments/sched")
}

// internal/metrics builds the snapshot sets the regression gate compares
// byte-for-byte, so the map-iteration rule covers it too.
func TestNonDetermCoversMetrics(t *testing.T) {
	linttest.Run(t, lint.NonDeterm, "testdata/src/nondeterm", "lvm/internal/metrics")
}

// internal/wire holds the write mutex, handler goroutines and connection
// set lvmd and the orchestrator share, so both the map-iteration rule and
// the concurrency discipline cover it.
func TestNonDetermCoversWire(t *testing.T) {
	linttest.Run(t, lint.NonDeterm, "testdata/src/nondeterm", "lvm/internal/wire")
}

func TestSyncSafeCoversWire(t *testing.T) {
	linttest.Run(t, lint.SyncSafe, "testdata/src/syncsafe", "lvm/internal/wire")
}

// TestSuiteScopeCoverage generalizes the point check above: every internal
// package that imports the simulator core (sim, mmu, or metrics) feeds
// simulated results, so at least one scoped analyzer must claim it via
// Covers. A new package wired into the simulator without lint coverage —
// or a scope map that silently drifts out from under the import graph —
// fails here.
func TestSuiteScopeCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	simCore := map[string]bool{
		"lvm/internal/sim":     true,
		"lvm/internal/mmu":     true,
		"lvm/internal/metrics": true,
	}
	var scoped []*lint.Analyzer
	for _, a := range lint.Analyzers() {
		if a.Covers != nil {
			scoped = append(scoped, a)
		}
	}
	if len(scoped) < 5 {
		t.Fatalf("only %d analyzers declare Covers; scope map is degenerate", len(scoped))
	}
	checked := 0
	for _, pkg := range pkgs {
		if pkg.IsXTest || !strings.HasPrefix(pkg.PkgPath, "lvm/internal/") {
			continue
		}
		if pkg.PkgPath == "lvm/internal/lint" || strings.HasPrefix(pkg.PkgPath, "lvm/internal/lint/") {
			continue // the linter analyzes the simulator, not itself
		}
		importsCore := simCore[pkg.PkgPath]
		for _, imp := range pkg.Types.Imports() {
			if simCore[imp.Path()] {
				importsCore = true
			}
		}
		if !importsCore {
			continue
		}
		checked++
		covered := false
		for _, a := range scoped {
			if a.Covers(pkg.PkgPath) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("%s imports the simulator core but no analyzer's Covers claims it", pkg.PkgPath)
		}
	}
	if checked < 5 {
		t.Fatalf("only %d simulator-importing packages found; import-graph discovery is broken", checked)
	}
}

func TestNoPanic(t *testing.T) {
	linttest.Run(t, lint.NoPanic, "testdata/src/nopanic", "lvm/internal/experiments/sched")
}

// Outside the simulator/experiment packages (here: workload), panics are the
// caller's business and the analyzer stays silent.
func TestNoPanicUnscoped(t *testing.T) {
	linttest.Run(t, lint.NoPanic, "testdata/src/nopanic_unscoped", "lvm/internal/workload")
}

func TestFloatFree(t *testing.T) {
	linttest.Run(t, lint.FloatFree, "testdata/src/floatfree", "lvm/internal/tlb")
}

// The testdata walker implements mmu.Walker (the real interface, resolved
// from module source), so its Walk method is a traversal root: reachable
// constructs, frontier stdlib calls, and call-boundary boxing all fire;
// the unreachable function and the //lint:allow'd site stay silent.
func TestHotAlloc(t *testing.T) {
	linttest.Run(t, lint.HotAlloc, "testdata/src/hotalloc", "lvm/internal/radix")
}

// TestHotAllocResetDeletion is the mutation case the acceptance demands:
// two walkers differing only in the `x = x[:0]` truncation. Deleting the
// Reset discipline must flip the self-append from silent to flagged.
func TestHotAllocResetDeletion(t *testing.T) {
	linttest.Run(t, lint.HotAlloc, "testdata/src/hotalloc_reset", "lvm/internal/ecpt")
}

func TestSyncSafe(t *testing.T) {
	linttest.Run(t, lint.SyncSafe, "testdata/src/syncsafe", "lvm/internal/experiments")
}

// Outside the goroutine-running packages the same code is silent: the
// hardware models are single-threaded by design.
func TestSyncSafeUnscoped(t *testing.T) {
	linttest.Run(t, lint.SyncSafe, "testdata/src/syncsafe_unscoped", "lvm/internal/tlb")
}

// snapshotpure is module-wide: any package loaded as any path is checked.
func TestSnapshotPure(t *testing.T) {
	linttest.Run(t, lint.SnapshotPure, "testdata/src/snapshotpure", "lvm/test/snapshotpure")
}

func TestSortedFree(t *testing.T) {
	linttest.Run(t, lint.SortedFree, "testdata/src/sortedfree", "lvm/internal/oskernel")
}

// TestAllowSuppression covers the //lint:allow contract: same-line and
// line-above suppression, the mandatory reason, and analyzer matching.
func TestAllowSuppression(t *testing.T) {
	linttest.Run(t, lint.FixedQ, "testdata/src/allow", "lvm/test/allow")
}

// TestRepoIsLintClean enforces the full suite — per-package AND
// whole-program analyzers — over the module as a tier-1 test: a PR that
// introduces a violation without an auditable //lint:allow fails here, not
// just in CI's lvmlint step. RunSuite (not per-package Run) is essential:
// hotalloc's reachability and syncsafe's Locks facts only exist with the
// cross-package call graph built.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loader found only %d packages; module discovery is broken", len(pkgs))
	}
	diags, _ := lint.RunSuite(pkgs, lint.Analyzers(), nil)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
