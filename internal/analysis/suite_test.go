package analysis_test

import (
	"path/filepath"
	"testing"

	"rntree/internal/analysis"
	"rntree/internal/analysis/analysistest"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestPersistCheck(t *testing.T) {
	analysistest.Run(t, fixture("persist"), analysis.PersistCheck)
}

func TestHTMSafe(t *testing.T) {
	analysistest.Run(t, fixture("htmregion"), analysis.HTMSafe)
}

func TestLockFlush(t *testing.T) {
	analysistest.Run(t, fixture("lockheld"), analysis.LockFlush)
}

func TestFenceCheck(t *testing.T) {
	analysistest.Run(t, fixture("fence"), analysis.FenceCheck)
}

func TestAtomicField(t *testing.T) {
	analysistest.Run(t, fixture("atomicfield"), analysis.AtomicField)
}

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, fixture("lockorder"), analysis.LockOrder)
}

func TestSpinBlock(t *testing.T) {
	analysistest.Run(t, fixture("spinblock"), analysis.SpinBlock)
}

// TestAnnotations runs the FULL suite over the annotation fixture: each
// escape hatch must suppress exactly its own diagnostic and nothing else.
func TestAnnotations(t *testing.T) {
	analysistest.Run(t, fixture("annot"), analysis.All()...)
}

// TestTreeClean is the regression lock on the real tree: the violations
// rnvet surfaced in this repository were fixed or annotated with audited
// exemptions, and the full suite — including atomicfield, lockorder and
// spinblock — must stay clean over every production package. The declared //rnvet:lockorder hierarchy
// is checked against the observed acquisition graph as part of this run.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short runs")
	}
	prog, err := analysis.Load("", []string{"rntree/..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, d := range analysis.Run(prog, analysis.All()) {
		t.Errorf("%s: [%s] %s", prog.Fset.Position(d.Pos), d.Pass, d.Message)
	}
}

func TestByName(t *testing.T) {
	got, err := analysis.ByName("persistcheck, lockflush")
	if err != nil || len(got) != 2 || got[0].Name != "persistcheck" || got[1].Name != "lockflush" {
		t.Fatalf("ByName: got %v, %v", got, err)
	}
	if _, err := analysis.ByName("nosuchpass"); err == nil {
		t.Fatalf("ByName accepted an unknown pass")
	}
	if _, err := analysis.ByName(""); err == nil {
		t.Fatalf("ByName accepted an empty list")
	}
}
