package experiments

import (
	"fmt"
	"testing"

	"lvm/internal/addr"
	"lvm/internal/oskernel"
)

// TestGrowthBreakdown grows gups's heap by an eighth of its span under
// LVM with the retrain study's loop (SoftwareLookup, then MapPage on a
// miss) and pins the learned index's maintenance outcome: the pages
// inserted, the retrains and rebuilds they caused, and the steady-state
// management cycles they cost. Every lookup of an unmapped page ends in
// the exact miss path, so a search that wrongly reported a page present
// (or absent) would move these numbers.
func TestGrowthBreakdown(t *testing.T) {
	skipSweep(t)
	r := NewRunner(Default())
	w, err := r.Workload("gups")
	if err != nil {
		t.Fatal(err)
	}
	sys, p, err := launchScaled(r.physFor(w), oskernel.SchemeLVM, w.Space, false)
	if err != nil {
		t.Fatal(err)
	}
	base := p.MgmtCycles
	heap, err := heapOf(w.Space)
	if err != nil {
		t.Fatal(err)
	}
	grow := heap.Span / 8
	start := heap.Mapped[len(heap.Mapped)-1] + 1
	inserted := 0
	for i := 0; i < grow; i++ {
		v := start + addr.VPN(i)
		if _, ok := sys.SoftwareLookup(1, v); ok {
			continue
		}
		if err := sys.MapPage(1, v, addr.Page4K); err != nil {
			t.Fatalf("MapPage(%#x): %v", uint64(v), err)
		}
		inserted++
	}
	st := p.LvmIx.Stats()
	got := fmt.Sprintf("inserted=%d steady=%d retrains=%d rebuilds=%d lazy=%d leaves=%d mapped=%d",
		inserted, p.MgmtCycles-base, st.Retrains, st.Rebuilds, st.LazyTrains, p.LvmIx.LeafCount(), p.LvmIx.MappedPages())
	const want = "inserted=131200 steady=89538997 retrains=1 rebuilds=1 lazy=0 leaves=7 mapped=1193996"
	if got != want {
		t.Errorf("gups heap growth:\n got %s\nwant %s", got, want)
	}
}
