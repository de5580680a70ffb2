package core

import (
	"fmt"
	"math/rand"
	"testing"

	"lvm/internal/addr"
	"lvm/internal/pte"
)

// checkInvariants verifies the leaf invariants the exact miss path relies
// on (see node.maxDisp). For every live slot s of every leaf table:
//
//   - its tag T routes to this leaf (and, for a 2 MB entry, so does the
//     last sub-page it covers);
//   - |s − clamp(predict(T))| ≤ maxDisp (the displacement invariant);
//   - no other live slot anywhere in the index holds T.
//
// It also checks that each table's Used count equals its live slots.
func (ix *Index) checkInvariants() error {
	seen := map[addr.VPN]bool{}
	for _, level := range ix.levels {
		for _, n := range level {
			if !n.isLeaf() || n.table == nil {
				continue
			}
			live := 0
			for s := 0; s < n.table.Slots(); s++ {
				e := n.table.Get(s)
				if !e.Valid() {
					continue
				}
				live++
				if seen[e.Tag] {
					return fmt.Errorf("leaf %d: tag %#x held twice", n.offset, uint64(e.Tag))
				}
				seen[e.Tag] = true
				if ix.leafFor(e.Tag) != n {
					return fmt.Errorf("leaf %d slot %d: tag %#x routes elsewhere", n.offset, s, uint64(e.Tag))
				}
				if e.Entry.Size() == addr.Page2M && ix.leafFor(e.Tag+addr.VPN(addr.VPNsPer2M-1)) != n {
					return fmt.Errorf("leaf %d slot %d: 2 MB entry %#x straddles leaves", n.offset, s, uint64(e.Tag))
				}
				p := clampPred(int(n.predict(e.Tag)), n.table.Slots())
				if d := abs(s - p); d > n.maxDisp {
					return fmt.Errorf("leaf %d slot %d: tag %#x displaced %d slots from %d, maxDisp %d",
						n.offset, s, uint64(e.Tag), d, p, n.maxDisp)
				}
			}
			if live != n.table.Used() {
				return fmt.Errorf("leaf %d: %d live slots, Used() = %d", n.offset, live, n.table.Used())
			}
		}
	}
	return nil
}

// fullScan is the test-only oracle for the miss path: it reads every slot
// of every leaf table into a tag → entry map. A scan is a snapshot; take a
// new one after mutating the index.
type fullScan map[addr.VPN]pte.Entry

func scanAll(ix *Index) fullScan {
	fs := fullScan{}
	for _, level := range ix.levels {
		for _, n := range level {
			if !n.isLeaf() || n.table == nil {
				continue
			}
			for i := 0; i < n.table.Slots(); i++ {
				if s := n.table.Get(i); s.Valid() {
					fs[s.Tag] = s.Entry
				}
			}
		}
	}
	return fs
}

// translate returns the scanned entry translating v, whatever its size.
func (fs fullScan) translate(v addr.VPN) (pte.Entry, bool) {
	for _, size := range [...]addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G} {
		if e, ok := fs[addr.AlignDown(v, size)]; ok && e.Size() == size {
			return e, true
		}
	}
	return 0, false
}

// mustHold fails the test when the index breaks an invariant.
func mustHold(t *testing.T, ix *Index, when string) {
	t.Helper()
	if err := ix.checkInvariants(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// agreeWithFullScan asserts that the exact search, Walk and the full-scan
// oracle fs (a scan of ix's current state) agree on v.
func agreeWithFullScan(t *testing.T, ix *Index, fs fullScan, v addr.VPN) {
	t.Helper()
	want, wantOK := fs.translate(v)
	var got pte.Entry
	gotOK := false
	if n := ix.leafFor(v); n != nil && n.table != nil {
		if slot, _, ok := ix.find(n, v, false); ok {
			got, gotOK = n.table.Get(slot).Entry, true
		}
	}
	if gotOK != wantOK || got != want {
		t.Fatalf("VPN %#x: find = (%v, %t), full scan = (%v, %t)", uint64(v), got, gotOK, want, wantOK)
	}
	if r := ix.Walk(v); r.Found != wantOK || r.Entry != want {
		t.Fatalf("VPN %#x: Walk = (%v, %t), full scan = (%v, %t)", uint64(v), r.Entry, r.Found, want, wantOK)
	}
}

// relaxedLeaf builds a single relaxed (monotone PlaceFrom) leaf over ms.
func relaxedLeaf(t *testing.T, ms []Mapping) (*Index, *node) {
	t.Helper()
	ms = normalize(ms)
	ix := &Index{mem: newMem(), params: DefaultParams()}
	b := &builder{ix: ix, p: ix.params}
	n, err := b.makeLeaf(ms, uint64(ms[0].VPN), uint64(ms[len(ms)-1].VPN), true)
	if err != nil {
		t.Fatal(err)
	}
	n.level, n.offset = 1, 0
	ix.root = n
	ix.levels = [][]*node{{n}}
	if err := ix.allocLevelStorage(); err != nil {
		t.Fatal(err)
	}
	return ix, n
}

// sparseThenDense is a sparse spread of keys followed by a dense run: the
// rank model flattens the run into a plateau near the top of the table.
func sparseThenDense() []Mapping {
	var ms []Mapping
	for i := 0; i < 100; i++ {
		ms = append(ms, Mapping{VPN: addr.VPN(0x1000 + i*10000), Entry: pte.New(addr.PPN(i+1), addr.Page4K)})
	}
	for i := 0; i < 1000; i++ {
		ms = append(ms, Mapping{VPN: addr.VPN(0x1000 + 1000000 + i), Entry: pte.New(addr.PPN(1000+i), addr.Page4K)})
	}
	return ms
}

// displacements returns, over n's live slots, the largest displacement
// from the clamped prediction and whether any entry sits below it (only a
// wrapped monotone placement puts an entry below its prediction).
func displacements(n *node) (worst int, below bool) {
	for s := 0; s < n.table.Slots(); s++ {
		e := n.table.Get(s)
		if !e.Valid() {
			continue
		}
		p := clampPred(int(n.predict(e.Tag)), n.table.Slots())
		worst = max(worst, abs(s-p))
		below = below || s < p
	}
	return worst, below
}

func TestMaxDispRecordsWrapPlacement(t *testing.T) {
	ms := sparseThenDense()
	ix, n := relaxedLeaf(t, ms)
	worst, below := displacements(n)
	if !below {
		t.Fatal("fixture no longer wraps: no entry sits below its prediction")
	}
	if n.maxDisp < worst {
		t.Fatalf("maxDisp %d misses a wrapped placement displaced %d slots", n.maxDisp, worst)
	}
	mustHold(t, ix, "wrapped relaxed leaf")
	fs := scanAll(ix)
	for _, m := range ms {
		agreeWithFullScan(t, ix, fs, m.VPN)
	}
}

func TestMaxDispRecordsFarDisplacement(t *testing.T) {
	// A plateau of equal predictions: monotone placement pushes each key
	// past the previous one, far beyond one cluster from its prediction.
	ms := seqMappings(0x5000, 200)
	ms = append(ms, Mapping{VPN: 0x80000, Entry: pte.New(0x777, addr.Page4K)})
	ix, n := relaxedLeaf(t, ms)
	worst, _ := displacements(n)
	if worst <= pte.ClusterSlots {
		t.Fatalf("fixture displaced at most %d slots, want beyond one cluster", worst)
	}
	if n.maxDisp < worst {
		t.Fatalf("maxDisp %d misses a placement displaced %d slots", n.maxDisp, worst)
	}
	mustHold(t, ix, "plateau relaxed leaf")
	fs := scanAll(ix)
	for _, m := range ms {
		agreeWithFullScan(t, ix, fs, m.VPN)
	}
}

// TestFindMatchesFullScan is the differential test of the exact miss path:
// on present, absent and huge-page-interior VPNs of built, relaxed and
// churned indexes, find and Walk agree with a scan of every table slot.
func TestFindMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mixed := func() []Mapping {
		var ms []Mapping
		v := addr.VPN(0x10000)
		for i := 0; i < 200; i++ {
			if rng.Intn(4) == 0 {
				v = addr.AlignDown(v+511, addr.Page2M)
				ms = append(ms, Mapping{VPN: v, Entry: pte.New(addr.PPN(0x100000+i*512), addr.Page2M)})
				v += 512
				continue
			}
			for j := 0; j < 1+rng.Intn(64); j++ {
				ms = append(ms, Mapping{VPN: v, Entry: pte.New(addr.PPN(0x1000+len(ms)), addr.Page4K)})
				v++
			}
			v += addr.VPN(rng.Intn(16))
		}
		return ms
	}
	// One leaf over a sparse spread, a dense run and huge pages: it breaks
	// the displacement budget, so the build falls back to relaxed
	// (monotone PlaceFrom) placement.
	relaxed := append(sparseThenDense(), func() []Mapping {
		var ms []Mapping
		for k := 0; k < 10; k++ {
			ms = append(ms, Mapping{VPN: addr.VPN(0x100000 + k*2048), Entry: pte.New(addr.PPN(0x200000+k*512), addr.Page2M)})
		}
		return ms
	}()...)
	oneLeaf := DefaultParams()
	oneLeaf.DLimit = 1
	cases := []struct {
		name string
		ms   []Mapping
		p    Params
	}{
		{"sequential", seqMappings(0x1000, 5000), DefaultParams()},
		{"segmented", segmented(), DefaultParams()},
		{"scattered", scattered(), DefaultParams()},
		{"mixed", mixed(), DefaultParams()},
		{"relaxed", relaxed, oneLeaf},
		// A huge page between dense runs in one leaf: its interior VPNs
		// predict hundreds of slots past the huge page's own slot.
		{"huge-in-dense", append(append(seqMappings(0x10000, 4096),
			Mapping{VPN: 0x11000, Entry: pte.New(0x40000, addr.Page2M)}),
			seqMappings(0x11200, 4096)...), oneLeaf},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ix, err := Build(newMem(), c.ms, c.p)
			if err != nil {
				t.Fatal(err)
			}
			if c.name == "relaxed" && ix.root.maxDisp <= c.p.ErrSlotBudget {
				t.Fatalf("fixture built a leaf within the displacement budget (maxDisp %d), want a relaxed one", ix.root.maxDisp)
			}
			probe := func(when string) {
				mustHold(t, ix, when)
				fs := scanAll(ix)
				for _, m := range c.ms {
					agreeWithFullScan(t, ix, fs, m.VPN)
					agreeWithFullScan(t, ix, fs, m.VPN+1)
					agreeWithFullScan(t, ix, fs, m.VPN-1)
					if m.Entry.Size() == addr.Page2M {
						agreeWithFullScan(t, ix, fs, m.VPN+addr.VPN(1+rng.Intn(510)))
						agreeWithFullScan(t, ix, fs, m.VPN+511)
					}
				}
				lo, hi := ix.KeyRange()
				for i := 0; i < 500; i++ {
					agreeWithFullScan(t, ix, fs, lo+addr.VPN(rng.Int63n(int64(hi-lo)+1024)))
				}
			}
			probe("after build")
			// Churn: free a third of the keys, map new ones in and just
			// past the range, and remap some survivors.
			lo, hi := ix.KeyRange()
			for i, m := range c.ms {
				switch i % 3 {
				case 0:
					if !ix.Free(m.VPN) {
						t.Fatalf("free %#x failed", uint64(m.VPN))
					}
				case 1:
					if err := ix.Insert(Mapping{VPN: m.VPN, Entry: pte.New(addr.PPN(0x900000+i), m.Entry.Size())}); err != nil {
						t.Fatal(err)
					}
				}
			}
			huge := scanAll(ix)
			for i := 0; i < 300; i++ {
				v := lo + addr.VPN(rng.Int63n(int64(hi-lo)+4096))
				if e, ok := huge.translate(v); ok && e.Size() != addr.Page4K {
					continue // inside a huge page: not a fresh 4 KB key
				}
				if err := ix.Insert(Mapping{VPN: v, Entry: pte.New(addr.PPN(0xa00000+i), addr.Page4K)}); err != nil {
					t.Fatal(err)
				}
			}
			probe("after churn")
		})
	}
}
