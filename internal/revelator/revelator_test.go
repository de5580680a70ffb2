package revelator

import (
	"math/rand"
	"testing"

	"lvm/internal/addr"
	"lvm/internal/mmu"
	"lvm/internal/phys"
	"lvm/internal/pte"
)

func newTable(t *testing.T, expected int) *Table {
	t.Helper()
	tb, err := New(phys.New(256<<20), expected)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestSizing(t *testing.T) {
	cases := []struct{ expected, slots int }{
		{0, 1024}, {100, 1024}, {614, 1024}, {615, 2048}, {5000, 16384},
	}
	for _, tc := range cases {
		tb := newTable(t, tc.expected)
		if tb.Slots() != tc.slots {
			t.Errorf("New(expected=%d): %d slots, want %d", tc.expected, tb.Slots(), tc.slots)
		}
	}
}

func TestMapLookupUnmap(t *testing.T) {
	tb := newTable(t, 64)
	e := pte.New(0xabc, addr.Page4K)
	if err := tb.Map(7, e); err != nil {
		t.Fatal(err)
	}
	if got, ok := tb.Lookup(7); !ok || got != e {
		t.Fatalf("lookup = %v, %t", got, ok)
	}
	if got, ok := tb.lookup(nil, 7); !ok || got != e {
		t.Fatalf("hash lookup = %v, %t (mirror diverged)", got, ok)
	}
	if !tb.Unmap(7) {
		t.Fatal("unmap failed")
	}
	if _, ok := tb.Lookup(7); ok {
		t.Error("radix lookup after unmap succeeded")
	}
	if _, ok := tb.lookup(nil, 7); ok {
		t.Error("hash lookup after unmap succeeded")
	}
	if tb.LiveEntries() != 0 {
		t.Errorf("live = %d, want 0", tb.LiveEntries())
	}
}

// TestChurnOracle interleaves maps and unmaps and checks the hash mirror
// against the authoritative radix table at every VPN — tombstone reuse and
// chain displacement must never strand or resurrect an entry.
func TestChurnOracle(t *testing.T) {
	tb := newTable(t, 256)
	rng := rand.New(rand.NewSource(23))
	mapped := map[addr.VPN]pte.Entry{}
	for op := 0; op < 5000; op++ {
		v := addr.VPN(rng.Intn(1 << 10))
		if _, ok := mapped[v]; ok && rng.Intn(3) == 0 {
			if !tb.Unmap(v) {
				t.Fatalf("op %d: unmap of mapped %d failed", op, v)
			}
			delete(mapped, v)
		} else {
			e := pte.New(addr.PPN(op+1), addr.Page4K)
			if err := tb.Map(v, e); err != nil {
				t.Fatalf("op %d: map %d: %v", op, v, err)
			}
			mapped[v] = e
		}
	}
	if tb.LiveEntries() != len(mapped) {
		t.Fatalf("live = %d, oracle %d", tb.LiveEntries(), len(mapped))
	}
	for v := addr.VPN(0); v < 1<<10; v++ {
		got, ok := tb.lookup(nil, v)
		want, isMapped := mapped[v]
		if ok != isMapped || (isMapped && got != want) {
			t.Fatalf("VPN %d: hash %v/%t, oracle %v/%t", v, got, ok, want, isMapped)
		}
		rGot, rOK := tb.Lookup(v)
		if rOK != ok || (ok && rGot != got) {
			t.Fatalf("VPN %d: hash and radix diverge (%v/%t vs %v/%t)", v, got, ok, rGot, rOK)
		}
	}
}

// TestTombstoneReuse: unmap then map along the same chain must reuse the
// tombstone rather than extend the chain.
func TestTombstoneReuse(t *testing.T) {
	tb := newTable(t, 64)
	tb.Map(7, pte.New(1, addr.Page4K))
	tb.Unmap(7)
	if err := tb.Map(7, pte.New(2, addr.Page4K)); err != nil {
		t.Fatal(err)
	}
	i := tb.home(7)
	if tb.state[i] != slotLive || tb.slots[i].Entry.PPN() != 2 {
		t.Errorf("home slot state=%d entry=%v, want live remap", tb.state[i], tb.slots[i].Entry)
	}
}

// TestHashFullRollback fills every slot and checks the overflowing Map fails
// atomically: the radix insert must be rolled back so the structures agree.
func TestHashFullRollback(t *testing.T) {
	tb := newTable(t, 64) // 1024 slots
	n := tb.Slots()
	for i := 0; i < n; i++ {
		if err := tb.Map(addr.VPN(i), pte.New(addr.PPN(i+1), addr.Page4K)); err != nil {
			t.Fatalf("map %d: %v", i, err)
		}
	}
	over := addr.VPN(n)
	if err := tb.Map(over, pte.New(0x9999, addr.Page4K)); err == nil {
		t.Fatal("map into a full table succeeded")
	}
	if _, ok := tb.Lookup(over); ok {
		t.Error("radix kept the entry the hash rejected")
	}
	if tb.LiveEntries() != n {
		t.Errorf("live = %d, want %d", tb.LiveEntries(), n)
	}
}

func TestHugePageProbe(t *testing.T) {
	tb := newTable(t, 64)
	base := addr.AlignDown(1<<13, addr.Page2M)
	if err := tb.Map(base, pte.New(0x4000, addr.Page2M)); err != nil {
		t.Fatal(err)
	}
	// Any VPN inside the region resolves through the aligned tag.
	if e, ok := tb.lookup(nil, base+77); !ok || e.Size() != addr.Page2M {
		t.Fatalf("huge lookup = %v, %t", e, ok)
	}
	if !tb.Unmap(base) {
		t.Fatal("huge unmap failed")
	}
	if _, ok := tb.lookup(nil, base+77); ok {
		t.Error("huge entry survived unmap")
	}
}

// TestWalkTraceShape pins the speculative walk's structure: the hash probe
// chain is the critical prefix, the radix verify walk is the suffix, and a
// miss (unmapped page) issues no verify walk at all.
func TestWalkTraceShape(t *testing.T) {
	tb := newTable(t, 64)
	w := NewWalker()
	w.Attach(1, tb)
	tb.Map(7, pte.New(0x100, addr.Page4K))

	out := w.Walk(1, 7)
	if !out.Found || out.Entry.PPN() != 0x100 {
		t.Fatalf("walk = %+v", out)
	}
	if !out.HasVerify() || out.VerifyGroups() != 4 {
		t.Fatalf("verify groups = %d, want the 4-level radix walk", out.VerifyGroups())
	}
	if out.CriticalGroups() < 1 {
		t.Fatalf("critical groups = %d, want the probe chain", out.CriticalGroups())
	}
	// wcc = hash step + the verify walk's PWC probes (cold: one per level
	// above the leaf... pinned only as strictly more than the bare step).
	if out.WalkCacheCycles <= mmu.StepCycles {
		t.Errorf("wcc = %d, want > StepCycles (verify PWC charge missing)", out.WalkCacheCycles)
	}
	if w.specResolved.Value() != 1 {
		t.Errorf("specResolved = %d", w.specResolved.Value())
	}

	miss := w.Walk(1, 9)
	if miss.Found || miss.HasVerify() {
		t.Fatalf("unmapped walk = %+v, want miss with no verify region", miss)
	}
	if miss.NumGroups() < 1 {
		t.Error("unmapped walk issued no probes")
	}
	if miss.WalkCacheCycles != mmu.StepCycles {
		t.Errorf("miss wcc = %d, want bare StepCycles", miss.WalkCacheCycles)
	}
	if w.specMisses.Value() != 1 {
		t.Errorf("specMisses = %d", w.specMisses.Value())
	}
}

// TestBatchMatchesScalar runs the Lookup-then-WalkBatch pipeline against a
// fresh walker's scalar walks: every slot must agree on entry, groups, and
// the verify partition. ASIDs 1 and 2 have tables of different sizes, so
// homes hashed for one table are wrong for the other; 2M mappings make a
// walk hash two homes (the 4K chain misses first).
func TestBatchMatchesScalar(t *testing.T) {
	build := func() *Walker {
		w := NewWalker()
		for _, as := range []struct {
			asid     uint16
			expected int
		}{{1, 64}, {2, 5000}} {
			tb := newTable(t, as.expected)
			w.Attach(as.asid, tb)
			for i := 0; i < 32; i++ {
				if err := tb.Map(addr.VPN(i*3), pte.New(addr.PPN(0x100+i), addr.Page4K)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i <= 2; i++ {
				v := addr.VPN(i << 9)
				if err := tb.Map(v, pte.New(addr.PPN(i<<12), addr.Page2M)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if w.tables[1].Slots() == w.tables[2].Slots() {
			t.Fatal("fixture tables must differ in size")
		}
		return w
	}
	vpns := []addr.VPN{0, 3, 30, 5 /* unmapped */, 512 + 7, 93, 1024, 0}
	cases := []struct {
		name       string
		lookupASID uint16
		planned    []addr.VPN
		walkASID   uint16
	}{
		{"replay", 1, vpns, 1},
		{"replay second table", 2, vpns, 2},
		{"vpn mismatch", 1, []addr.VPN{0, 30, 512 + 7, 1024, 0}, 1},
		{"asid mismatch", 1, vpns, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			batched, scalar := build(), build()
			for _, v := range c.planned {
				batched.Lookup(c.lookupASID, v)
			}
			var bufs mmu.WalkBatchBuf
			batched.WalkBatch(c.walkASID, vpns, &bufs)
			for i, v := range vpns {
				got := bufs.Outcome(i)
				want := scalar.Walk(c.walkASID, v)
				if got.Found != want.Found || got.Entry != want.Entry {
					t.Fatalf("slot %d (vpn %d): %v/%t, scalar %v/%t",
						i, v, got.Entry, got.Found, want.Entry, want.Found)
				}
				if got.NumGroups() != want.NumGroups() || got.VerifyGroups() != want.VerifyGroups() {
					t.Fatalf("slot %d (vpn %d): trace %d/%d groups, scalar %d/%d",
						i, v, got.NumGroups(), got.VerifyGroups(), want.NumGroups(), want.VerifyGroups())
				}
				if got.WalkCacheCycles != want.WalkCacheCycles {
					t.Errorf("slot %d (vpn %d): wcc %d, scalar %d",
						i, v, got.WalkCacheCycles, want.WalkCacheCycles)
				}
				for gi := 0; gi < want.NumGroups(); gi++ {
					gg, wg := got.Group(gi), want.Group(gi)
					if len(gg) != len(wg) {
						t.Fatalf("slot %d group %d: %v vs %v", i, gi, gg, wg)
					}
					for j := range wg {
						if gg[j] != wg[j] {
							t.Errorf("slot %d group %d[%d]: %#x vs %#x", i, gi, j, gg[j], wg[j])
						}
					}
				}
			}
			if n := batched.plans.Len(); n != 0 {
				t.Errorf("WalkBatch left %d queued plans", n)
			}
		})
	}
}

func TestTableBytesIncludesHashRegion(t *testing.T) {
	tb := newTable(t, 64)
	if tb.TableBytes() != tb.Radix.TableBytes()+phys.BlockBytes(tb.order) {
		t.Errorf("TableBytes = %d, want radix %d + hash %d",
			tb.TableBytes(), tb.Radix.TableBytes(), phys.BlockBytes(tb.order))
	}
}

// TestBatchSlotReuse runs two batches through one WalkBatchBuf: slot 0's
// first walk carries a verify region, its second (an unmapped page) must
// not inherit the old mark, and every slot of both rounds must equal a
// fresh walker's scalar walk.
func TestBatchSlotReuse(t *testing.T) {
	build := func() *Walker {
		tb := newTable(t, 64)
		w := NewWalker()
		w.Attach(1, tb)
		for i, v := range []addr.VPN{7, 8, 40} {
			if err := tb.Map(v, pte.New(addr.PPN(0x100+i), addr.Page4K)); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	batched, scalar := build(), build()
	var bufs mmu.WalkBatchBuf
	for round, vpns := range [][]addr.VPN{{7, 8, 40}, {9, 40}} {
		for _, v := range vpns {
			batched.Lookup(1, v)
		}
		batched.WalkBatch(1, vpns, &bufs)
		for i, v := range vpns {
			got, want := bufs.Outcome(i), scalar.Walk(1, v)
			if got.Found != want.Found || got.Entry != want.Entry ||
				got.NumGroups() != want.NumGroups() || got.VerifyGroups() != want.VerifyGroups() {
				t.Fatalf("round %d slot %d (vpn %d): %v/%t %d/%d groups, scalar %v/%t %d/%d",
					round, i, v, got.Entry, got.Found, got.NumGroups(), got.VerifyGroups(),
					want.Entry, want.Found, want.NumGroups(), want.VerifyGroups())
			}
			if g, w := got.OverlapLatency(10, 2, 15), want.OverlapLatency(10, 2, 15); g != w {
				t.Errorf("round %d slot %d: overlap latency %d, scalar %d", round, i, g, w)
			}
			ga, wa := got.AllRefs(), want.AllRefs()
			if len(ga) != len(wa) {
				t.Fatalf("round %d slot %d: refs %v, scalar %v", round, i, ga, wa)
			}
			for j := range wa {
				if ga[j] != wa[j] {
					t.Errorf("round %d slot %d ref %d: %#x, scalar %#x", round, i, j, ga[j], wa[j])
				}
			}
		}
	}
	if bufs.Outcome(0).HasVerify() {
		t.Error("slot 0 kept the previous batch's verify mark")
	}
}
