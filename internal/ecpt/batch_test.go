package ecpt

import (
	"fmt"
	"testing"

	"lvm/internal/addr"
	"lvm/internal/mmu"
	"lvm/internal/phys"
	"lvm/internal/pte"
)

// Regions of the batch fixture (a region is 512 4K pages).
const (
	region4K    = 0    // 4K pages only
	region2M    = 1    // one 2M page
	regionMixed = 2    // 2M page unmapped, then 4K pages: both CWT bits set
	regionEmpty = 3000 // never mapped: empty CWT mask
)

func vpnIn(region, off uint64) addr.VPN { return addr.VPN(region<<9 | off) }

// batchFixture builds a table and a walker over it under ASID 1. Two calls
// build identical machines, so one can walk scalar and one batched.
func batchFixture(t *testing.T) *Walker {
	t.Helper()
	tb, err := New(phys.New(64<<20), 1024)
	if err != nil {
		t.Fatal(err)
	}
	maps := []struct {
		v addr.VPN
		e pte.Entry
	}{
		{vpnIn(region4K, 3), pte.New(0x10, addr.Page4K)},
		{vpnIn(region4K, 4), pte.New(0x11, addr.Page4K)},
		{vpnIn(region2M, 0), pte.New(0x200, addr.Page2M)},
		{vpnIn(regionMixed, 0), pte.New(0x400, addr.Page2M)},
	}
	for _, m := range maps {
		if err := tb.Map(m.v, m.e); err != nil {
			t.Fatal(err)
		}
	}
	if !tb.Unmap(vpnIn(regionMixed, 0)) {
		t.Fatal("unmap of the mixed region's 2M page failed")
	}
	if err := tb.Map(vpnIn(regionMixed, 7), pte.New(0x12, addr.Page4K)); err != nil {
		t.Fatal(err)
	}
	w := NewWalker()
	w.Attach(1, tb)
	return w
}

func sameOutcome(t *testing.T, what string, got, want mmu.Outcome) {
	t.Helper()
	if got.Found != want.Found || got.Entry != want.Entry || got.WalkCacheCycles != want.WalkCacheCycles {
		t.Fatalf("%s: %v/%t wcc %d, scalar %v/%t wcc %d", what,
			got.Entry, got.Found, got.WalkCacheCycles, want.Entry, want.Found, want.WalkCacheCycles)
	}
	if got.NumGroups() != want.NumGroups() {
		t.Fatalf("%s: %d groups %v, scalar %d %v", what,
			got.NumGroups(), got.AllRefs(), want.NumGroups(), want.AllRefs())
	}
	for g := 0; g < want.NumGroups(); g++ {
		gg, wg := got.Group(g), want.Group(g)
		if len(gg) != len(wg) {
			t.Fatalf("%s group %d: %v, scalar %v", what, g, gg, wg)
		}
		for j := range wg {
			if gg[j] != wg[j] {
				t.Fatalf("%s group %d[%d]: %#x, scalar %#x", what, g, j, gg[j], wg[j])
			}
		}
	}
}

// TestBatchMatchesScalar runs Lookup-then-WalkBatch against a second
// machine's scalar walks: every slot must agree on entry, walk-cache charge
// and probe groups. planned is the sequence Lookup sees; where it differs
// from vpns, WalkBatch must fall back to fresh walks.
func TestBatchMatchesScalar(t *testing.T) {
	cases := []struct {
		name    string
		asid    uint16
		vpns    []addr.VPN
		planned []addr.VPN // nil: same as vpns
		// probes is the scalar probe count per slot (CWT fetch excluded),
		// pinning that each case exercises what its name says.
		probes []int
	}{
		{name: "present 4K", asid: 1,
			vpns: []addr.VPN{vpnIn(region4K, 3), vpnIn(region4K, 4)}, probes: []int{Ways, Ways}},
		{name: "present 2M", asid: 1,
			vpns: []addr.VPN{vpnIn(region2M, 0), vpnIn(region2M, 311)}, probes: []int{Ways, Ways}},
		{name: "mixed-size region", asid: 1,
			vpns: []addr.VPN{vpnIn(regionMixed, 7), vpnIn(regionMixed, 8)}, probes: []int{2 * Ways, 2 * Ways}},
		{name: "empty mask", asid: 1,
			vpns: []addr.VPN{vpnIn(regionEmpty, 1), vpnIn(regionEmpty, 2)}, probes: []int{0, 0}},
		{name: "CWC miss then hit", asid: 1,
			vpns:   []addr.VPN{vpnIn(region4K, 3), vpnIn(region2M, 5), vpnIn(region4K, 3), vpnIn(region4K, 9)},
			probes: []int{Ways, Ways, Ways, Ways}},
		{name: "unattached ASID", asid: 9,
			vpns: []addr.VPN{vpnIn(region4K, 3), vpnIn(region2M, 0)}, probes: []int{0, 0}},
		{name: "queue mismatch", asid: 1,
			vpns:    []addr.VPN{vpnIn(region4K, 3), vpnIn(region2M, 1), vpnIn(regionMixed, 7), vpnIn(region4K, 4)},
			planned: []addr.VPN{vpnIn(region4K, 3), vpnIn(regionMixed, 7), vpnIn(region4K, 4)},
			probes:  []int{Ways, Ways, 2 * Ways, Ways}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			scalar, batched := batchFixture(t), batchFixture(t)
			planned := c.planned
			if planned == nil {
				planned = c.vpns
			}
			for _, v := range planned {
				e, ok := batched.Lookup(c.asid, v)
				if we, wok := scalar.tables[1].Lookup(v); c.asid == 1 && (ok != wok || e != we) {
					t.Fatalf("Lookup(%d) = %v/%t, software walk %v/%t", v, e, ok, we, wok)
				}
			}
			var bufs mmu.WalkBatchBuf
			batched.WalkBatch(c.asid, c.vpns, &bufs)
			for i, v := range c.vpns {
				want := scalar.Walk(c.asid, v)
				probes := want.Refs()
				if tb := scalar.tables[1]; probes > 0 && want.Group(0)[0] == tb.cwtPA(tb.region(v)) {
					probes-- // the CWT fetch of a CWC miss
				}
				if probes != c.probes[i] {
					t.Errorf("slot %d (vpn %d): scalar walk probed %d ways, want %d", i, v, probes, c.probes[i])
				}
				sameOutcome(t, fmt.Sprintf("slot %d (vpn %d)", i, v), bufs.Outcome(i), want)
			}
		})
	}
}

// TestPlacementPinned maps a few thousand keys into a tiny table, so kick
// chains run out and force resizes, and pins the resulting layout — resize
// count and every way's slots — to values recorded from the original insert,
// which re-hashed a key at every probe. Reusing hashed indices must place
// exactly as it did; any change to kick order, the random-way sequence or
// the resize rehash moves the digest.
func TestPlacementPinned(t *testing.T) {
	tb, err := New(phys.New(64<<20), 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		v := addr.VPN(uint64(i) * 7919 % 100003)
		if err := tb.Map(v, pte.New(addr.PPN(i+1), addr.Page4K)); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if err := tb.Map(addr.VPN(i)<<9|1<<30, pte.New(addr.PPN(i)<<9, addr.Page2M)); err != nil {
				t.Fatal(err)
			}
		}
		if i%7 == 3 { // overwrite in place
			if err := tb.Map(v, pte.New(addr.PPN(i+77), addr.Page4K)); err != nil {
				t.Fatal(err)
			}
		}
	}
	h := uint64(14695981039346656037) // FNV-1a over (size, way, slot, tag, entry)
	mix := func(x uint64) { h = (h ^ x) * 1099511628211 }
	for _, s := range []addr.PageSize{addr.Page4K, addr.Page2M} {
		for wi, w := range tb.tables[s].ways {
			for i, e := range w.slots {
				if e.Valid() {
					mix(uint64(s)<<56 | uint64(wi)<<48 | uint64(i))
					mix(uint64(e.Tag))
					mix(uint64(e.Entry))
				}
			}
		}
	}
	if got := tb.Rehashes(); got != 2 {
		t.Errorf("Rehashes() = %d, want 2", got)
	}
	if h != 0x6131598642dbde02 {
		t.Errorf("placement digest = %#016x, want 0x6131598642dbde02", h)
	}
}
