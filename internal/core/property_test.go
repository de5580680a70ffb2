package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lvm/internal/addr"
	"lvm/internal/phys"
	"lvm/internal/pte"
)

// Property tests of the learned index's core invariants, driven by random
// address-space shapes (testing/quick).

// holds reports whether ix satisfies its invariants after a mutation,
// logging the violation for the failing quick.Check case.
func holds(t *testing.T, ix *Index) bool {
	if err := ix.checkInvariants(); err != nil {
		t.Log(err)
		return false
	}
	return true
}

// genLayout turns raw fuzz bytes into a multi-segment address space.
func genLayout(raw []byte) []Mapping {
	if len(raw) == 0 {
		return nil
	}
	var ms []Mapping
	base := addr.VPN(0x400)
	ppn := addr.PPN(1)
	for i := 0; i < len(raw); i += 2 {
		gap := addr.VPN(raw[i])*4 + 1
		n := int(raw[min(i+1, len(raw)-1)])%300 + 1
		base += gap
		for j := 0; j < n; j++ {
			ms = append(ms, Mapping{VPN: base, Entry: pte.New(ppn, addr.Page4K)})
			base++
			ppn++
		}
	}
	return ms
}

func TestQuickBuildFindsEveryKey(t *testing.T) {
	f := func(raw []byte) bool {
		ms := genLayout(raw)
		if len(ms) == 0 {
			return true
		}
		mem := phys.New(64 << 20)
		ix, err := Build(mem, ms, DefaultParams())
		if err != nil || !holds(t, ix) {
			return false
		}
		for _, m := range ms {
			r := ix.Walk(m.VPN)
			if !r.Found || r.Entry != m.Entry {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickDepthAndSizeBounded(t *testing.T) {
	p := DefaultParams()
	f := func(raw []byte) bool {
		ms := genLayout(raw)
		if len(ms) == 0 {
			return true
		}
		mem := phys.New(64 << 20)
		ix, err := Build(mem, ms, p)
		if err != nil || !holds(t, ix) {
			return false
		}
		// d_limit bounds depth; index bytes stay far below the PTE space.
		if ix.Depth() > p.DLimit {
			return false
		}
		return ix.SizeBytes() <= len(ms)*NodeBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickInsertThenFindAll(t *testing.T) {
	f := func(raw []byte, extra []uint16) bool {
		ms := genLayout(raw)
		if len(ms) < 2 {
			return true
		}
		mem := phys.New(64 << 20)
		ix, err := Build(mem, ms, DefaultParams())
		if err != nil || !holds(t, ix) {
			return false
		}
		lo, hi := ix.KeyRange()
		span := uint64(hi - lo)
		if span == 0 {
			return true
		}
		inserted := map[addr.VPN]pte.Entry{}
		for i, e := range extra {
			v := lo + addr.VPN(uint64(e)%span)
			ent := pte.New(addr.PPN(0x100000+i), addr.Page4K)
			if err := ix.Insert(Mapping{VPN: v, Entry: ent}); err != nil || !holds(t, ix) {
				return false
			}
			inserted[v] = ent
		}
		for v, ent := range inserted {
			r := ix.Walk(v)
			if !r.Found || r.Entry != ent {
				return false
			}
		}
		// Original keys survive unless overwritten.
		for _, m := range ms {
			if _, over := inserted[m.VPN]; over {
				continue
			}
			if r := ix.Walk(m.VPN); !r.Found || r.Entry != m.Entry {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestQuickFreeIsExact(t *testing.T) {
	f := func(raw []byte, which []uint16) bool {
		ms := genLayout(raw)
		if len(ms) == 0 {
			return true
		}
		mem := phys.New(64 << 20)
		ix, err := Build(mem, ms, DefaultParams())
		if err != nil || !holds(t, ix) {
			return false
		}
		freed := map[addr.VPN]bool{}
		for _, w := range which {
			v := ms[int(w)%len(ms)].VPN
			if freed[v] {
				continue
			}
			if !ix.Free(v) || !holds(t, ix) {
				return false
			}
			freed[v] = true
		}
		for _, m := range ms {
			r := ix.Walk(m.VPN)
			if freed[m.VPN] {
				if r.Found {
					return false
				}
			} else if !r.Found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestQuickWalkAccessesBounded(t *testing.T) {
	// The C_err bound: non-overflowing walks perform at most 1 + 2·C_err
	// PTE accesses (down-first outward search over ±C_err clusters), and
	// overflows are counted.
	p := DefaultParams()
	f := func(raw []byte) bool {
		ms := genLayout(raw)
		if len(ms) == 0 {
			return true
		}
		mem := phys.New(64 << 20)
		ix, err := Build(mem, ms, p)
		if err != nil || !holds(t, ix) {
			return false
		}
		for _, m := range ms {
			r := ix.Walk(m.VPN)
			if !r.Found {
				return false
			}
			if !r.Overflowed && r.PTEAccesses > 1+2*p.CErr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRandomizedMixedPageSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		mem := phys.New(128 << 20)
		var ms []Mapping
		v := addr.VPN(0x10000)
		expected := map[addr.VPN]Mapping{}
		for i := 0; i < 300; i++ {
			if rng.Intn(4) == 0 {
				// Huge page at the next 512 boundary.
				v = addr.AlignDown(v+511, addr.Page2M)
				m := Mapping{VPN: v, Entry: pte.New(addr.PPN(uint64(0x100000)+uint64(i)*512), addr.Page2M)}
				ms = append(ms, m)
				expected[v] = m
				v += 512
			} else {
				run := 1 + rng.Intn(64)
				for j := 0; j < run; j++ {
					m := Mapping{VPN: v, Entry: pte.New(addr.PPN(0x1000+len(ms)), addr.Page4K)}
					ms = append(ms, m)
					expected[v] = m
					v++
				}
				v += addr.VPN(rng.Intn(16))
			}
		}
		ix, err := Build(mem, ms, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		mustHold(t, ix, "after build")
		for base, m := range expected {
			// Probe the base and, for huge pages, random interiors.
			probes := []addr.VPN{base}
			if m.Entry.Size() == addr.Page2M {
				probes = append(probes, base+addr.VPN(rng.Intn(512)), base+511)
			}
			for _, pv := range probes {
				r := ix.Walk(pv)
				if !r.Found || r.Entry != m.Entry {
					t.Fatalf("trial %d: VPN %#x (base %#x, %s) wrong: found=%t",
						trial, uint64(pv), uint64(base), m.Entry.Size(), r.Found)
				}
			}
		}
	}
}
