package core

import (
	"testing"

	"lvm/internal/addr"
	"lvm/internal/phys"
	"lvm/internal/pte"
)

// Key regions of FuzzIndexOps. They are disjoint, so no 4 KB key ever lies
// inside a 2 MB key's span and every VPN has at most one translation.
const (
	fuzzBase4K  = addr.VPN(0x10000)    // dense 4 KB keys: fuzzBase4K + [−4096, 8192)
	fuzzBase2M  = addr.VPN(0x200000)   // 2 MB keys: fuzzBase2M + 512·[0, 64)
	fuzzBaseFar = addr.VPN(0x10000000) // far 4 KB keys: force rebuilds
	fuzzMaxOps  = 256
)

// fuzzKey decodes a key from three bytes: kind selects the region.
func fuzzKey(kind, hi, lo byte) (addr.VPN, addr.PageSize) {
	n := addr.VPN(hi)<<8 | addr.VPN(lo)
	switch kind % 8 {
	case 0, 1, 2, 3:
		return fuzzBase4K + n%8192, addr.Page4K
	case 4: // just below the dense run: the low-edge insert path
		return fuzzBase4K - 1 - n%4096, addr.Page4K
	case 5, 6:
		return fuzzBase2M + (n%64)*addr.VPN(addr.VPNsPer2M), addr.Page2M
	default:
		return fuzzBaseFar + (n%16)*addr.VPN(0x40000), addr.Page4K
	}
}

// fuzzOracle is the plain-map model of the index: key → entry.
type fuzzOracle map[addr.VPN]pte.Entry

// translate returns the oracle's translation of any VPN.
func (o fuzzOracle) translate(v addr.VPN) (pte.Entry, bool) {
	if e, ok := o[v]; ok && e.Size() == addr.Page4K {
		return e, true
	}
	if e, ok := o[addr.AlignDown(v, addr.Page2M)]; ok && e.Size() == addr.Page2M {
		return e, true
	}
	return 0, false
}

// FuzzIndexOps drives random Insert/Free/Rebuild/SetFlags sequences over
// 4 KB and 2 MB keys and checks every result against a plain-map oracle
// and the index invariants (checkInvariants) after every operation.
//
// Input layout: byte 0 sizes the initial dense run; then each operation is
// four bytes: opcode, key kind, key high, key low.
func FuzzIndexOps(f *testing.F) {
	f.Add([]byte{16, 0, 0, 0, 5, 1, 5, 0, 0, 2, 0, 0, 3})
	f.Add([]byte{64, 0, 7, 0, 1, 3, 5, 0, 2, 0, 0, 0, 0, 1, 7, 0, 0, 2, 0, 0, 0, 3, 0, 0, 7})
	f.Fuzz(runIndexOps)
}

// runIndexOps is FuzzIndexOps's body: it replays one encoded op sequence.
func runIndexOps(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	oracle := fuzzOracle{}
	var initial []Mapping
	for i := 0; i <= int(data[0]); i++ {
		v := fuzzBase4K + addr.VPN(i)*3
		e := pte.New(addr.PPN(0x1000+i), addr.Page4K)
		initial = append(initial, Mapping{VPN: v, Entry: e})
		oracle[v] = e
	}
	ix, err := Build(phys.New(256<<20), initial, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	mustHold(t, ix, "build")

	// check compares Walk against the oracle for v.
	check := func(op int, v addr.VPN) {
		t.Helper()
		want, wantOK := oracle.translate(v)
		if r := ix.Walk(v); r.Found != wantOK || r.Entry != want {
			t.Fatalf("op %d: Walk(%#x) = (%v, %t), oracle (%v, %t)", op, uint64(v), r.Entry, r.Found, want, wantOK)
		}
	}
	ops := data[1:]
	for op := 0; op+4 <= len(ops) && op/4 < fuzzMaxOps; op += 4 {
		v, size := fuzzKey(ops[op+1], ops[op+2], ops[op+3])
		switch ops[op] % 4 {
		case 0: // Insert (or remap)
			ppn := addr.PPN(0x100000 + op*addr.VPNsPer2M)
			e := pte.New(ppn, size)
			if err := ix.Insert(Mapping{VPN: v, Entry: e}); err != nil {
				t.Fatalf("op %d: Insert(%#x): %v", op, uint64(v), err)
			}
			oracle[v] = e
		case 1: // Free
			_, want := oracle[v]
			if got := ix.Free(v); got != want {
				t.Fatalf("op %d: Free(%#x) = %t, oracle %t", op, uint64(v), got, want)
			}
			delete(oracle, v)
		case 2: // Rebuild
			if err := ix.Rebuild(); err != nil && (err != ErrEmpty || len(oracle) != 0) {
				t.Fatalf("op %d: Rebuild: %v", op, err)
			}
		case 3: // SetFlags on any VPN of the key's page
			set, clear := pte.FlagDirty, pte.FlagAccessed
			if ops[op+2]&1 == 1 {
				set, clear = clear, set
			}
			target := v
			if size == addr.Page2M {
				target += addr.VPN(ops[op+2]) // a huge page's interior
			}
			e, want := oracle[v]
			if got := ix.SetFlags(target, set, clear); got != want {
				t.Fatalf("op %d: SetFlags(%#x) = %t, oracle %t", op, uint64(target), got, want)
			}
			if want {
				oracle[v] = e.WithFlags(set).ClearFlags(clear)
			}
		}
		mustHold(t, ix, "after op")
		check(op, v)
		if size == addr.Page2M {
			check(op, v+addr.VPN(addr.VPNsPer2M-1))
		}
	}
	for v := range oracle {
		check(len(ops), v)
	}
	// Absent keys: holes of the dense run and unmapped huge pages.
	for i := 0; i < 64; i++ {
		check(len(ops), fuzzBase4K+addr.VPN(i*97+1))
		check(len(ops), fuzzBase2M+addr.VPN(i*addr.VPNsPer2M+17))
	}
}
