// Pinned end-to-end runs for the paths that translate one access at a time:
// the tail study's hooked run, whose hook really maps and unmaps pages, and
// the Midgard model. The expected counters and latency digests are frozen
// values; any change to the accounting order, the walk sequence or the
// hook's placement moves them.
package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"lvm/internal/addr"
	"lvm/internal/oskernel"
	"lvm/internal/phys"
	"lvm/internal/vas"
	"lvm/internal/workload"
)

// pinOf renders a Result's counters and the bits of its cycle sums.
func pinOf(r Result) string {
	return fmt.Sprintf("instr=%d acc=%d walks=%d refs=%d l1m=%d l2m=%d dram=%d faults=%d cyc=%x tlb=%x walk=%x",
		r.Instructions, r.Accesses, r.Walks, r.WalkRefs, r.L1TLBMisses, r.L2TLBMisses,
		r.DRAMAccesses, r.Faults, math.Float64bits(r.Cycles),
		math.Float64bits(r.TLBCycles), math.Float64bits(r.WalkCycles))
}

// latDigest is the FNV-1a digest of a latency stream's float bits.
func latDigest(lats []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range lats {
		bits := math.Float64bits(l)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// churnRun replays mem$ on the scaled machine the way the tail study does:
// every 256th access the hook unmaps the next heap page and maps it back,
// and charges the management cycles the OS accrued for it.
func churnRun(t *testing.T, scheme oskernel.Scheme, batch int) (Result, []float64, int) {
	t.Helper()
	p := workload.QuickParams()
	p.TraceLen = 30_000
	w, err := workload.Build("mem$", p)
	if err != nil {
		t.Fatal(err)
	}
	pwc, lwc := ScaledHW()
	sys := oskernel.NewSystemHW(phys.New(2<<30), scheme, oskernel.HWConfig{PWCEntriesPerLevel: pwc, LWCEntries: lwc})
	proc, err := sys.Launch(1, w.Space, false)
	if err != nil {
		t.Fatal(err)
	}
	var heap *vas.Region
	for i := range w.Space.Regions {
		if w.Space.Regions[i].Kind == vas.Heap {
			heap = &w.Space.Regions[i]
		}
	}
	if heap == nil {
		t.Fatal("mem$ has no heap region")
	}
	cursor, tail := heap.Base, heap.Mapped[len(heap.Mapped)-1]
	lastMgmt := proc.MgmtCycles
	ops := 0
	hook := func(i int) float64 {
		if i%256 != 255 {
			return 0
		}
		if sys.UnmapPage(1, cursor) {
			ops++
			if err := sys.MapPage(1, cursor, addr.Page4K); err == nil {
				ops++
			}
		}
		if cursor++; cursor >= tail {
			cursor = heap.Base
		}
		d := proc.MgmtCycles - lastMgmt
		lastMgmt = proc.MgmtCycles
		return float64(d)
	}
	cfg := ScaledConfig()
	cfg.BatchSize = batch
	res, lats := New(cfg, sys.Walker()).RunTail(1, w, hook)
	return res, lats, ops
}

// TestRunTailChurnPinned pins the hooked tail-study run on lvm and radix at
// two batch sizes (a hooked run steps one access at a time whatever the
// batch size).
func TestRunTailChurnPinned(t *testing.T) {
	want := map[oskernel.Scheme]struct {
		res string
		lat uint64
		ops int
	}{
		oskernel.SchemeLVM: {
			"instr=300000 acc=30000 walks=8907 refs=8908 l1m=16091 l2m=8907 dram=10512 faults=0 cyc=41321d5c99999b80 tlb=40fb7fd000000000 walk=411a0de800000000",
			0x5f5eca1452e638f3, 234,
		},
		oskernel.SchemeRadix: {
			"instr=300000 acc=30000 walks=8907 refs=9943 l1m=16091 l2m=8907 dram=10250 faults=0 cyc=4131a43099999cc7 tlb=40fb7fd000000000 walk=4119669000000000",
			0x48cd98509a23ef01, 234,
		},
	}
	for _, scheme := range []oskernel.Scheme{oskernel.SchemeLVM, oskernel.SchemeRadix} {
		for _, batch := range []int{1, 64} {
			t.Run(fmt.Sprintf("%s/batch%d", scheme, batch), func(t *testing.T) {
				res, lats, ops := churnRun(t, scheme, batch)
				wt := want[scheme]
				if got := pinOf(res); got != wt.res {
					t.Errorf("Result %s, want %s", got, wt.res)
				}
				if got := latDigest(lats); got != wt.lat {
					t.Errorf("latency digest %#x, want %#x", got, wt.lat)
				}
				if ops != wt.ops {
					t.Errorf("%d churn ops, want %d", ops, wt.ops)
				}
			})
		}
	}
}

// TestMidgardPinned pins a Midgard run: VA-indexed data accesses, with a
// translation only on an LLC miss, at two batch sizes.
func TestMidgardPinned(t *testing.T) {
	const (
		wantRes = "instr=240000 acc=60000 walks=58959 refs=111558 l1m=59848 l2m=58959 dram=84006 faults=0 cyc=4162b990c00018ec tlb=411991e000000000 walk=4156474a00000000"
		wantLat = uint64(0x465c15ee86dd7afd)
	)
	for _, batch := range []int{1, 64} {
		t.Run(fmt.Sprintf("batch%d", batch), func(t *testing.T) {
			cpu, _, w := benchCPU(t, oskernel.SchemeMidgard, false, benchParams())
			cpu.cfg.BatchSize = batch
			res, lats := cpu.RunTail(1, w, nil)
			if got := pinOf(res); got != wantRes {
				t.Errorf("Result %s, want %s", got, wantRes)
			}
			if got := latDigest(lats); got != wantLat {
				t.Errorf("latency digest %#x, want %#x", got, wantLat)
			}
		})
	}
}
