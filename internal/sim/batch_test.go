// Tests for the batched translation pipeline: batch size must be a pure
// performance knob (bit-identical Results and metrics at any chunk size),
// and fast-forward warmup must leave component state exactly where a
// timing run over the same prefix would.
package sim

import (
	"fmt"
	"reflect"
	"testing"

	"lvm/internal/oskernel"
	"lvm/internal/workload"
)

// batchSizes spans chunks of one (1), a partial chunk (8), and the default
// (64); 7 exercises chunks that never align with anything.
var batchSizes = []int{1, 7, 8, 64}

// runWithBatch builds a fresh system+CPU and runs the whole trace at the
// given chunk size.
func runWithBatch(t *testing.T, scheme oskernel.Scheme, thp bool, p workload.Params, batch int) Result {
	t.Helper()
	cpu, _, w := benchCPU(t, scheme, thp, p)
	cpu.cfg.BatchSize = batch
	return cpu.Run(1, w)
}

// TestBatchBitIdentity is the pipeline's core contract: every batch size
// produces a Result — scalar counters, float cycle sums, and the full
// component metric snapshot — deeply equal to chunks of one.
func TestBatchBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full-trace comparison across batch sizes is slow under -short")
	}
	p := benchParams()
	for _, scheme := range oskernel.AllSchemes() {
		t.Run(string(scheme), func(t *testing.T) {
			want := runWithBatch(t, scheme, false, p, 1)
			for _, batch := range batchSizes[1:] {
				got := runWithBatch(t, scheme, false, p, batch)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("batch %d diverges from batch 1: batch 1 %+v, batch %d %+v", batch, want, batch, got)
				}
			}
		})
	}
}

// TestRunFromZeroMatchesRun pins RunFrom(0) to the exact Run path.
func TestRunFromZeroMatchesRun(t *testing.T) {
	p := hitParams()
	cpuA, _, w := benchCPU(t, oskernel.SchemeLVM, false, p)
	cpuB, _, _ := benchCPU(t, oskernel.SchemeLVM, false, p)
	want := cpuA.Run(1, w)
	got := cpuB.RunFrom(1, w, 0)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("RunFrom(0) diverges from Run:\n run: %+v\nfrom: %+v", want, got)
	}
}

// TestWarmStartEquivalence proves FastForward's state-equivalence claim:
// fast-forwarding a prefix and measuring the suffix must produce exactly
// the metrics of running the prefix with full timing and then measuring
// the same suffix — the functional stream touches every state machine
// (TLBs, walk caches, cache tags, DRAM rows) identically.
func TestWarmStartEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("prefix+suffix comparison is slow under -short")
	}
	p := benchParams()
	for _, scheme := range oskernel.AllSchemes() {
		t.Run(string(scheme), func(t *testing.T) {
			cpuA, _, w := benchCPU(t, scheme, false, p)
			cpuB, _, _ := benchCPU(t, scheme, false, p)
			n := len(w.Accesses) / 3

			if got := cpuA.FastForward(1, w, n); got != n {
				t.Fatalf("FastForward consumed %d accesses, want %d", got, n)
			}
			fast := cpuA.RunFrom(1, w, n)

			prefix := *w
			prefix.Accesses = w.Accesses[:n]
			cpuB.Run(1, &prefix)
			timed := cpuB.RunFrom(1, w, n)

			if !reflect.DeepEqual(fast, timed) {
				t.Errorf("warm start diverges from timed prefix:\nfast:  %+v\ntimed: %+v", fast, timed)
			}
		})
	}
}

// TestRunIntervalsBatchBoundaries locks the interval windows in place when
// chunks straddle a cut: an `every` that is not a multiple of the batch
// size must yield the exact interval deltas of chunks of one.
func TestRunIntervalsBatchBoundaries(t *testing.T) {
	p := hitParams()
	const every = 777 // deliberately co-prime with every batch size used
	cpuA, _, w := benchCPU(t, oskernel.SchemeRadix, false, p)
	cpuA.cfg.BatchSize = 1
	wantRes, wantIv := cpuA.RunIntervals(1, w, every)
	for _, batch := range batchSizes[1:] {
		cpuB, _, _ := benchCPU(t, oskernel.SchemeRadix, false, p)
		cpuB.cfg.BatchSize = batch
		gotRes, gotIv := cpuB.RunIntervals(1, w, every)
		if !reflect.DeepEqual(wantRes, gotRes) {
			t.Errorf("batch %d: interval-run Result diverges from batch 1", batch)
		}
		if !reflect.DeepEqual(wantIv, gotIv) {
			t.Errorf("batch %d: interval windows diverge from batch 1 (%d vs %d intervals)",
				batch, len(wantIv), len(gotIv))
		}
	}
}

// TestRunTailBatchIdentity checks the per-access latency stream: at every
// batch size the retire phase must hand the tail study the exact float a
// chunk of one produces for every access. (A non-nil hook forces chunks of
// one whatever the batch size, so the comparison uses the hook-free form;
// TestRunTailChurnPinned covers the hooked path.)
func TestRunTailBatchIdentity(t *testing.T) {
	p := hitParams()
	cpuA, _, w := benchCPU(t, oskernel.SchemeLVM, false, p)
	cpuA.cfg.BatchSize = 1
	wantRes, wantLat := cpuA.RunTail(1, w, nil)
	for _, batch := range batchSizes[1:] {
		cpuB, _, _ := benchCPU(t, oskernel.SchemeLVM, false, p)
		cpuB.cfg.BatchSize = batch
		gotRes, gotLat := cpuB.RunTail(1, w, nil)
		if !reflect.DeepEqual(wantRes, gotRes) {
			t.Errorf("batch %d: tail-run Result diverges from batch 1", batch)
		}
		if !reflect.DeepEqual(wantLat, gotLat) {
			t.Errorf("batch %d: latency stream diverges from batch 1", batch)
		}
	}
}

// TestTranslateBatchZeroAllocs seals full-size chunks the way
// TestStepZeroAllocs seals chunks of one: after the scratch grows to its
// steady-state footprint, a chunk must not touch the heap for any scheme.
func TestTranslateBatchZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short's reduced fixtures")
	}
	for _, scheme := range oskernel.AllSchemes() {
		t.Run(string(scheme), func(t *testing.T) {
			cpu, _, w := benchCPU(t, scheme, false, benchParams())
			var res Result
			instrs := w.InstrsPerAccess
			// Two warm passes: grow scratch and LRU slabs, then prove they
			// stopped growing.
			cpu.Run(1, w)
			cpu.Run(1, w)
			n := len(w.Accesses)
			i := 0
			allocs := testing.AllocsPerRun(n/DefaultBatchSize, func() {
				end := i + DefaultBatchSize
				if end > n {
					end = n
				}
				cpu.TranslateBatch(1, w.Window(i, end), instrs, &res, nil)
				i = end
				if i >= n {
					i = 0
				}
			})
			if allocs != 0 {
				t.Errorf("%s: %.2f allocs per steady-state batch, want 0", scheme, allocs)
			}
		})
	}
}

// TestFastForwardZeroAllocs: the warmup stream must stay off the heap too —
// it exists to be cheap.
func TestFastForwardZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short's reduced fixtures")
	}
	for _, scheme := range oskernel.AllSchemes() {
		t.Run(string(scheme), func(t *testing.T) {
			cpu, _, w := benchCPU(t, scheme, false, benchParams())
			cpu.FastForward(1, w, len(w.Accesses))
			cpu.FastForward(1, w, len(w.Accesses))
			allocs := testing.AllocsPerRun(3, func() {
				cpu.FastForward(1, w, len(w.Accesses))
			})
			if allocs != 0 {
				t.Errorf("%s: %.2f allocs per steady-state fast-forward pass, want 0", scheme, allocs)
			}
		})
	}
}

// BenchmarkStepBatch is BenchmarkStep at several chunk sizes: cost per
// access (batch64 against batch1 is the amortization headline).
func BenchmarkStepBatch(b *testing.B) {
	for _, scheme := range oskernel.AllSchemes() {
		for _, batch := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/batch%d", scheme, batch), func(b *testing.B) {
				cpu, _, w := benchCPU(b, scheme, false, benchParams())
				var res Result
				instrs := w.InstrsPerAccess
				cpu.Run(1, w) // warm structures and scratch
				n := len(w.Accesses)
				b.ReportAllocs()
				b.ResetTimer()
				i := 0
				for done := 0; done < b.N; {
					end := i + batch
					if end > n {
						end = n
					}
					cpu.TranslateBatch(1, w.Window(i, end), instrs, &res, nil)
					done += end - i
					i = end
					if i >= n {
						i = 0
					}
				}
			})
		}
	}
}

// BenchmarkFastForward prices one warmup access per scheme: the timing
// pipeline with its accounting discarded.
func BenchmarkFastForward(b *testing.B) {
	for _, scheme := range oskernel.AllSchemes() {
		b.Run(string(scheme), func(b *testing.B) {
			cpu, _, w := benchCPU(b, scheme, false, benchParams())
			n := len(w.Accesses)
			cpu.FastForward(1, w, n)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				done += cpu.FastForward(1, w, n)
			}
		})
	}
}
