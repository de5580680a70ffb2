// Microbenchmarks and allocation guards for the steady-state
// translate-then-access hot path. Every figure in the evaluation is
// produced by replaying millions of accesses through the translation
// pipeline, so sweep throughput is bounded by it; the benchmarks here pin
// its cost per scheme and the alloc tests assert it stays off the garbage
// collector entirely (see EXPERIMENTS.md "Profiling the hot path").
package sim

import (
	"testing"

	"lvm/internal/addr"
	"lvm/internal/oskernel"
	"lvm/internal/phys"
	"lvm/internal/workload"
)

// benchParams puts the workload into the paper's regime: a footprint beyond
// the L2 TLB reach so the walker actually runs in steady state.
func benchParams() workload.Params {
	p := workload.QuickParams()
	p.GUPSTableBytes = 512 << 20
	p.TraceLen = 60_000
	return p
}

// hitParams keeps the footprint tiny so the TLBs absorb nearly every
// access — the walker-idle variant of the hot path.
func hitParams() workload.Params {
	p := workload.QuickParams()
	p.GUPSTableBytes = 2 << 20
	p.TraceLen = 20_000
	return p
}

// benchCPU builds a launched system and a bound core for one scheme.
func benchCPU(tb testing.TB, scheme oskernel.Scheme, thp bool, p workload.Params) (*CPU, *oskernel.System, *workload.Workload) {
	tb.Helper()
	w, err := workload.Build("gups", p)
	if err != nil {
		tb.Fatal(err)
	}
	mem := phys.New(2 << 30)
	sys := oskernel.NewSystem(mem, scheme)
	if _, err := sys.Launch(1, w.Space, thp); err != nil {
		tb.Fatalf("%s: launch: %v", scheme, err)
	}
	cfg := DefaultConfig()
	cfg.Midgard = scheme == oskernel.SchemeMidgard
	return New(cfg, sys.Walker()), sys, w
}

// stepOne runs access i (mod the trace length) through the pipeline as a
// chunk of one — the tail study's and Midgard's granularity.
func stepOne(cpu *CPU, w *workload.Workload, i int, res *Result) {
	i %= len(w.Accesses)
	cpu.TranslateBatch(1, w.Window(i, i+1), w.InstrsPerAccess, res, nil)
}

// BenchmarkStep measures one access through the full machine model — TLBs,
// page walk on a miss, cache hierarchy, data access — per scheme, as a
// chunk of one. With the walker-owned walk buffers this must report 0
// allocs/op in steady state; TestStepZeroAllocs enforces that, this
// benchmark tracks the cycles.
func BenchmarkStep(b *testing.B) {
	for _, scheme := range oskernel.AllSchemes() {
		b.Run(string(scheme), func(b *testing.B) {
			cpu, _, w := benchCPU(b, scheme, false, benchParams())
			var res Result
			// Warm the structures (TLB/cache/PWC fill, buffer growth).
			for i := range w.Accesses {
				stepOne(cpu, w, i, &res)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stepOne(cpu, w, i, &res)
			}
		})
	}
}

// BenchmarkWalk measures the raw hardware page walk per scheme, bypassing
// the TLBs: every iteration is an L2-TLB-miss path.
func BenchmarkWalk(b *testing.B) {
	for _, scheme := range oskernel.AllSchemes() {
		b.Run(string(scheme), func(b *testing.B) {
			cpu, sys, w := benchCPU(b, scheme, false, benchParams())
			walker := sys.Walker()
			var res Result
			for i := range w.Accesses {
				stepOne(cpu, w, i, &res)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := w.Accesses[i%len(w.Accesses)]
				out := walker.Walk(1, addr.VPNOf(a.VA))
				if out.Refs() < 0 {
					b.Fatal("negative refs")
				}
			}
		})
	}
}

// TestStepZeroAllocs is the regression guard for the zero-allocation hot
// path: after warmup, a steady-state chunk of one access must not touch the
// heap for any scheme, page size, or hit/miss mix. A failure here means a walk path
// regained a per-walk allocation (fresh trace slices, map growth, escaping
// closures) and sweep throughput will decay with walk count again.
func TestStepZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful under -short's reduced fixtures")
	}
	for _, scheme := range oskernel.AllSchemes() {
		for _, tc := range []struct {
			name string
			thp  bool
			p    workload.Params
		}{
			{"4k/miss", false, benchParams()},
			{"thp/miss", true, benchParams()},
			{"4k/hit", false, hitParams()},
			{"thp/hit", true, hitParams()},
		} {
			t.Run(string(scheme)+"/"+tc.name, func(t *testing.T) {
				cpu, _, w := benchCPU(t, scheme, tc.thp, tc.p)
				var res Result
				// Two warmup passes: the first grows the walk buffers and
				// LRU maps to their steady-state footprint, the second
				// proves they stopped growing.
				for pass := 0; pass < 2; pass++ {
					for i := range w.Accesses {
						stepOne(cpu, w, i, &res)
					}
				}
				i := 0
				allocs := testing.AllocsPerRun(len(w.Accesses), func() {
					stepOne(cpu, w, i, &res)
					i++
				})
				if allocs != 0 {
					t.Errorf("%s %s: %.2f allocs per steady-state step, want 0", scheme, tc.name, allocs)
				}
			})
		}
	}
}
