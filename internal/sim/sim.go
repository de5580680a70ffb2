// Package sim is the trace-driven full-system timing simulator that stands
// in for the paper's SST+QEMU stack (§6.1). Each memory access of a
// workload trace flows through the Table-1 machine model: L1/L2 TLBs, the
// scheme's hardware page walker (whose memory requests are charged to the
// cache hierarchy and DRAM), and finally the data access itself.
//
// Cycle accounting models a 4-issue out-of-order core: instructions retire
// at the issue width, translation latency is exposed (an access cannot
// start before its translation), and data-miss latency is partially hidden
// by memory-level parallelism.
package sim

import (
	"fmt"

	"lvm/internal/addr"
	"lvm/internal/cache"
	"lvm/internal/dram"
	"lvm/internal/metrics"
	"lvm/internal/mmu"
	"lvm/internal/pte"
	"lvm/internal/stats"
	"lvm/internal/tlb"
	"lvm/internal/workload"
)

// Config is the machine configuration.
type Config struct {
	Cache cache.Config
	DRAM  dram.Config
	// TLBL1Small, TLBL1Huge, TLBL2, TLBL2Huge size the TLBs (entries per
	// page size; TLBL2Huge defaults to TLBL2).
	TLBL1Small, TLBL1Huge, TLBL2, TLBL2Huge int
	// IssueWidth is the core's retire rate in instructions per cycle.
	IssueWidth float64
	// DataOverlap is the fraction of data-access latency hidden by the
	// out-of-order window and MLP (0 = fully exposed, 1 = fully hidden).
	DataOverlap float64
	// Midgard enables the §7.5.2 model: data requests are looked up with
	// the intermediate (virtual) address first; translation is needed only
	// when the request misses the LLC.
	Midgard bool
	// BatchSize is the translation pipeline's chunk size — a pure
	// performance knob: every value produces bit-identical Results and
	// metrics (test-enforced). 0 means DefaultBatchSize; 1 runs the same
	// pipeline in chunks of one access. Excluded from JSON (and therefore
	// from the experiment config fingerprint) because it cannot change any
	// output.
	BatchSize int `json:"-"`
}

// DefaultBatchSize is the translation pipeline's chunk size when
// Config.BatchSize is zero.
const DefaultBatchSize = 64

// withTLBDefaults fills unset TLB geometry with the Table-1 sizes. It is
// the single source of the defaults: DefaultConfig derives its published
// values from it and New normalizes every incoming Config through it, so a
// zero Config can never silently diverge from the documented machine.
func (cfg Config) withTLBDefaults() Config {
	if cfg.TLBL1Small == 0 {
		cfg.TLBL1Small, cfg.TLBL1Huge, cfg.TLBL2 = 64, 32, 2048
	}
	if cfg.TLBL2Huge == 0 {
		cfg.TLBL2Huge = cfg.TLBL2
	}
	return cfg
}

// DefaultConfig matches Table 1 at 2 GHz.
func DefaultConfig() Config {
	return Config{
		Cache:       cache.DefaultConfig(),
		DRAM:        dram.DefaultConfig(),
		IssueWidth:  4,
		DataOverlap: 0.6,
	}.withTLBDefaults()
}

// ScaledConfig is the machine model the experiment harness uses: workload
// footprints are scaled ~50× down from the paper's testbed (124 GB → a few
// GB), so every SRAM structure that the paper sizes against the footprint
// scales with it — caches, TLBs, and the radix PWC — preserving the
// paper's working-set-to-capacity ratios. The LVM walk cache deliberately
// stays at its Table-1 size of 16 entries: the learned index's size is
// footprint-independent (§7.3), and keeping the LWC fixed is precisely the
// property under test.
func ScaledConfig() Config {
	cfg := DefaultConfig()
	// Paper ratios at 124 GB: L2 1 MB (1:124000), L3 2 MB/core (1:62000),
	// L2 TLB reach 8 MB (1:15500). At ~4 GB footprints the proportional
	// sizes are L2 32 KB, L3 64 KB, L2 TLB 128 entries per size. The L1
	// cache keeps a functional minimum (16 KB).
	cfg.Cache.L1 = cache.LevelConfig{SizeBytes: 16 << 10, Ways: 8, LatencyCycles: 1}
	cfg.Cache.L2 = cache.LevelConfig{SizeBytes: 32 << 10, Ways: 8, LatencyCycles: 20}
	cfg.Cache.L3 = cache.LevelConfig{SizeBytes: 64 << 10, Ways: 16, LatencyCycles: 56}
	// 4 KB TLB reach ratio 1:15500 and 2 MB reach ratio 1:19 at the
	// paper's scale map to 128 and 32 entries here.
	cfg.TLBL1Small = 16
	cfg.TLBL1Huge = 8
	cfg.TLBL2 = 128
	cfg.TLBL2Huge = 32
	return cfg
}

// ScaledHW returns the walk-cache sizing for ScaledConfig: the radix PWC
// scales to 8 entries per level — still ~4 generous versus the strict
// footprint-proportional size (Table 1's 32×2MB reach against a 124 GB
// footprint is 1:1200; 8×2MB against ~2 GB is 1:128), and it lands radix's
// PDE miss rates inside the paper's reported 59.7–99.6% band. The LWC
// stays at its Table-1 16 entries — footprint-independence is LVM's claim
// under test.
func ScaledHW() (pwcEntriesPerLevel, lwcEntries int) { return 8, 16 }

// Result carries the metrics every figure of §7 is derived from.
type Result struct {
	Workload string
	Scheme   string

	Instructions uint64
	Accesses     uint64
	Cycles       float64

	// MMU overhead components (Figure 10): cycles spent translating.
	TLBCycles  float64
	WalkCycles float64

	// Walks and page-walk memory traffic (Figure 11).
	Walks    uint64
	WalkRefs uint64

	// TLB behaviour.
	L1TLBMisses uint64
	L2TLBMisses uint64
	L2TLBMiss   float64 // rate

	// Cache behaviour (Figure 12).
	L2MPKI, L3MPKI float64
	L1MPKI         float64
	DRAMAccesses   uint64

	// Translation faults (accesses to unmapped pages; should be zero).
	Faults uint64

	// Metrics is the full component snapshot taken when the run finished —
	// every counter the scalar fields above are derived from, plus the
	// derived rates as gauges, under the stable dot-namespaced schema
	// (tlb.*, cache.*, dram.*, walk.*, run.*). It is what lvmbench -json
	// serializes per run.
	Metrics metrics.Set
}

// Snapshot implements metrics.Source over the finished run.
func (r Result) Snapshot() metrics.Set { return r.Metrics }

// MMUCycles returns the total translation overhead.
func (r Result) MMUCycles() float64 { return r.TLBCycles + r.WalkCycles }

// CPU is one simulated core with private TLBs and caches.
type CPU struct {
	cfg    Config
	tlbs   *tlb.Hierarchy
	caches *cache.Hierarchy
	// walker resolves TLB misses functionally (Lookup) so the TLB can fill
	// in arrival order, then replays the timing walks (WalkBatch).
	walker mmu.BatchWalker

	batch batchState
}

// batchState is the reusable scratch of the translation pipeline.
type batchState struct {
	bufs mmu.WalkBatchBuf
	vpns []addr.VPN
	recs []accessRec
}

// accessRec carries one access's functional-phase results to the retire
// phase.
type accessRec struct {
	va     addr.VA
	entry  pte.Entry
	tlbLat int
	slot   int32
	hitL1  bool
	miss   bool
	fault  bool
}

// New creates a core bound to a scheme walker.
func New(cfg Config, walker mmu.BatchWalker) *CPU {
	cfg = cfg.withTLBDefaults()
	return &CPU{
		cfg:    cfg,
		tlbs:   tlb.NewHierarchySized(cfg.TLBL1Small, cfg.TLBL1Huge, cfg.TLBL2, cfg.TLBL2Huge),
		caches: cache.New(cfg.Cache, dram.New(cfg.DRAM)),
		walker: walker,
	}
}

// batchSize resolves the configured chunk size.
func (c *CPU) batchSize() int {
	if c.cfg.BatchSize == 0 {
		return DefaultBatchSize
	}
	return c.cfg.BatchSize
}

// TLBs exposes the TLB hierarchy for inspection.
func (c *CPU) TLBs() *tlb.Hierarchy { return c.tlbs }

// Caches exposes the cache hierarchy for inspection.
func (c *CPU) Caches() *cache.Hierarchy { return c.caches }

// walkLatency charges a walk's memory requests to the cache hierarchy:
// groups are sequential, requests within a group run in parallel (their
// latency is the max). The outcome's trace is a view into the walker's
// buffer, consumed here before the next walk can reset it.
//
// The returned pair splits the walk at the verify boundary: critical is the
// resolve prefix the data access must wait for, verify the overlappable
// suffix (zero for traces without a verify region). For a no-verify trace
// every group accrues into critical through the single accumulator below, in
// group order — the exact float-operation sequence of the pre-overlap model,
// which is what keeps the seven non-speculative schemes bit-identical.
func (c *CPU) walkLatency(out mmu.Outcome) (critical, verify float64) {
	critical = float64(out.WalkCacheCycles)
	vstart := out.CriticalGroups()
	for gi, groups := 0, out.NumGroups(); gi < groups; gi++ {
		groupMax := 0
		for _, pa := range out.Group(gi) {
			if l := c.caches.Access(pa, true); l > groupMax {
				groupMax = l
			}
		}
		if gi < vstart {
			critical += float64(groupMax)
		} else {
			verify += float64(groupMax)
		}
	}
	return critical, verify
}

// Run simulates a trace for one process (ASID) and returns the metrics.
func (c *CPU) Run(asid uint16, w *workload.Workload) Result {
	return c.run(asid, w, runOpts{})
}

// RunFrom simulates the trace suffix starting at access index start and
// returns metrics covering only that measured region: component counters
// are reported as the delta over the run (float cycle accounting starts at
// zero anyway). RunFrom(0) is exactly Run. Pair it with FastForward to
// warm state on a prefix and measure the rest.
func (c *CPU) RunFrom(asid uint16, w *workload.Workload, start int) Result {
	if start < 0 {
		start = 0
	}
	if start > len(w.Accesses) {
		start = len(w.Accesses)
	}
	return c.run(asid, w, runOpts{start: start})
}

// runOpts selects run's optional behaviours; the zero value is a plain
// full-trace run.
type runOpts struct {
	// start is the first access index simulated (the measured region is
	// [start, len(Accesses))). When start > 0, finish reports component
	// counters as deltas over the run.
	start int
	// hook injects per-access extra cycles (OS work). A non-nil hook can
	// mutate OS state between accesses, so the run proceeds in chunks of
	// one access and the hook runs before each.
	hook func(i int) float64
	// lats, when non-nil, receives access i's end-to-end latency at
	// lats[i-start]; it must have length len(Accesses)-start.
	lats []float64
	// every cuts interval windows at access-count multiples (0 = none);
	// cut is invoked at each boundary. Batch chunks are clamped so a batch
	// never straddles a boundary.
	every int
	cut   func(end int)
}

// run is the single translation loop behind Run, RunFrom, RunTail and
// RunIntervals, implemented over the resumable Session: the trace is
// consumed in Step chunks clamped to interval boundaries so a batch never
// straddles a cut.
func (c *CPU) run(asid uint16, w *workload.Workload, o runOpts) Result {
	s := c.NewSessionFrom(asid, w, o.start)
	s.lats = o.lats
	for !s.Done() {
		limit := s.Remaining()
		if o.hook != nil {
			// The hook may mutate OS state, so it runs before each access
			// and the access runs as a chunk of one.
			limit = 1
			s.extra = o.hook(s.pos)
		}
		if o.every > 0 {
			// Clamp the step to the next interval boundary so a batch never
			// straddles a cut and window contents cannot shift.
			if next := (s.pos/o.every+1)*o.every - s.pos; next < limit {
				limit = next
			}
		}
		s.Step(limit)
		if o.every > 0 && s.pos%o.every == 0 {
			o.cut(s.pos)
		}
	}
	return s.Finish()
}

// prepareBatch runs the pipeline's functional and timing-walk phases over
// one chunk. Phase T, per access in arrival order: probe the TLB; on an L2
// miss resolve the translation functionally (Lookup) and fill the TLB, so
// later accesses to the same page hit exactly as they would one access at
// a time. Phase W: one WalkBatch over the misses replays the recorded
// plans — walk-cache state and request traces accrue per miss in arrival
// order. The cache hierarchy is touched only in the retire phase, in
// arrival order. So each component (TLB, walk caches, cache hierarchy)
// sees the operation sequence of a chunk of one, at any chunk size — the
// reason results stay bit-identical at every batch size.
func (c *CPU) prepareBatch(asid uint16, accesses []workload.Access) []accessRec {
	n := len(accesses)
	for len(c.batch.recs) < n {
		//lint:allow hotalloc record slab grows to the batch size once, then recycles
		c.batch.recs = append(c.batch.recs, accessRec{})
	}
	recs := c.batch.recs[:n]
	vpns := c.batch.vpns[:0]
	nmiss := 0
	for k := range accesses {
		a := &accesses[k]
		v := addr.VPNOf(a.VA)
		r := &recs[k]
		tr, hit := c.tlbs.Lookup(asid, v)
		r.va = a.VA
		r.entry = tr.Entry
		r.tlbLat = tr.Latency
		r.hitL1 = tr.HitL1
		r.miss = !hit
		r.fault = false
		if !hit {
			r.slot = int32(nmiss)
			nmiss++
			//lint:allow hotalloc miss list grows to the batch size once, then recycles
			vpns = append(vpns, v)
			e, found := c.walker.Lookup(asid, v)
			r.entry = e
			r.fault = !found
			if found {
				c.tlbs.Fill(asid, v, e)
			}
		}
	}
	c.batch.vpns = vpns
	if nmiss > 0 {
		c.walker.WalkBatch(asid, vpns, &c.batch.bufs)
	}
	return recs
}

// TranslateBatch runs one chunk of accesses through the translation
// pipeline and charges the accounting in arrival order; lats, when non-nil,
// receives per-access end-to-end latencies.
func (c *CPU) TranslateBatch(asid uint16, accesses []workload.Access, instrs int, res *Result, lats []float64) {
	c.translateChunk(asid, accesses, instrs, 0, res, lats)
}

// translateChunk is the one translation pipeline every path runs: Run and
// its variants, Session.Step, TranslateBatch and FastForward. Phases T and
// W (prepareBatch) resolve and walk the chunk's TLB misses; phase R
// (retire), per access: retire, TLB latency, walk latency (charging the
// walk's memory requests to the caches), data access. extra is hook cycles
// charged to accesses[0] right after its retire component; hook runs use
// chunks of one, so each hooked access gets its own. Every accumulator
// sees one float operation sequence whatever the chunk size, so tail-study
// latencies and every cycle sum stay bit-identical.
func (c *CPU) translateChunk(asid uint16, accesses []workload.Access, instrs int, extra float64, res *Result, lats []float64) {
	if c.cfg.Midgard {
		c.translateMidgard(asid, accesses, instrs, extra, res, lats)
		return
	}
	recs := c.prepareBatch(asid, accesses)
	retire := float64(instrs) / c.cfg.IssueWidth
	for k := range recs {
		r := &recs[k]
		res.Instructions += uint64(instrs)
		res.Accesses++
		lat := retire + extra
		res.Cycles += retire
		res.Cycles += extra
		extra = 0
		if verify, fault := c.chargeTranslation(r, res, &lat); !fault {
			// Data access, overlapped with the walk's verify suffix: the
			// access proceeds on the speculative translation while the
			// verify walk runs, so the pair costs max(verify, access) — only
			// the suffix's excess over the exposed data latency is charged,
			// as walk cycles. Non-speculative schemes have verify == 0 and
			// take no extra float operations here.
			pa := addr.Translate(r.va, r.entry.PPN(), r.entry.Size())
			dataLat := float64(c.caches.Access(pa, false)) * (1 - c.cfg.DataOverlap)
			if verify > dataLat {
				exposed := verify - dataLat
				res.WalkCycles += exposed
				res.Cycles += exposed
				lat += exposed
			}
			res.Cycles += dataLat
			lat += dataLat
		}
		if lats != nil {
			lats[k] = lat
		}
	}
}

// translateMidgard is the pipeline under the §7.5.2 Midgard model: the
// cache hierarchy is indexed by the intermediate (virtual) address, so a
// hit needs no translation at all. Only an LLC miss translates, to reach
// memory: its VPN goes through prepareBatch as a chunk of one, with the
// same walk accounting as any other miss. The data latency and the
// translation accrue into their own sum, added to the retire component
// last.
func (c *CPU) translateMidgard(asid uint16, accesses []workload.Access, instrs int, extra float64, res *Result, lats []float64) {
	retire := float64(instrs) / c.cfg.IssueWidth
	for k := range accesses {
		res.Instructions += uint64(instrs)
		res.Accesses++
		lat := retire + extra
		res.Cycles += retire
		res.Cycles += extra
		extra = 0
		// VMA-level Midgard translation is a handful of registers: free.
		//lint:allow addrtypes Midgard's cache hierarchy is indexed by the intermediate (virtual) address, so the VA bits are reinterpreted as the cache key on purpose
		raw := c.caches.Access(addr.PA(accesses[k].VA), false)
		dataLat := float64(raw) * (1 - c.cfg.DataOverlap)
		res.Cycles += dataLat
		mlat := dataLat
		if raw > c.cfg.Cache.L3.LatencyCycles {
			// The data access already completed, so a verify suffix has
			// nothing to overlap with: charge it in full.
			r := &c.prepareBatch(asid, accesses[k:k+1])[0]
			if verify, _ := c.chargeTranslation(r, res, &mlat); verify != 0 {
				res.WalkCycles += verify
				res.Cycles += verify
				mlat += verify
			}
		}
		lat += mlat
		if lats != nil {
			lats[k] = lat
		}
	}
}

// chargeTranslation charges r's TLB latency and, on an L2 TLB miss, its
// walk (whose memory requests go to the caches) onto res and *lat, in that
// order. It returns the walk's pending verify latency (the overlappable
// suffix, zero for non-speculative schemes) and whether the access faulted
// on an unmapped page. A faulting walk has nothing to overlap with, so its
// verify suffix is charged here in full.
func (c *CPU) chargeTranslation(r *accessRec, res *Result, lat *float64) (verify float64, fault bool) {
	res.TLBCycles += float64(r.tlbLat)
	res.Cycles += float64(r.tlbLat)
	*lat += float64(r.tlbLat)
	if r.miss {
		res.L2TLBMisses++
		out := c.batch.bufs.Outcome(int(r.slot))
		res.Walks++
		res.WalkRefs += uint64(out.Refs())
		wlat, wver := c.walkLatency(out)
		res.WalkCycles += wlat
		res.Cycles += wlat
		*lat += wlat
		if r.fault {
			if wver != 0 {
				res.WalkCycles += wver
				res.Cycles += wver
				*lat += wver
			}
			res.Faults++
			return 0, true
		}
		verify = wver
	}
	if !r.hitL1 {
		res.L1TLBMisses++
	}
	return verify, false
}

// FastForward streams the first n accesses of the trace through the
// machine's functional state — TLBs, walk caches, cache tags, DRAM rows —
// and returns no Result: it is the timing pipeline with its accounting
// discarded, so component state afterwards is exactly what a timing run
// over the same prefix leaves behind. It returns the number of accesses
// consumed (min(n, len(trace))); follow with RunFrom to measure from
// warmed state.
func (c *CPU) FastForward(asid uint16, w *workload.Workload, n int) int {
	n = max(min(n, len(w.Accesses)), 0)
	var discard Result
	batch := c.batchSize()
	for i := 0; i < n; i += batch {
		c.translateChunk(asid, w.Window(i, min(i+batch, n)), w.InstrsPerAccess, 0, &discard, nil)
	}
	return n
}

// Snapshot implements metrics.Source: the uniform component snapshot of
// the whole core — TLB hierarchy under "tlb.", cache hierarchy under
// "cache.", memory model under "dram.", and the scheme walker's walk
// caches under "walk." (every scheme walker is a metrics.Source).
func (c *CPU) Snapshot() metrics.Set {
	var s metrics.Set
	s.Merge("tlb", c.tlbs.Snapshot())
	s.Merge("cache", c.caches.Snapshot())
	s.Merge("dram", c.caches.DRAM().Snapshot())
	if src, ok := c.walker.(metrics.Source); ok {
		s.Merge("walk", src.Snapshot())
	}
	return s
}

var _ metrics.Source = (*CPU)(nil)

// finish derives the Result's rate and traffic fields from the component
// snapshot — Result is a thin derivation over the metrics layer, not a
// separate accounting. In delta mode (RunFrom with start > 0) component
// counters are reported relative to base, the snapshot taken when the
// measured region began; component snapshots emit counters only (no
// gauges), so the subtraction is lossless, and the derived rates below are
// recomputed from the deltas.
func (c *CPU) finish(res *Result, base metrics.Set, delta bool) {
	s := c.Snapshot()
	if delta {
		s = s.Delta(base)
	}
	res.L2TLBMiss = stats.Ratio(s.Uint("tlb.l2.misses"),
		s.Uint("tlb.l2.hits")+s.Uint("tlb.l2.misses"))
	mpki := func(level string) float64 {
		return stats.PerKilo(s.Uint("cache."+level+".demand_misses")+
			s.Uint("cache."+level+".walk_misses"), res.Instructions)
	}
	res.L1MPKI = mpki("l1")
	res.L2MPKI = mpki("l2")
	res.L3MPKI = mpki("l3")
	res.DRAMAccesses = s.Uint("dram.accesses")

	// Fold the run-level counters and derived rates into the snapshot so a
	// Result carries the complete, self-describing metric set.
	s.Counter("run.instructions", res.Instructions)
	s.Counter("run.accesses", res.Accesses)
	s.Counter("run.faults", res.Faults)
	s.Counter("run.l1_tlb_misses", res.L1TLBMisses)
	s.Counter("run.l2_tlb_misses", res.L2TLBMisses)
	s.Counter("walk.walks", res.Walks)
	s.Counter("walk.refs", res.WalkRefs)
	s.Gauge("run.cycles", res.Cycles)
	s.Gauge("run.tlb_cycles", res.TLBCycles)
	s.Gauge("run.walk_cycles", res.WalkCycles)
	s.Gauge("tlb.l2.miss_rate", res.L2TLBMiss)
	s.Gauge("cache.l1.mpki", res.L1MPKI)
	s.Gauge("cache.l2.mpki", res.L2MPKI)
	s.Gauge("cache.l3.mpki", res.L3MPKI)
	res.Metrics = s
}

// Speedup returns base cycles / this cycles.
func Speedup(base, other Result) float64 {
	if other.Cycles == 0 {
		return 0
	}
	return base.Cycles / other.Cycles
}

// String renders the headline numbers.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s: %.0f cycles, MMU %.1f%% (walk %.1f%%), %.2f refs/walk, L2TLB miss %.1f%%, L2 MPKI %.2f, L3 MPKI %.2f",
		r.Workload, r.Scheme, r.Cycles,
		100*r.MMUCycles()/r.Cycles, 100*r.WalkCycles/r.Cycles,
		stats.Ratio(r.WalkRefs, r.Walks),
		100*r.L2TLBMiss, r.L2MPKI, r.L3MPKI)
}
