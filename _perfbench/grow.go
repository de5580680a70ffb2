package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"lvm/internal/addr"
	"lvm/internal/experiments"
	"lvm/internal/mmu"
	"lvm/internal/oskernel"
	"lvm/internal/vas"
	"lvm/internal/workload"
)

const (
	// growPages is how far each round grows a heap past its trained span,
	// in 4 KB pages (the retrain study grows it by an eighth of its span;
	// a round takes a fixed slice of that growth).
	growPages = 1024
	// churnSteps is the heap pages each round unmaps and maps again.
	churnSteps = 2048
	// verifyBatch is the walker Lookup batch of the post-round check.
	verifyBatch = 64
	// walkSample is how often a traced lvm growth loop looks a page up
	// with the learned index's Walk instead of SoftwareLookup.
	walkSample = 8
)

var growWorkloads = []string{"gups", "mem$"}

// growKey is one (scheme, workload) machine of a grow round.
type growKey struct {
	scheme   oskernel.Scheme
	workload string
}

// coreCounts are the learned index's maintenance counters after a round.
type coreCounts struct {
	retrains, rebuilds, inserts, overflows uint64
}

// opStat accumulates the host time of one OS operation type.
type opStat struct {
	ns float64
	n  int
}

// runGrow launches lvm and radix machines on gups and mem$, grows each
// heap past its trained span with the retrain study's loop
// (SoftwareLookup, then MapPage on a miss), churns it with the tail
// study's UnmapPage + MapPage, and checks every page it touched.
//
// The machines are the -quick sweep's, at the layouts the retrain and
// tail studies measure: a layout seed moves the learned index's leaf
// boundaries, and on some layouts that doubles the cost of every miss
// scan, which would swamp the run-to-run spread. The seed instead draws
// where in the heap the churn's cursor starts.
func runGrow(e *env) (*report, error) {
	cfg := quickConfig(defaultSeed)
	te := e.phaseEnv(e.trace)
	wls, gen, err := buildWorkloads(te.tr, cfg.Params, growWorkloads)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	churn := map[string][]addr.VPN{}
	for _, n := range growWorkloads {
		heap, err := heapOf(wls[n].Space)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
		churn[n] = churnPages(heap, rng, churnSteps)
	}
	rep := newReport()
	ref := map[growKey]coreCounts{}
	measure(e, te, rep, gen, func(pe *env, seconds float64) phase {
		return growPhase(pe, cfg, wls, churn, ref, rep, seconds)
	})
	return rep, nil
}

// churnPages lists the n pages the tail study's churn cursor visits from
// a start drawn from rng: it walks the heap upwards from there and wraps
// from its last page back to its base, as in the tail study.
func churnPages(heap *vas.Region, rng *rand.Rand, n int) []addr.VPN {
	tail := heap.Mapped[len(heap.Mapped)-1]
	span := int64(tail - heap.Base)
	cursor := heap.Base + addr.VPN(rng.Int63n(span))
	out := make([]addr.VPN, 0, n)
	for len(out) < n {
		out = append(out, cursor)
		cursor++
		if cursor >= tail {
			cursor = heap.Base
		}
	}
	return out
}

// growRound is what one round measures.
type growRound struct {
	launch float64   // summed launch seconds
	opWall float64   // seconds spent in the grow and churn loops
	lat    []float64 // per-operation seconds
}

// growTotals accumulates a phase's per-layer measurements.
type growTotals struct {
	ops     map[string]*opStat // per operation type and scheme, by metric name
	walk    opStat             // Index.Walk of sampled pages about to be grown
	walkPTE int                // PTE-cluster accesses of those walks
}

// growPhase runs rounds until seconds have passed (at least one round);
// each round launches, grows, churns and checks all four machines.
func growPhase(pe *env, cfg experiments.Config, wls map[string]*workload.Workload, churn map[string][]addr.VPN, ref map[growKey]coreCounts, rep *report, seconds float64) phase {
	var launches, tputs, p50s, p99s, rss []float64
	tot := &growTotals{ops: map[string]*opStat{}}
	counts := map[string]uint64{}
	start := time.Now()
	var roundDur time.Duration
	for round := 0; round == 0 || (time.Since(start)+roundDur/2).Seconds() <= seconds; round++ {
		rs := time.Now()
		resetPeakRSS()
		var r growRound
		for _, s := range growSchemes {
			for _, n := range growWorkloads {
				gk := growKey{s, n}
				c, err := growMachine(pe, cfg, wls[n], churn[n], gk, round, &r, tot, rep)
				switch {
				case err != nil:
					rep.fail("round %d %s/%s: %v", round, n, s, err)
				case s == oskernel.SchemeLVM:
					if want, ok := ref[gk]; !ok {
						ref[gk] = c
					} else if c != want {
						rep.fail("round %d %s/%s: core counts %+v, want %+v as in the first round", round, n, s, c, want)
					}
					if round == 0 {
						counts["core.retrains"] += c.retrains
						counts["core.rebuilds"] += c.rebuilds
						counts["core.inserts"] += c.inserts
						counts["core.search_overflows"] += c.overflows
					}
				}
				runtime.GC()
			}
		}
		launches = append(launches, r.launch)
		tputs = append(tputs, float64(len(r.lat))/r.opWall)
		p50s = append(p50s, quantile(r.lat, 0.5))
		p99s = append(p99s, quantile(r.lat, 0.99))
		roundDur = time.Since(rs)
		rss = append(rss, peakRSSBytes())
	}

	ph := phase{
		setup: median(launches), setupN: len(launches),
		throughput: median(tputs), throughputN: len(tputs),
		latency: median(p50s), tail: median(p99s), latN: len(p50s),
		rss: rss,
	}
	if pe.tr.on {
		ph.layer = map[string]float64{
			"experiments.new_run_machine_s": pe.tr.perOp("experiments.new_run_machine", 1),
			"workload.build_s":              pe.tr.seconds("workload.build"),
		}
		for name, st := range tot.ops {
			ph.layer[name] = st.ns / 1e3 / float64(st.n)
		}
		for name, v := range counts {
			ph.layer[name] = float64(v)
		}
		if tot.walk.n > 0 {
			ph.layer["core.walk_ns"] = tot.walk.ns / float64(tot.walk.n)
			ph.layer["core.miss_pte_accesses"] = float64(tot.walkPTE) / float64(tot.walk.n)
		}
	}
	return ph
}

// growMachine launches one machine, grows and churns its heap, checks
// every touched page and returns the learned index's counters (zero for
// radix). Operation latencies land in r and, per type, in tot.
func growMachine(pe *env, cfg experiments.Config, w *workload.Workload, churn []addr.VPN, gk growKey, round int, r *growRound, tot *growTotals, rep *report) (coreCounts, error) {
	tr := pe.tr
	group := fmt.Sprintf("round%d %s/%s", round, gk.workload, gk.scheme)
	root := tr.begin("grow.machine", group, -1)
	defer tr.end(root, 1)

	sp := tr.begin("experiments.new_run_machine", group, root)
	t0 := time.Now()
	sys, p, _, err := cfg.NewRunMachine(w, gk.scheme, false)
	r.launch += time.Since(t0).Seconds()
	tr.end(sp, 1)
	if err != nil {
		return coreCounts{}, err
	}
	heap, err := heapOf(w.Space)
	if err != nil {
		return coreCounts{}, err
	}
	first := heap.Mapped[len(heap.Mapped)-1] + 1

	scheme := string(gk.scheme)
	stat := func(op string) *opStat {
		name := "oskernel." + op + "_us." + scheme
		if tot.ops[name] == nil {
			tot.ops[name] = &opStat{}
		}
		return tot.ops[name]
	}
	lookupMiss, mapS, unmapS, remapS := stat("lookup_miss"), stat("map"), stat("unmap"), stat("remap")
	timed := func(st *opStat, d time.Duration) {
		s := d.Seconds()
		r.lat = append(r.lat, s)
		if st != nil {
			st.ns += float64(d.Nanoseconds())
			st.n++
		}
	}

	ops0, loops := len(r.lat), time.Now()
	sp = tr.begin("oskernel.grow."+scheme, group, root)
	var grown []addr.VPN
	var failed error
	for i := 0; i < growPages; i++ {
		v := first + addr.VPN(i)
		// Under lvm SoftwareLookup is the learned index's Walk, so on
		// sampled pages of a traced loop the Walk itself is the lookup:
		// core.walk_ns then times the same cold miss scan that
		// lookup_miss_us times on the other pages.
		sampled := tr.on && p.LvmIx != nil && i%walkSample == 0
		var ok bool
		var d time.Duration
		if sampled {
			ws := tr.begin("core.walk", group, sp)
			t := time.Now()
			res := p.LvmIx.Walk(p.Norm.Normalize(v))
			d = time.Since(t)
			tr.end(ws, 1)
			if ok = res.Found; !ok {
				tot.walk.ns += float64(d.Nanoseconds())
				tot.walk.n++
				tot.walkPTE += res.PTEAccesses
			}
		} else {
			t := time.Now()
			_, ok = sys.SoftwareLookup(1, v)
			d = time.Since(t)
		}
		switch {
		case ok:
			timed(nil, d) // another region's page: skip it, keep extending
			continue
		case sampled:
			timed(nil, d)
		default:
			timed(lookupMiss, d)
		}
		t := time.Now()
		err := sys.MapPage(1, v, addr.Page4K)
		timed(mapS, time.Since(t))
		if err != nil {
			failed = fmt.Errorf("map %#x: %w", v, err)
			break
		}
		grown = append(grown, v)
	}
	tr.end(sp, len(grown))

	sp = tr.begin("oskernel.churn."+scheme, group, root)
	var churned []addr.VPN
	for _, v := range churn {
		if failed != nil {
			break
		}
		t := time.Now()
		ok := sys.UnmapPage(1, v)
		timed(unmapS, time.Since(t))
		if !ok {
			failed = fmt.Errorf("unmap %#x: page was not mapped", v)
			break
		}
		t = time.Now()
		err := sys.MapPage(1, v, addr.Page4K)
		timed(remapS, time.Since(t))
		if err != nil {
			failed = fmt.Errorf("remap %#x: %w", v, err)
			break
		}
		churned = append(churned, v)
	}
	tr.end(sp, len(churned))
	r.opWall += time.Since(loops).Seconds()
	rep.attempted += len(r.lat) - ops0 + 1 // the machine's operations and its check
	if failed != nil {
		return coreCounts{}, failed
	}

	sp = tr.begin("grow.verify", group, root)
	err = verifyPages(sys, grown, churned)
	tr.end(sp, len(grown)+len(churned))
	if err != nil {
		return coreCounts{}, err
	}
	if p.LvmIx == nil {
		return coreCounts{}, nil
	}
	st := p.LvmIx.Stats()
	return coreCounts{st.Retrains, st.Rebuilds, st.Inserts, st.SearchOverflows}, nil
}

// verifyPages checks that every grown page resolves to the same present
// 4 KB entry through the OS's SoftwareLookup and the hardware walker's
// Lookup, and that every churned page is mapped again.
func verifyPages(sys *oskernel.System, grown, churned []addr.VPN) error {
	walker := sys.Walker()
	lk, ok1 := walker.(mmu.Lookuper)
	bw, ok2 := walker.(mmu.BatchWalker)
	if !ok1 || !ok2 {
		return fmt.Errorf("walker %s has no Lookup/WalkBatch", walker.Name())
	}
	var bufs mmu.WalkBatchBuf
	for lo := 0; lo < len(grown); lo += verifyBatch {
		batch := grown[lo:min(lo+verifyBatch, len(grown))]
		for _, v := range batch {
			se, sok := sys.SoftwareLookup(1, v)
			we, wok := lk.Lookup(1, v)
			if !sok || !wok || se != we || !se.Present() || se.Size() != addr.Page4K {
				return fmt.Errorf("grown page %#x: software lookup (%v, %t), walker lookup (%v, %t)", v, se, sok, we, wok)
			}
		}
		// Replaying the recorded plans drains the walker's plan queue.
		bw.WalkBatch(1, batch, &bufs)
	}
	for _, v := range churned {
		if e, ok := sys.SoftwareLookup(1, v); !ok || !e.Present() {
			return fmt.Errorf("remapped page %#x does not resolve", v)
		}
	}
	return nil
}

// heapOf returns the address space's heap region.
func heapOf(s *vas.AddressSpace) (*vas.Region, error) {
	for i := range s.Regions {
		if s.Regions[i].Kind == vas.Heap && len(s.Regions[i].Mapped) > 0 {
			return &s.Regions[i], nil
		}
	}
	return nil, errors.New("address space has no mapped heap region")
}
