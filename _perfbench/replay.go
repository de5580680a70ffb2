package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"lvm/internal/addr"
	"lvm/internal/experiments"
	"lvm/internal/mmu"
	"lvm/internal/oskernel"
	"lvm/internal/phys"
	"lvm/internal/pte"
	"lvm/internal/sim"
	"lvm/internal/workload"
)

// Probe sizes of the traced replay: each row's layer probes drive the
// first probeAccesses accesses of its trace, one span per probeBatch.
const (
	probeAccesses = 1 << 16
	probeBatch    = 1 << 12
)

// quickConfig is the -quick sweep configuration at the given workload
// seed; at defaultSeed it is exactly what the committed baselines ran.
func quickConfig(seed int64) experiments.Config {
	cfg := experiments.Quick()
	cfg.Params.Seed = seed
	return cfg
}

// buildWorkloads generates the named workloads in order, once each, and
// returns them with the total generation time.
func buildWorkloads(tr *tracer, p workload.Params, names []string) (map[string]*workload.Workload, float64, error) {
	wls := map[string]*workload.Workload{}
	start := time.Now()
	for _, n := range names {
		if wls[n] != nil {
			continue
		}
		sp := tr.begin("workload.build", n, -1)
		w, err := workload.Build(n, p)
		tr.end(sp, 1)
		if err != nil {
			return nil, 0, err
		}
		wls[n] = w
	}
	return wls, time.Since(start).Seconds(), nil
}

// runReplay replays every bench_baseline.json row, in row order, through
// NewRunMachine and sim.CPU.Run, and checks each result against its row.
func runReplay(e *env) (*report, error) {
	rows, err := loadBaseline(filepath.Join(e.root, "bench_baseline.json"))
	if err != nil {
		return nil, err
	}
	cfg := quickConfig(e.seed)
	x := newExpectations()
	if e.seed == defaultSeed {
		x.addBaseline(rows)
	}
	keys := make([]runKey, len(rows))
	names := make([]string, len(rows))
	for i, r := range rows {
		keys[i], names[i] = r.Key, r.Key.Workload
	}
	te := e.phaseEnv(e.trace)
	wls, gen, err := buildWorkloads(te.tr, cfg.Params, names)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	measure(e, te, rep, gen, func(pe *env, seconds float64) phase {
		return replayPhase(pe, cfg, keys, wls, x, rep, seconds)
	})
	return rep, nil
}

// replayPhase replays the rows in passes until seconds have passed (at
// least one pass) and reduces them: per row, the median over passes of
// its build and run times.
func replayPhase(pe *env, cfg experiments.Config, keys []runKey, wls map[string]*workload.Workload, x *expectations, rep *report, seconds float64) phase {
	tr := pe.tr
	build := make([][]float64, len(keys))
	run := make([][]float64, len(keys))
	accesses := make([]float64, len(keys))
	var simAccesses, simWalks, dramAccesses uint64
	start := time.Now()
	var passDur time.Duration
	var rss []float64
	for pass := 0; pass == 0 || (time.Since(start)+passDur/2).Seconds() <= seconds; pass++ {
		passStart := time.Now()
		resetPeakRSS()
		for i, k := range keys {
			w := wls[k.Workload]
			group := fmt.Sprintf("pass%d %s", pass, k)
			root := tr.begin("replay.row", group, -1)
			rep.attempted++

			sp := tr.begin("experiments.new_run_machine", group, root)
			t0 := time.Now()
			_, _, cpu, err := cfg.NewRunMachine(w, k.Scheme, k.THP)
			b := time.Since(t0).Seconds()
			tr.end(sp, 1)
			if err != nil {
				rep.fail("%s: %v", k, err)
				tr.end(root, 0)
				continue
			}
			sp = tr.begin("sim.run."+string(k.Scheme), group, root)
			t0 = time.Now()
			res := cpu.Run(1, w)
			r := time.Since(t0).Seconds()
			tr.end(sp, int(res.Accesses))
			build[i] = append(build[i], b)
			run[i] = append(run[i], r)
			accesses[i] = float64(res.Accesses)
			if pass == 0 {
				simAccesses += res.Accesses
				simWalks += res.Walks
				dramAccesses += res.DRAMAccesses
			}
			checkReplayed(pe, x, rep, k, w, res)
			if tr.on {
				if err := probeLayers(tr, cfg, w, k, group, root); err != nil {
					rep.fail("%s: probe: %v", k, err)
				}
			}
			tr.end(root, 1)
			// Simulated memories are large; collect between rows, outside
			// the timed calls, as the sweep does.
			runtime.GC()
		}
		passDur = time.Since(passStart)
		rss = append(rss, peakRSSBytes())
		var b, r float64
		for i := range keys {
			if n := len(run[i]); n > 0 && len(build[i]) == n {
				b, r = b+build[i][n-1], r+run[i][n-1]
			}
		}
		fmt.Fprintf(pe.log, "replay pass %d: build %.3fs run %.3fs wall %.3fs\n", pass, b, r, passDur.Seconds())
	}

	ph := phase{rss: rss}
	var runSum, accSum float64
	for i := range keys {
		if len(run[i]) == 0 {
			continue
		}
		mb, mr := median(build[i]), median(run[i])
		ph.setup += mb
		runSum += mr
		accSum += accesses[i]
		ph.latency += mb + mr
		ph.tail = max(ph.tail, mb+mr)
	}
	ph.setupN = len(build[0])
	ph.throughputN = len(run[0])
	ph.latN = len(run[0])
	if runSum > 0 {
		ph.throughput = accSum / runSum
	}
	if tr.on {
		ph.layer = replayLayers(tr)
		ph.layer["sim.accesses"] = float64(simAccesses)
		ph.layer["sim.walks"] = float64(simWalks)
		ph.layer["dram.accesses"] = float64(dramAccesses)
	}
	return ph
}

// checkReplayed checks one replayed row: its counters must equal the
// baseline row (or, at other seeds, the row's first replay), and the run
// must have translated every access of the trace without a fault.
func checkReplayed(pe *env, x *expectations, rep *report, k runKey, w *workload.Workload, res sim.Result) {
	if res.Faults != 0 || res.Accesses != uint64(len(w.Accesses)) {
		rep.fail("%s: %d faults over %d of %d accesses", k, res.Faults, res.Accesses, len(w.Accesses))
		return
	}
	got, err := countersOf(res.Metrics)
	if err != nil {
		rep.fail("%s: %v", k, err)
		return
	}
	if d := x.check(k, got, pe.seed != defaultSeed); len(d) > 0 {
		rep.fail("%s: %d counters differ, first: %s", k, len(d), d[0])
	}
}

// probeLayers times the layers under one row's run through their own
// public functions, on a machine built step by step as NewRunMachine
// builds it: phys.New, then oskernel's launch, then sim.New; then
// FastForward, the walker's Lookup and Walk, the TLB hierarchy's
// Lookup/Fill, the cache hierarchy's Access and DRAM's Access over the
// first probeAccesses accesses of the trace.
func probeLayers(tr *tracer, cfg experiments.Config, w *workload.Workload, k runKey, group string, parent int) error {
	scheme := string(k.Scheme)
	sp := tr.begin("phys.new", group, parent)
	mem := phys.New(cfg.RunCostBytes(w.FootprintBytes()))
	tr.end(sp, 1)

	sp = tr.begin("oskernel.launch."+scheme, group, parent)
	pwc, lwc := sim.ScaledHW()
	sys := oskernel.NewSystemHW(mem, k.Scheme, oskernel.HWConfig{PWCEntriesPerLevel: pwc, LWCEntries: lwc})
	_, err := sys.Launch(1, w.Space, k.THP)
	tr.end(sp, 1)
	if err != nil {
		return err
	}
	sc := cfg.Sim
	sc.Midgard = k.Scheme == oskernel.SchemeMidgard
	cpu := sim.New(sc, sys.Walker())

	n := min(probeAccesses, len(w.Accesses))
	sp = tr.begin("sim.fastforward", group, parent)
	cpu.FastForward(1, w, n)
	tr.end(sp, n)

	walker := sys.Walker()
	lk, _ := walker.(mmu.Lookuper)
	bw, _ := walker.(mmu.BatchWalker)
	var bufs mmu.WalkBatchBuf
	vpns := make([]addr.VPN, probeBatch)
	entries := make([]pte.Entry, probeBatch)
	found := make([]bool, probeBatch)
	pas := make([]addr.PA, 0, probeBatch)
	tlbs, caches := cpu.TLBs(), cpu.Caches()
	for lo := 0; lo < n; lo += probeBatch {
		batch := w.Accesses[lo:min(lo+probeBatch, n)]
		vpns, entries, found = vpns[:len(batch)], entries[:len(batch)], found[:len(batch)]
		for i, a := range batch {
			vpns[i] = addr.VPNOf(a.VA)
		}
		if lk != nil && bw != nil {
			sp = tr.begin("mmu.lookup."+scheme, group, parent)
			for i, v := range vpns {
				entries[i], found[i] = lk.Lookup(1, v)
			}
			tr.end(sp, len(vpns))
			// Replaying the recorded plans drains the walker's plan queue.
			bw.WalkBatch(1, vpns, &bufs)
		}
		sp = tr.begin("mmu.walk."+scheme, group, parent)
		for i, v := range vpns {
			out := walker.Walk(1, v)
			if lk == nil {
				entries[i], found[i] = out.Entry, out.Found
			}
		}
		tr.end(sp, len(vpns))

		sp = tr.begin("tlb.lookup_fill", group, parent)
		for i, v := range vpns {
			if _, hit := tlbs.Lookup(1, v); !hit && found[i] {
				tlbs.Fill(1, v, entries[i])
			}
		}
		tr.end(sp, len(vpns))

		pas = pas[:0]
		for i, a := range batch {
			if found[i] {
				pas = append(pas, addr.Translate(a.VA, entries[i].PPN(), entries[i].Size()))
			}
		}
		if len(pas) != len(batch) {
			return fmt.Errorf("%d of %d probed accesses unmapped", len(batch)-len(pas), len(batch))
		}
		sp = tr.begin("cache.access", group, parent)
		for _, pa := range pas {
			caches.Access(pa, false)
		}
		tr.end(sp, len(pas))

		sp = tr.begin("dram.access", group, parent)
		for _, pa := range pas {
			caches.DRAM().Access(pa)
		}
		tr.end(sp, len(pas))
	}
	return nil
}

// replayLayers derives the replay workload's per-layer metrics from the
// traced phase's spans.
func replayLayers(tr *tracer) map[string]float64 {
	l := map[string]float64{}
	for _, s := range benchSchemes {
		l["sim.ns_per_access."+string(s)] = tr.perOp("sim.run."+string(s), 1e9)
		l["mmu.lookup_ns."+string(s)] = tr.perOp("mmu.lookup."+string(s), 1e9)
		l["mmu.walk_ns."+string(s)] = tr.perOp("mmu.walk."+string(s), 1e9)
		l["oskernel.launch_s."+string(s)] = tr.perOp("oskernel.launch."+string(s), 1)
	}
	l["sim.fastforward_ns_per_access"] = tr.perOp("sim.fastforward", 1e9)
	l["tlb.lookup_ns"] = tr.perOp("tlb.lookup_fill", 1e9)
	l["cache.access_ns"] = tr.perOp("cache.access", 1e9)
	l["dram.access_ns"] = tr.perOp("dram.access", 1e9)
	l["phys.new_s"] = tr.perOp("phys.new", 1)
	l["experiments.new_run_machine_s"] = tr.perOp("experiments.new_run_machine", 1)
	l["workload.build_s"] = tr.seconds("workload.build")
	return l
}
