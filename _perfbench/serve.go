package main

import (
	"fmt"
	"net"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"lvm/internal/lvmd"
	"lvm/internal/oskernel"
	"lvm/internal/workload"
)

const (
	// serveWorkers is the server's worker slots and the number of
	// closed-loop clients: the host's two cores. It divides the length of
	// the session cycle.
	serveWorkers = 2
	// serveSetups is how many times a run starts a server and primes it.
	serveSetups = 3
	// serveWarmup is the warmup of warmup sessions, the warmup baseline's.
	serveWarmup = 50_000
	// streamChunk is the accesses per trace frame of stream sessions,
	// lvmd.Client.RunStream's default.
	streamChunk = 4096
)

// sessionKind is how a session gets its trace.
type sessionKind int

const (
	kindReplay sessionKind = iota // the daemon replays the workload's trace
	kindWarmup                    // replay after a serveWarmup fast-forward
	kindStream                    // the client streams the workload's trace
)

func (k sessionKind) String() string { return [...]string{"replay", "warmup", "stream"}[k] }

var serveSchemes = []oskernel.Scheme{oskernel.SchemeLVM, oskernel.SchemeRadix}

// sessionSpec is one entry of the serve workload's session cycle.
type sessionSpec struct {
	workload string
	scheme   oskernel.Scheme
	kind     sessionKind
}

// key is the run the session's result must equal.
func (s sessionSpec) key() runKey {
	k := runKey{Workload: s.workload, Scheme: s.scheme}
	if s.kind == kindWarmup {
		k.Warmup = serveWarmup
	}
	return k
}

// sessionCycle lists {lvm, radix} × workloads × kinds, kinds innermost so
// that the two clients always run a mix.
func sessionCycle(names []string) []sessionSpec {
	var c []sessionSpec
	for _, s := range serveSchemes {
		for _, n := range names {
			for _, k := range []sessionKind{kindReplay, kindWarmup, kindStream} {
				c = append(c, sessionSpec{n, s, k})
			}
		}
	}
	return c
}

// runServe drives an in-process lvmd server on loopback with
// serveWorkers closed-loop clients cycling through sessionCycle, and
// checks every result against its bench_baseline.json or
// bench_baseline_warmup.json row.
//
// The tenants run the -quick sweep's workloads, at the layouts the
// baselines were made with: a layout seed moves the cost of building an
// lvm machine by a quarter, and the slowest sessions set the tail. The
// traffic is what the repository's clients send: the daemon's default
// metric window (one window over the whole trace) and RunStream's frame
// size. The seed therefore changes nothing on this workload.
func runServe(e *env) (*report, error) {
	cfg := lvmd.Quick()
	cfg.Workers = serveWorkers
	names := cfg.Exp.Workloads
	cycle := sessionCycle(names)

	te := e.phaseEnv(e.trace)
	wls, gen, err := buildWorkloads(te.tr, cfg.Exp.Params, names)
	if err != nil {
		return nil, err
	}
	x := newExpectations()
	for _, f := range []string{"bench_baseline.json", "bench_baseline_warmup.json"} {
		rows, err := loadBaseline(filepath.Join(e.root, f))
		if err != nil {
			return nil, err
		}
		x.addBaseline(rows)
	}

	rep := newReport()
	var srv *server
	var setups []float64
	for i := 0; i < serveSetups; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		srv, err = startServer(cfg, names, rep)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()

	measure(e, te, rep, gen, func(pe *env, seconds float64) phase {
		ph := servePhase(pe, cfg, srv.addr, cycle, wls, x, rep, seconds)
		ph.setup, ph.setupN = median(setups), len(setups)
		return ph
	})
	return rep, nil
}

// server is one in-process daemon serving on loopback.
type server struct {
	srv    *lvmd.Server
	addr   string
	served chan error
}

// startServer starts a daemon and primes it: one empty radix stream
// session per workload makes the daemon build (and cache) each workload,
// the first-use cost every later session skips.
func startServer(cfg lvmd.Config, names []string, rep *report) (*server, error) {
	srv, err := lvmd.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	s := &server{srv: srv, addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- srv.Serve(ln) }()
	for _, n := range names {
		rep.attempted++
		c, err := lvmd.Dial(s.addr, cfg)
		if err != nil {
			s.stop()
			return nil, err
		}
		res, _, err := c.RunStream(lvmd.OpenRequest{Workload: n, Scheme: oskernel.SchemeRadix}, nil, 0, nil)
		c.Close()
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("priming %s: %w", n, err)
		}
		if res.Accesses != 0 {
			rep.fail("priming %s: empty stream simulated %d accesses", n, res.Accesses)
		}
	}
	return s, nil
}

// stop closes the daemon and waits for its accept loop to return.
func (s *server) stop() {
	s.srv.Close()
	<-s.served
}

// sessionOutcome is what one session contributes to the phase.
type sessionOutcome struct {
	index      int // in the phase's session sequence
	latency    float64
	accesses   int
	queueDepth int
}

// servePhase runs serveWorkers closed-loop clients over the session cycle
// until seconds have passed. The clients run in lockstep: each takes the
// next session of the cycle, and both start their next one when both have
// their results. The sessions that run side by side are then the same in
// every run, so latency and memory do not depend on how the clients
// drifted against each other. The phase stops only at a cycle boundary,
// so the session mix never depends on where the deadline fell; at each
// boundary it samples the peak resident set of the cycle.
func servePhase(pe *env, cfg lvmd.Config, addr string, cycle []sessionSpec, wls map[string]*workload.Workload, x *expectations, rep *report, seconds float64) phase {
	start := time.Now()
	var rss []float64
	outs := make([]sessionOutcome, 0, len(cycle))
	step := make([]sessionOutcome, serveWorkers)
	errs := make([]error, serveWorkers)
	for next := 0; ; next += serveWorkers {
		if next%len(cycle) == 0 {
			if next > 0 {
				rss = append(rss, peakRSSBytes())
				if time.Since(start).Seconds() >= seconds {
					break
				}
			}
			resetPeakRSS()
		}
		var wg sync.WaitGroup
		for c := range serveWorkers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				i := next + c
				spec := cycle[i%len(cycle)]
				step[c], errs[c] = runSession(pe.tr, cfg, addr, spec, wls[spec.workload], x, fmt.Sprintf("session%d", i))
			}()
		}
		wg.Wait()
		for c, err := range errs {
			rep.attempted++
			if err != nil {
				spec := cycle[(next+c)%len(cycle)]
				rep.fail("session %d %s %s: %v", next+c, spec.key(), spec.kind, err)
				continue
			}
			step[c].index = next + c
			outs = append(outs, step[c])
		}
	}
	wall := time.Since(start).Seconds()
	logSessionTypes(pe, cycle, outs)

	ph := phase{rss: rss}
	lat := make([]float64, len(outs))
	var accesses float64
	var depth int
	for i, o := range outs {
		lat[i] = o.latency
		accesses += float64(o.accesses)
		depth = max(depth, o.queueDepth)
	}
	ph.throughput, ph.throughputN = accesses/wall, len(outs)
	ph.latency, ph.tail, ph.latN = quantile(lat, 0.5), quantile(lat, 0.9), len(lat)
	if pe.tr.on {
		ph.layer = map[string]float64{
			"lvmd.dial_s":          pe.tr.perOp("lvmd.dial", 1),
			"lvmd.admit_s":         pe.tr.perOp("lvmd.admit", 1),
			"lvmd.run_s":           pe.tr.perOp("lvmd.run", 1),
			"lvmd.stream_send_s":   pe.tr.perOp("lvmd.stream_send", 1),
			"lvmd.queue_depth_max": float64(depth),
			"workload.build_s":     pe.tr.seconds("workload.build"),
		}
	}
	return ph
}

// checkWindows checks a session's metric windows: they tile the measured
// region [from, to) in steps of every (0: one window over all of it), and
// their dram.accesses deltas sum to the result's.
func checkWindows(windows []lvmd.IntervalDoc, from, to, every int, result counters) error {
	if every <= 0 {
		every = to - from
	}
	pos := from
	var dram uint64
	for i, iv := range windows {
		want := min(pos+every, to)
		if iv.Start != pos || iv.End != want {
			return fmt.Errorf("window %d covers [%d, %d), want [%d, %d)", i, iv.Start, iv.End, pos, want)
		}
		c, err := decodeCounters(iv.Metrics)
		if err != nil {
			return fmt.Errorf("window %d: %w", i, err)
		}
		n, err := strconv.ParseUint(string(c["dram.accesses"]), 10, 64)
		if err != nil {
			return fmt.Errorf("window %d: dram.accesses: %w", i, err)
		}
		dram += n
		pos = iv.End
	}
	if pos != to {
		return fmt.Errorf("windows end at %d, want %d", pos, to)
	}
	if want := string(result["dram.accesses"]); strconv.FormatUint(dram, 10) != want {
		return fmt.Errorf("windows sum to %d dram accesses, result has %s", dram, want)
	}
	return nil
}

// logSessionTypes prints the median latency of each session type, the
// detail behind the phase's percentiles.
func logSessionTypes(pe *env, cycle []sessionSpec, outs []sessionOutcome) {
	byType := make([][]float64, len(cycle))
	for _, o := range outs {
		byType[o.index%len(cycle)] = append(byType[o.index%len(cycle)], o.latency)
	}
	for i, lat := range byType {
		if len(lat) > 0 {
			fmt.Fprintf(pe.log, "serve %-28s %-6s median %.3fs (n=%d)\n", cycle[i].key(), cycle[i].kind, median(lat), len(lat))
		}
	}
}

// runSession serves one session from Dial to result and checks the
// result against its expected counters.
func runSession(tr *tracer, cfg lvmd.Config, addr string, spec sessionSpec, w *workload.Workload, x *expectations, group string) (sessionOutcome, error) {
	t0 := time.Now()
	root := tr.begin("lvmd.session."+spec.kind.String(), group, -1)
	defer tr.end(root, 1)

	sp := tr.begin("lvmd.dial", group, root)
	c, err := lvmd.Dial(addr, cfg)
	tr.end(sp, 1)
	if err != nil {
		return sessionOutcome{}, err
	}
	defer c.Close()
	open := lvmd.OpenRequest{Workload: spec.workload, Scheme: spec.scheme, Stream: spec.kind == kindStream}
	if spec.kind == kindWarmup {
		open.Warmup = serveWarmup
	}
	if err := c.Open(open); err != nil {
		return sessionOutcome{}, err
	}
	var sender sync.WaitGroup
	if open.Stream {
		sender.Add(1)
		go func() {
			defer sender.Done()
			sp := tr.begin("lvmd.stream_send", group, root)
			defer tr.end(sp, 1)
			for lo := 0; lo < len(w.Accesses); lo += streamChunk {
				hi := min(lo+streamChunk, len(w.Accesses))
				// A failed send ends the session; Wait reports why.
				if c.Send(w.Accesses[lo:hi], hi == len(w.Accesses)) != nil {
					return
				}
			}
		}()
	}
	sp = tr.begin("lvmd.admit", group, root)
	_, err = c.WaitAdmitted()
	tr.end(sp, 1)
	var res *lvmd.ResultDoc
	var st lvmd.SessionStats
	var windows []lvmd.IntervalDoc
	if err == nil {
		sp = tr.begin("lvmd.run", group, root)
		res, st, err = c.Wait(func(iv lvmd.IntervalDoc) { windows = append(windows, iv) })
		tr.end(sp, 1)
	}
	if err != nil {
		c.Close() // unblocks a sender stuck on a dead session
		sender.Wait()
		return sessionOutcome{}, err
	}
	sender.Wait()
	latency := time.Since(t0).Seconds()

	k := spec.key()
	if want := len(w.Accesses) - k.Warmup; res.Accesses != uint64(want) {
		return sessionOutcome{}, fmt.Errorf("served %d accesses, want %d", res.Accesses, want)
	}
	got, err := servedCounters(res.Sim)
	if err != nil {
		return sessionOutcome{}, err
	}
	if d := x.check(k, got, false); len(d) > 0 {
		return sessionOutcome{}, fmt.Errorf("%d counters differ, first: %s", len(d), d[0])
	}
	// The session sets no window, so the daemon's default applies.
	if err := checkWindows(windows, k.Warmup, len(w.Accesses), cfg.DefaultEvery, got); err != nil {
		return sessionOutcome{}, err
	}
	return sessionOutcome{latency: latency, accesses: len(w.Accesses), queueDepth: st.QueueDepth}, nil
}
