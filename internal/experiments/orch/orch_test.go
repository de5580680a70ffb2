package orch

import (
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"lvm/internal/experiments"
	"lvm/internal/metrics"
	"lvm/internal/oskernel"
	"lvm/internal/sim"
	"lvm/internal/wire"
)

// testConfig is a tiny sweep config: the orchestrator tests never simulate
// (Exec is faked), but EstimateCosts and the fingerprint handshake need a
// real config over real workload names.
func testConfig() experiments.Config {
	cfg := experiments.Quick()
	cfg.Workloads = []string{"bfs", "mem$"}
	return cfg
}

// testPlan builds a hand-rolled plan over real workload names so the
// coordinator's cost estimation works without building anything.
func testPlan(keys ...experiments.RunKey) experiments.Plan {
	return experiments.Plan{Runs: keys}
}

// fakeOut fabricates a distinguishable run output: cycles identifies which
// worker produced it, so duplicate-discard tests can assert who won.
func fakeOut(key experiments.RunKey, cycles float64) *experiments.RunOutput {
	var m metrics.Set
	m.Counter("tlb.l2.misses", uint64(cycles))
	return &experiments.RunOutput{
		Sim: sim.Result{
			Workload:     key.Workload,
			Scheme:       string(key.Scheme),
			Instructions: 1000,
			Accesses:     500,
			Cycles:       cycles,
			Metrics:      m,
		},
		HostSeconds: 0.25,
	}
}

// recorder implements Sink + OrchSink and records every event for
// assertions; waitFor polls a predicate under the lock.
type recorder struct {
	mu         sync.Mutex
	started    []experiments.RunKey
	cached     []experiments.RunKey
	done       []experiments.RunKey
	doneErrs   []error
	assigns    []string // "key@worker" or "key@worker!" for steals
	retries    []string
	duplicates []experiments.RunKey
	joined     []string
	gone       []string
	goneErrs   []error
}

func (s *recorder) RunStart(k experiments.RunKey) {
	s.mu.Lock()
	s.started = append(s.started, k)
	s.mu.Unlock()
}
func (s *recorder) RunCached(k experiments.RunKey) {
	s.mu.Lock()
	s.cached = append(s.cached, k)
	s.mu.Unlock()
}
func (s *recorder) RunDone(k experiments.RunKey, _ float64, err error) {
	s.mu.Lock()
	s.done = append(s.done, k)
	s.doneErrs = append(s.doneErrs, err)
	s.mu.Unlock()
}
func (s *recorder) ExperimentStart(string, string)        {}
func (s *recorder) ExperimentDone(string, float64, error) {}

func (s *recorder) WorkerConnected(worker, _ string, _ int) {
	s.mu.Lock()
	s.joined = append(s.joined, worker)
	s.mu.Unlock()
}
func (s *recorder) WorkerGone(worker string, err error) {
	s.mu.Lock()
	s.gone = append(s.gone, worker)
	s.goneErrs = append(s.goneErrs, err)
	s.mu.Unlock()
}
func (s *recorder) RunAssigned(k experiments.RunKey, worker string, steal bool) {
	tag := k.String() + "@" + worker
	if steal {
		tag += "!"
	}
	s.mu.Lock()
	s.assigns = append(s.assigns, tag)
	s.mu.Unlock()
}
func (s *recorder) RunRetry(k experiments.RunKey, attempt, maxAttempts int, _ string) {
	s.mu.Lock()
	s.retries = append(s.retries, k.String())
	s.mu.Unlock()
}
func (s *recorder) RunDuplicate(k experiments.RunKey, _ string) {
	s.mu.Lock()
	s.duplicates = append(s.duplicates, k)
	s.mu.Unlock()
}

// waitFor polls pred until it holds, failing the test after ~10s.
func (s *recorder) waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		s.mu.Lock()
		ok := pred()
		s.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t.Fatalf("timed out waiting for %s\nassigns=%v done=%v dups=%v joined=%v gone=%v retries=%v",
		what, s.assigns, s.done, s.duplicates, s.joined, s.gone, s.retries)
}

func countSteals(assigns []string) int {
	n := 0
	for _, a := range assigns {
		if strings.HasSuffix(a, "!") {
			n++
		}
	}
	return n
}

// serveAsync starts Serve on a fresh loopback listener and returns the
// address plus the error channel.
func serveAsync(t *testing.T, r *experiments.Runner, p experiments.Plan, opt Options) (string, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- Serve(ln, r, p, opt) }()
	return ln.Addr().String(), errc
}

func newWorker(t *testing.T, cfg experiments.Config, name string, capacity int,
	exec func(experiments.RunKey) (*experiments.RunOutput, error)) *Worker {
	t.Helper()
	fp, err := cfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return &Worker{
		Exec:        exec,
		Fingerprint: fp,
		Name:        name,
		Capacity:    capacity,
	}
}

// Two workers drain a sweep; every run lands installed in the runner and
// stored in the cache, and both workers exit cleanly on shutdown.
func TestServeCompletesAndInstalls(t *testing.T) {
	cfg := testConfig()
	plan := testPlan(
		experiments.RunKey{Workload: "bfs", Scheme: oskernel.SchemeRadix},
		experiments.RunKey{Workload: "bfs", Scheme: oskernel.SchemeLVM},
		experiments.RunKey{Workload: "mem$", Scheme: oskernel.SchemeRadix},
		experiments.RunKey{Workload: "mem$", Scheme: oskernel.SchemeLVM},
	)
	cache, err := experiments.NewRunCache(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := experiments.NewRunner(cfg)
	sink := &recorder{}
	r.SetSink(sink)

	addr, errc := serveAsync(t, r, plan, Options{Cache: cache})
	// No run completes before both workers have joined: otherwise one
	// worker could drain the sweep while the other is still in its
	// handshake, and that one would see its connection closed.
	joined := make(chan struct{})
	exec := func(k experiments.RunKey) (*experiments.RunOutput, error) {
		<-joined
		return fakeOut(k, 42), nil
	}
	werrs := make(chan error, 2)
	for _, name := range []string{"alpha", "beta"} {
		wk := newWorker(t, cfg, name, 2, exec)
		go func() { werrs <- wk.Run(addr) }()
	}
	sink.waitFor(t, "both workers to join", func() bool { return len(sink.joined) == 2 })
	close(joined)

	if err := <-errc; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := <-werrs; err != nil {
			t.Errorf("worker exit: %v", err)
		}
	}
	for _, key := range plan.Runs {
		out, ok := r.LookupRun(key)
		if !ok {
			t.Fatalf("run %s not installed", key)
		}
		if out.Sim.Cycles != 42 {
			t.Errorf("run %s: cycles %v, want 42", key, out.Sim.Cycles)
		}
		if out.HostSeconds != 0.25 {
			t.Errorf("run %s: HostSeconds %v not carried over the wire", key, out.HostSeconds)
		}
		if _, hit, err := cache.Load(key); err != nil || !hit {
			t.Errorf("run %s not in cache: hit=%v err=%v", key, hit, err)
		}
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.joined) != 2 {
		t.Errorf("%d workers joined, want 2", len(sink.joined))
	}
	if len(sink.done) != len(plan.Runs) {
		t.Errorf("%d RunDone events, want %d", len(sink.done), len(plan.Runs))
	}
	if len(sink.started) != 0 {
		t.Errorf("coordinator simulated %d runs locally", len(sink.started))
	}
}

// A worker whose config fingerprint differs is rejected at the handshake,
// before any run is dispatched; a matching worker then drains the sweep.
func TestServeFingerprintMismatch(t *testing.T) {
	cfg := testConfig()
	plan := testPlan(experiments.RunKey{Workload: "bfs", Scheme: oskernel.SchemeLVM})
	r := experiments.NewRunner(cfg)
	sink := &recorder{}
	r.SetSink(sink)
	addr, errc := serveAsync(t, r, plan, Options{})

	exec := func(k experiments.RunKey) (*experiments.RunOutput, error) { return fakeOut(k, 1), nil }
	bad := newWorker(t, cfg, "impostor", 1, exec)
	bad.Fingerprint = "deadbeefdeadbeef"
	err := bad.Run(addr)
	if err == nil {
		t.Fatal("mismatched fingerprint accepted")
	}
	for _, want := range []string{"rejected", "fingerprint"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("rejection %q does not mention %q", err, want)
		}
	}

	good := newWorker(t, cfg, "genuine", 1, exec)
	gerr := make(chan error, 1)
	go func() { gerr <- good.Run(addr) }()
	if err := <-errc; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if err := <-gerr; err != nil {
		t.Errorf("worker exit: %v", err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.joined) != 1 {
		t.Errorf("%d workers joined, want only the matching one", len(sink.joined))
	}
}

// A worker that dies mid-run has its in-flight runs requeued (a crash
// attempt, no cooldown) and the sweep completes on the surviving worker.
func TestServeWorkerCrashMidRun(t *testing.T) {
	cfg := testConfig()
	fp, err := cfg.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	plan := testPlan(
		experiments.RunKey{Workload: "bfs", Scheme: oskernel.SchemeRadix},
		experiments.RunKey{Workload: "bfs", Scheme: oskernel.SchemeLVM},
	)
	r := experiments.NewRunner(cfg)
	sink := &recorder{}
	r.SetSink(sink)
	addr, errc := serveAsync(t, r, plan, Options{})

	// Raw-protocol crasher: handshake, accept one assignment, drop dead.
	w, err := wire.Dial(addr, message{
		Type:   wire.TypeHello,
		Hello:  wire.NewHello(experiments.RunJSONSchemaVersion, fp),
		Worker: "crasher", Capacity: 1,
	})
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	var m message
	if err := w.Recv(&m); err != nil || m.Type != msgAssign {
		t.Fatalf("assignment: %v %v", m.Type, err)
	}
	w.Close()
	sink.waitFor(t, "crash detection", func() bool { return len(sink.gone) == 1 })

	survivor := newWorker(t, cfg, "survivor", 2,
		func(k experiments.RunKey) (*experiments.RunOutput, error) { return fakeOut(k, 7), nil })
	serr := make(chan error, 1)
	go func() { serr <- survivor.Run(addr) }()
	if err := <-errc; err != nil {
		t.Fatalf("Serve after crash: %v", err)
	}
	if err := <-serr; err != nil {
		t.Errorf("survivor exit: %v", err)
	}
	for _, key := range plan.Runs {
		if _, ok := r.LookupRun(key); !ok {
			t.Errorf("run %s not installed after crash recovery", key)
		}
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.goneErrs[0] == nil {
		t.Error("crash reported as a clean departure")
	}
}

// An idle worker steals a straggler's run; the first completion wins and
// the straggler's late duplicate is discarded, never re-installed.
func TestServeDuplicateAfterSteal(t *testing.T) {
	cfg := testConfig()
	keyX := experiments.RunKey{Workload: "mem$", Scheme: oskernel.SchemeLVM}
	keyZ := experiments.RunKey{Workload: "mem$", Scheme: oskernel.SchemeRadix}
	plan := testPlan(keyX, keyZ)
	r := experiments.NewRunner(cfg)
	sink := &recorder{}
	r.SetSink(sink)
	addr, errc := serveAsync(t, r, plan, Options{})

	aGate := make(chan struct{})
	bGate := make(chan struct{})
	wait := func(gate chan struct{}, block experiments.RunKey, cycles float64) func(experiments.RunKey) (*experiments.RunOutput, error) {
		return func(k experiments.RunKey) (*experiments.RunOutput, error) {
			if k == block {
				<-gate
			}
			return fakeOut(k, cycles), nil
		}
	}
	// Straggler A takes keyX (plan order) and blocks on it.
	wa := newWorker(t, cfg, "straggler", 1, wait(aGate, keyX, 111))
	aerr := make(chan error, 1)
	go func() { aerr <- wa.Run(addr) }()
	sink.waitFor(t, "straggler's assignment", func() bool { return len(sink.assigns) == 1 })

	// B takes keyZ (the only pending run) and blocks on it.
	wb := newWorker(t, cfg, "plodder", 1, wait(bGate, keyZ, 222))
	berr := make(chan error, 1)
	go func() { berr <- wb.Run(addr) }()
	sink.waitFor(t, "plodder's assignment", func() bool { return len(sink.assigns) == 2 })

	// C finds nothing pending, steals keyX, and wins it. It then steals
	// keyZ too and blocks there, keeping the sweep open for the duplicate.
	cGate := make(chan struct{})
	wc := newWorker(t, cfg, "thief", 1, wait(cGate, keyZ, 333))
	cerr := make(chan error, 1)
	go func() { cerr <- wc.Run(addr) }()
	sink.waitFor(t, "the steal to complete", func() bool { return len(sink.done) == 1 })

	// The straggler's late copy must be discarded as a duplicate …
	close(aGate)
	sink.waitFor(t, "duplicate discard", func() bool { return len(sink.duplicates) == 1 })
	// … which frees the straggler to steal keyZ and finish the sweep.
	if err := <-errc; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	close(bGate)
	close(cGate)
	for _, ch := range []chan error{aerr, berr, cerr} {
		<-ch // exit paths after teardown vary; liveness is what matters
	}

	out, ok := r.LookupRun(keyX)
	if !ok {
		t.Fatalf("stolen run %s not installed", keyX)
	}
	if out.Sim.Cycles != 333 {
		t.Errorf("installed cycles %v: the duplicate overwrote the first completion (want 333)", out.Sim.Cycles)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.duplicates[0] != keyX {
		t.Errorf("duplicate reported for %s, want %s", sink.duplicates[0], keyX)
	}
	if n := countSteals(sink.assigns); n < 1 {
		t.Errorf("no steal recorded in assigns %v", sink.assigns)
	}
}

// A run that fails on every attempt fails the sweep with a wrapped
// ErrRetriesExhausted naming the run; the retry went through a cooldown.
func TestServeRetryExhaustion(t *testing.T) {
	cfg := testConfig()
	key := experiments.RunKey{Workload: "bfs", Scheme: oskernel.SchemeLVM}
	plan := testPlan(key)
	r := experiments.NewRunner(cfg)
	sink := &recorder{}
	r.SetSink(sink)
	addr, errc := serveAsync(t, r, plan, Options{MaxAttempts: 2, RetryBackoff: time.Millisecond})

	wk := newWorker(t, cfg, "doomed", 1,
		func(k experiments.RunKey) (*experiments.RunOutput, error) {
			return nil, errors.New("simulated launch failure")
		})
	werr := make(chan error, 1)
	go func() { werr <- wk.Run(addr) }()

	err := <-errc
	if err == nil {
		t.Fatal("sweep succeeded despite a run failing every attempt")
	}
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Errorf("error %v does not wrap ErrRetriesExhausted", err)
	}
	for _, want := range []string{key.String(), "2 attempts", "simulated launch failure"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	<-werr // connection torn down; exact error does not matter
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.retries) != 1 {
		t.Errorf("%d retries recorded, want 1 (attempt 1 of 2)", len(sink.retries))
	}
	if len(sink.assigns) != 2 {
		t.Errorf("%d assignments, want 2 (original + retry)", len(sink.assigns))
	}
}

// Resume after a coordinator restart: a second Serve over a warm cache
// installs everything up front and returns before accepting a single
// connection — zero workers, zero assignments, zero simulations.
func TestServeResumeWarmCache(t *testing.T) {
	cfg := testConfig()
	plan := testPlan(
		experiments.RunKey{Workload: "bfs", Scheme: oskernel.SchemeRadix},
		experiments.RunKey{Workload: "bfs", Scheme: oskernel.SchemeLVM},
	)
	cache, err := experiments.NewRunCache(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	r1 := experiments.NewRunner(cfg)
	r1.SetSink(&recorder{})
	addr, errc := serveAsync(t, r1, plan, Options{Cache: cache})
	wk := newWorker(t, cfg, "filler", 2,
		func(k experiments.RunKey) (*experiments.RunOutput, error) { return fakeOut(k, 9), nil })
	werr := make(chan error, 1)
	go func() { werr <- wk.Run(addr) }()
	if err := <-errc; err != nil {
		t.Fatalf("cold Serve: %v", err)
	}
	if err := <-werr; err != nil {
		t.Errorf("worker exit: %v", err)
	}

	// Fresh coordinator, same cache, no workers started at all.
	r2 := experiments.NewRunner(cfg)
	sink := &recorder{}
	r2.SetSink(sink)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := Serve(ln, r2, plan, Options{Cache: cache}); err != nil {
		t.Fatalf("warm Serve: %v", err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.cached) != len(plan.Runs) {
		t.Errorf("%d runs restored from cache, want %d", len(sink.cached), len(plan.Runs))
	}
	if len(sink.assigns) != 0 || len(sink.started) != 0 || len(sink.joined) != 0 {
		t.Errorf("warm resume dispatched work: assigns=%v started=%v joined=%v",
			sink.assigns, sink.started, sink.joined)
	}
	for _, key := range plan.Runs {
		out, ok := r2.LookupRun(key)
		if !ok {
			t.Fatalf("run %s not restored", key)
		}
		if out.Sim.Cycles != 9 {
			t.Errorf("run %s: cycles %v, want 9", key, out.Sim.Cycles)
		}
	}
}

// The worker's hello frame is pinned to the bytes the protocol has always
// sent: moving the framing and the hello identity into internal/wire must
// not change a byte a deployed coordinator or worker sees.
func TestHelloFrameBytes(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	go func() {
		wire.NewConn(a).Send(message{
			Type:        wire.TypeHello,
			Hello:       wire.NewHello(2, "0123456789abcdef"),
			Worker:      "host:42",
			Capacity:    4,
			BudgetBytes: 1 << 30,
		})
		a.Close()
	}()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	const want = "\x00\x00\x00\x88{\"type\":\"hello\",\"proto\":1,\"schema_version\":2,\"fingerprint\":\"0123456789abcdef\",\"worker\":\"host:42\",\"capacity\":4,\"budget_bytes\":1073741824}"
	if string(got) != want {
		t.Errorf("hello frame\n got %q\nwant %q", got, want)
	}
}

// waitServe fails the test unless Serve returns within a few seconds.
func waitServe(t *testing.T, errc chan error) error {
	t.Helper()
	select {
	case err := <-errc:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after the sweep completed")
		return nil
	}
}

// A connection that is accepted but never sends hello must not keep Serve
// from returning once the sweep is done.
func TestServeReturnsPastSilentConnection(t *testing.T) {
	cfg := testConfig()
	plan := testPlan(experiments.RunKey{Workload: "bfs", Scheme: oskernel.SchemeLVM})
	r := experiments.NewRunner(cfg)
	r.SetSink(&recorder{})
	addr, errc := serveAsync(t, r, plan, Options{})

	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	wk := newWorker(t, cfg, "worker", 1,
		func(k experiments.RunKey) (*experiments.RunOutput, error) { return fakeOut(k, 5), nil })
	werr := make(chan error, 1)
	go func() { werr <- wk.Run(addr) }()
	if err := waitServe(t, errc); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if err := <-werr; err != nil {
		t.Errorf("worker exit: %v", err)
	}
	// The coordinator closed the silent connection rather than leaving it.
	silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := silent.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("silent connection still open after Serve: read %d bytes, err %v", n, err)
	}
}

// signalListener reports each accepted connection and its own Close.
type signalListener struct {
	net.Listener
	accepted chan struct{}
	closed   chan struct{}
	once     sync.Once
}

func (l *signalListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted <- struct{}{}
	}
	return c, err
}

func (l *signalListener) Close() error {
	err := l.Listener.Close()
	l.once.Do(func() { close(l.closed) })
	return err
}

// A worker connected before the sweep ends whose hello only arrives after
// the coordinator has closed its listener neither hangs Serve nor hangs
// itself: its Run returns nil or an error. A relay holds the worker's
// bytes until the listener closes, so the late hello is deterministic.
func TestServeLateHello(t *testing.T) {
	cfg := testConfig()
	plan := testPlan(experiments.RunKey{Workload: "bfs", Scheme: oskernel.SchemeLVM})
	r := experiments.NewRunner(cfg)
	r.SetSink(&recorder{})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &signalListener{Listener: inner, accepted: make(chan struct{}, 8), closed: make(chan struct{})}
	errc := make(chan error, 1)
	go func() { errc <- Serve(ln, r, plan, Options{}) }()
	exec := func(k experiments.RunKey) (*experiments.RunOutput, error) { return fakeOut(k, 3), nil }

	// The late worker dials a relay whose upstream connection the
	// coordinator accepts now, before the sweep can finish.
	up, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	<-ln.accepted
	relay, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	late := newWorker(t, cfg, "late", 1, exec)
	lerr := make(chan error, 1)
	go func() { lerr <- late.Run(relay.Addr().String()) }()
	down, err := relay.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer down.Close()
	defer up.Close()
	go func() {
		<-ln.closed
		io.Copy(up, down) // the hello, released only once the listener is closed
		up.Close()
	}()
	go func() {
		io.Copy(down, up)
		down.Close()
	}()

	wk := newWorker(t, cfg, "prompt", 1, exec)
	werr := make(chan error, 1)
	go func() { werr <- wk.Run(inner.Addr().String()) }()
	if err := waitServe(t, errc); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if err := <-werr; err != nil {
		t.Errorf("prompt worker exit: %v", err)
	}
	select {
	case <-lerr: // nil or an error: either way it returned
	case <-time.After(10 * time.Second):
		t.Fatal("late worker's Run never returned")
	}
}
