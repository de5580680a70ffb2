// Integration tests for the serving daemon, driven entirely through the
// public wire API: bit-identity of streamed sessions against standalone
// runs, admission accounting under client drops and kills, handshake
// vetting, and goroutine hygiene across Close. All of them run under -race
// in CI (repeatedly), so the concurrency claims are checked, not asserted.
package lvmd_test

import (
	"encoding/json"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"lvm/internal/lvmd"
	"lvm/internal/oskernel"
	"lvm/internal/workload"
)

// testConfig shrinks the quick sweep config so dozens of tenants fit a
// small budget: unit-test workload params and a 32MB per-run slack.
func testConfig() lvmd.Config {
	cfg := lvmd.Quick()
	cfg.Exp.Params = workload.QuickParams()
	cfg.Exp.Workloads = []string{"bfs", "gups"}
	cfg.Exp.PhysSlackBytes = 32 << 20
	return cfg
}

// startServer runs a daemon on an ephemeral localhost port and tears it
// down (checking Serve's exit) in cleanup.
func startServer(t testing.TB, cfg lvmd.Config) (*lvmd.Server, string) {
	t.Helper()
	srv, err := lvmd.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve exited with error: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// waitFor polls cond until it holds or the deadline nears.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("never observed: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServedMatchesStandalone is the serving bit-identity contract: a
// session replayed daemon-side must stream interval windows and a final
// result byte-identical (in their deterministic JSON encodings) to a
// standalone RunIntervals over the same configuration.
func TestServedMatchesStandalone(t *testing.T) {
	cfg := testConfig()
	_, addrs := startServer(t, cfg)
	const every = 777
	for _, scheme := range []oskernel.Scheme{oskernel.SchemeLVM, oskernel.SchemeRadix} {
		t.Run(string(scheme), func(t *testing.T) {
			c, err := lvmd.Dial(addrs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var ivs []lvmd.IntervalDoc
			res, _, err := c.Run(lvmd.OpenRequest{Workload: "bfs", Scheme: scheme, Every: every},
				func(iv lvmd.IntervalDoc) { ivs = append(ivs, iv) })
			if err != nil {
				t.Fatal(err)
			}

			w, err := workload.Build("bfs", cfg.Exp.Params)
			if err != nil {
				t.Fatal(err)
			}
			_, _, cpu, err := cfg.Exp.NewRunMachine(w, scheme, false)
			if err != nil {
				t.Fatal(err)
			}
			wantRes, wantIv := cpu.RunIntervals(1, w, every)
			wantResB, err := json.Marshal(wantRes)
			if err != nil {
				t.Fatal(err)
			}
			if string(res.Sim) != string(wantResB) {
				t.Errorf("served result diverges from standalone run:\n served: %s\n   want: %s", res.Sim, wantResB)
			}
			if res.Accesses != wantRes.Accesses || res.Cycles != wantRes.Cycles {
				t.Errorf("result scalars diverge: got (%d, %g), want (%d, %g)",
					res.Accesses, res.Cycles, wantRes.Accesses, wantRes.Cycles)
			}
			if len(ivs) != len(wantIv) {
				t.Fatalf("%d served intervals, want %d", len(ivs), len(wantIv))
			}
			for i, iv := range ivs {
				if iv.Start != wantIv[i].Start || iv.End != wantIv[i].End {
					t.Fatalf("interval %d range [%d,%d), want [%d,%d)", i, iv.Start, iv.End, wantIv[i].Start, wantIv[i].End)
				}
				wantM, err := json.Marshal(wantIv[i].Metrics)
				if err != nil {
					t.Fatal(err)
				}
				if string(iv.Metrics) != string(wantM) {
					t.Errorf("interval %d metrics diverge:\n served: %s\n   want: %s", i, iv.Metrics, wantM)
				}
			}
		})
	}
}

// TestServedWarmupMatchesStandalone checks the warmed measured region path
// against FastForward + RunFrom.
func TestServedWarmupMatchesStandalone(t *testing.T) {
	cfg := testConfig()
	_, addrs := startServer(t, cfg)
	c, err := lvmd.Dial(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const warmup = 5000
	res, _, err := c.Run(lvmd.OpenRequest{Workload: "bfs", Scheme: oskernel.SchemeLVM, Warmup: warmup}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Build("bfs", cfg.Exp.Params)
	if err != nil {
		t.Fatal(err)
	}
	_, _, cpu, err := cfg.Exp.NewRunMachine(w, oskernel.SchemeLVM, false)
	if err != nil {
		t.Fatal(err)
	}
	n := cpu.FastForward(1, w, warmup)
	want, err := json.Marshal(cpu.RunFrom(1, w, n))
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Sim) != string(want) {
		t.Errorf("served warmup result diverges from standalone RunFrom")
	}
}

// TestStreamedTraceMatchesReplay streams the workload's own trace from the
// client in uneven chunks and requires the result to equal a standalone
// one-shot run: the wire path must not perturb simulation.
func TestStreamedTraceMatchesReplay(t *testing.T) {
	cfg := testConfig()
	_, addrs := startServer(t, cfg)
	c, err := lvmd.Dial(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w, err := workload.Build("bfs", cfg.Exp.Params)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := c.RunStream(lvmd.OpenRequest{Workload: "bfs", Scheme: oskernel.SchemeLVM, Every: 997},
		w.Accesses, 501, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, cpu, err := cfg.Exp.NewRunMachine(w, oskernel.SchemeLVM, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(cpu.Run(1, w))
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Sim) != string(want) {
		t.Errorf("streamed-trace result diverges from standalone Run:\n served: %s\n   want: %s", res.Sim, want)
	}
}

// TestClientDropReleasesAdmission pins the budget to one session, parks a
// stream session on it, and checks that a queued second client's drop
// releases its admission wait — and that the budget then flows to a third,
// surviving session.
func TestClientDropReleasesAdmission(t *testing.T) {
	cfg := testConfig()
	w, err := workload.Build("bfs", cfg.Exp.Params)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MemBudgetBytes = cfg.Exp.RunCostBytes(w.FootprintBytes())
	cfg.Workers = 2
	srv, addrs := startServer(t, cfg)

	// A: a stream session that holds the whole budget, parked waiting for
	// trace input.
	a, err := lvmd.Dial(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Open(lvmd.OpenRequest{Workload: "bfs", Scheme: oskernel.SchemeLVM, Stream: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.WaitAdmitted(); err != nil {
		t.Fatal(err)
	}

	// B: queued behind A, then dropped mid-queue.
	b, err := lvmd.Dial(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Open(lvmd.OpenRequest{Workload: "bfs", Scheme: oskernel.SchemeLVM}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "B queued", func() bool { return srv.Stats().Admission.QueueDepth == 1 })
	b.Close()
	waitFor(t, "B's queued admission released by drop", func() bool {
		st := srv.Stats()
		return st.Admission.QueueDepth == 0 && st.Sessions == 1
	})
	if got := srv.Stats().Admission.InFlight; got != 1 {
		t.Fatalf("%d admissions in flight after drop, want 1 (A)", got)
	}

	// C: queues, then runs once A finishes its (empty) stream.
	cc, err := lvmd.Dial(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.Open(lvmd.OpenRequest{Workload: "bfs", Scheme: oskernel.SchemeLVM}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "C queued", func() bool { return srv.Stats().Admission.QueueDepth == 1 })
	if err := a.Send(nil, true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.Wait(nil); err != nil {
		t.Fatalf("A (empty stream): %v", err)
	}
	if res, _, err := cc.Wait(nil); err != nil || res == nil {
		t.Fatalf("C after budget release: %v", err)
	}
	waitFor(t, "all sessions retired", func() bool {
		st := srv.Stats()
		return st.Sessions == 0 && st.Admission.InFlight == 0 && st.Admission.InUseBytes == 0
	})
}

// TestKillMidSession kills a session between batches (client-requested and
// daemon-side) and checks the tenant is torn down with its budget
// returned.
func TestKillMidSession(t *testing.T) {
	cfg := testConfig()
	srv, addrs := startServer(t, cfg)

	// Client-requested kill: park a stream session mid-trace, kill it.
	c, err := lvmd.Dial(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w, err := workload.Build("bfs", cfg.Exp.Params)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Open(lvmd.OpenRequest{Workload: "bfs", Scheme: oskernel.SchemeLVM, Stream: true, Every: 500}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitAdmitted(); err != nil {
		t.Fatal(err)
	}
	// Feed a chunk so the session is genuinely mid-simulation, then kill.
	if err := c.Send(w.Accesses[:2000], false); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Wait(nil); !errors.Is(err, lvmd.ErrKilled) {
		t.Fatalf("killed session returned %v, want ErrKilled", err)
	}
	waitFor(t, "killed session torn down", func() bool {
		st := srv.Stats()
		return st.Sessions == 0 && st.Admission.InUseBytes == 0
	})

	// Daemon-side kill via KillSession.
	c2, err := lvmd.Dial(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Open(lvmd.OpenRequest{Workload: "bfs", Scheme: oskernel.SchemeLVM, Stream: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.WaitAdmitted(); err != nil {
		t.Fatal(err)
	}
	if err := srv.KillSession(2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c2.Wait(nil); !errors.Is(err, lvmd.ErrKilled) {
		t.Fatalf("daemon-killed session returned %v, want ErrKilled", err)
	}
	if err := srv.KillSession(99); err == nil {
		t.Error("KillSession of unknown id succeeded")
	}
}

// TestConnectDisconnectStorm hammers the daemon with clients that drop at
// every lifecycle stage and checks it drains clean and keeps serving.
func TestConnectDisconnectStorm(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 4
	srv, addrs := startServer(t, cfg)
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := lvmd.Dial(addrs, cfg)
			if err != nil {
				t.Errorf("storm dial: %v", err)
				return
			}
			switch i % 3 {
			case 0: // connect and vanish
				c.Close()
			case 1: // open then vanish mid-session
				c.Open(lvmd.OpenRequest{Workload: "gups", Scheme: oskernel.SchemeRadix, Every: 1000})
				c.Close()
			default: // run to completion
				defer c.Close()
				if _, _, err := c.Run(lvmd.OpenRequest{Workload: "gups", Scheme: oskernel.SchemeRadix}, nil); err != nil {
					t.Errorf("storm run: %v", err)
				}
			}
		}(i)
	}
	wg.Wait()
	waitFor(t, "storm drained", func() bool {
		st := srv.Stats()
		return st.Sessions == 0 && st.Admission.InUseBytes == 0 && st.Admission.QueueDepth == 0
	})
	// The daemon must still serve cleanly after the storm.
	c, err := lvmd.Dial(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Run(lvmd.OpenRequest{Workload: "bfs", Scheme: oskernel.SchemeLVM}, nil); err != nil {
		t.Fatalf("post-storm run: %v", err)
	}
}

// TestHandshakeVetting checks protocol/fingerprint mismatches are refused
// with a reason, exactly like the sweep orchestrator's handshake.
func TestHandshakeVetting(t *testing.T) {
	cfg := testConfig()
	_, addrs := startServer(t, cfg)
	other := testConfig()
	other.Exp.Params.TraceLen = 777 // different config → different fingerprint
	if _, err := lvmd.Dial(addrs, other); err == nil {
		t.Fatal("mismatched fingerprint was accepted")
	}
	// Unknown workloads surface as session errors, not hangs.
	c, err := lvmd.Dial(addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Run(lvmd.OpenRequest{Workload: "nope", Scheme: oskernel.SchemeLVM}, nil); err == nil {
		t.Fatal("unknown workload session succeeded")
	}
}

// TestCloseLeaksNoGoroutines runs sessions (including a parked one cut off
// by shutdown), closes the daemon, and requires the goroutine count to
// return to its pre-server level — the same property cmd/lvmd self-asserts
// on SIGTERM.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := testConfig()
	srv, err := lvmd.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c, err := lvmd.Dial(ln.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Run(lvmd.OpenRequest{Workload: "bfs", Scheme: oskernel.SchemeLVM}, nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// A parked stream session, left for Close to cancel.
	p, err := lvmd.Dial(ln.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Open(lvmd.OpenRequest{Workload: "bfs", Scheme: oskernel.SchemeLVM, Stream: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.WaitAdmitted(); err != nil {
		t.Fatal(err)
	}

	srv.Close()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	waitFor(t, "goroutines drained after Close", func() bool {
		return runtime.NumGoroutine() <= before+2
	})
}

// TestCloseWithIdleConnections: Close must not wait on clients that never
// reached a session — a raw connection that has sent nothing and a
// handshaken client that never opens. Both are closed daemon-side.
func TestCloseWithIdleConnections(t *testing.T) {
	cfg := testConfig()
	srv, err := lvmd.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	// Accepted in dial order, so the raw connection is accepted before the
	// client's handshake completes.
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	idle, err := lvmd.Dial(ln.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung on connections that never opened a session")
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if _, _, err := idle.Wait(nil); err == nil {
		t.Error("idle client's connection survived Close")
	}
}
