package lvmd

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"lvm/internal/addr"
	"lvm/internal/experiments/sched"
	"lvm/internal/wire"
	"lvm/internal/workload"
)

// Server is the daemon: a wire.Server handing each connection one
// session, a build-once workload cache shared across tenants, and a
// two-stage admission pipeline — the sched.Admission byte semaphore
// (footprint cost model with EMA correction) decides how many tenants may
// hold machines, a worker-slot semaphore decides how many simulate at
// once.
type Server struct {
	cfg   Config
	fp    string
	adm   *sched.Admission
	slots chan struct{} // worker-slot semaphore (capacity cfg.Workers)
	quit  chan struct{} // closed by Close; cancels queued admissions
	ws    wire.Server

	mu       sync.Mutex
	wls      map[string]*workloadOnce // guarded by mu
	sessions map[uint64]*session      // guarded by mu
	nextID   uint64                   // guarded by mu

	quitOnce sync.Once
	// wg tracks each session's read loop and cancellation watcher.
	wg sync.WaitGroup
}

// workloadOnce deduplicates workload construction across sessions: the
// first session naming a workload builds it, concurrent ones wait.
type workloadOnce struct {
	once sync.Once
	w    *workload.Workload
	err  error
}

// ServerStats is a point-in-time load view.
type ServerStats struct {
	// Admission is the byte semaphore's state (in-use charge, queue depth,
	// correction factor).
	Admission sched.AdmissionStats
	// Sessions is the number of open sessions (admitted or queued).
	Sessions int
}

// session is one connection's server-side state. The handling goroutine
// owns the simulation; the read-loop goroutine only feeds trace chunks and
// turns client drops or kill frames into cancellation.
type session struct {
	w *wire.Conn

	// traceCh delivers streamed trace chunks to the simulating goroutine.
	traceCh chan traceChunk
	// cancel is closed (once) on client drop, kill, or daemon shutdown.
	cancel     chan struct{}
	cancelOnce sync.Once
	// killed distinguishes an explicit kill (connection still healthy, an
	// error frame is owed) from a drop.
	killed atomic.Bool
}

// traceChunk is one inbound msgTrace frame, decoded.
type traceChunk struct {
	accesses []workload.Access
	done     bool
}

// abort cancels the session. killed marks an explicit client kill.
func (s *session) abort(killed bool) {
	if killed {
		s.killed.Store(true)
	}
	s.cancelOnce.Do(func() { close(s.cancel) })
}

// NewServer builds a daemon from cfg (zero fields resolved to defaults).
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	fp, err := cfg.Fingerprint()
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:      cfg,
		fp:       fp,
		adm:      sched.NewAdmission(cfg.MemBudgetBytes, sched.NewCostModel()),
		slots:    make(chan struct{}, cfg.Workers),
		quit:     make(chan struct{}),
		wls:      make(map[string]*workloadOnce),
		sessions: make(map[uint64]*session),
	}, nil
}

// Serve accepts sessions on ln until Close. It blocks; the returned error
// is nil after a clean Close and the accept failure otherwise.
func (srv *Server) Serve(ln net.Listener) error {
	return srv.ws.Serve(ln, srv.handle)
}

// Close shuts the daemon down: the listener stops accepting, queued
// admissions abort, every connection (in a session or not) is closed, and
// Close returns only when every handler goroutine has drained — callers
// observe zero leaked goroutines after it returns.
func (srv *Server) Close() {
	srv.quitOnce.Do(func() { close(srv.quit) })
	srv.ws.Close()
	srv.wg.Wait()
}

// Stats snapshots current load.
func (srv *Server) Stats() ServerStats {
	srv.mu.Lock()
	n := len(srv.sessions)
	srv.mu.Unlock()
	return ServerStats{Admission: srv.adm.Stats(), Sessions: n}
}

// KillSession aborts the identified open session server-side, as if its
// client had sent a kill frame. Unknown IDs report an error.
func (srv *Server) KillSession(id uint64) error {
	srv.mu.Lock()
	s := srv.sessions[id]
	srv.mu.Unlock()
	if s == nil {
		return fmt.Errorf("lvmd: kill of unknown session %d", id)
	}
	s.abort(true)
	return nil
}

// workload returns the named workload, building it at most once across all
// sessions.
func (srv *Server) workload(name string) (*workload.Workload, error) {
	srv.mu.Lock()
	wo := srv.wls[name]
	if wo == nil {
		wo = &workloadOnce{}
		srv.wls[name] = wo
	}
	srv.mu.Unlock()
	wo.once.Do(func() {
		wo.w, wo.err = workload.Build(name, srv.cfg.Exp.Params)
	})
	return wo.w, wo.err
}

// register allocates a session identity; unregister retires it.
func (srv *Server) register(w *wire.Conn) (uint64, *session) {
	srv.mu.Lock()
	srv.nextID++
	id := srv.nextID
	s := &session{
		w:       w,
		traceCh: make(chan traceChunk, 4),
		cancel:  make(chan struct{}),
	}
	srv.sessions[id] = s
	srv.mu.Unlock()
	return id, s
}

func (srv *Server) unregister(id uint64) {
	srv.mu.Lock()
	delete(srv.sessions, id)
	srv.mu.Unlock()
}

// handle runs one connection's lifecycle end to end: handshake, open,
// admission, simulation, teardown. The wire.Server closes the connection
// when it returns, which ends the read loop it spawns.
func (srv *Server) handle(w *wire.Conn) {
	var hello message
	if err := w.ReadHello(wire.NewHello(StreamSchemaVersion, srv.fp), &hello); err != nil {
		return
	}
	if err := w.Send(message{Type: wire.TypeWelcome, Workers: srv.cfg.Workers, BudgetBytes: srv.cfg.MemBudgetBytes}); err != nil {
		return
	}
	var m message
	if err := w.Recv(&m); err != nil {
		return
	}
	if m.Type != msgOpen || m.Open == nil {
		w.Send(message{Type: msgError, Reason: fmt.Sprintf("expected open, got %q", m.Type)})
		return
	}
	open := *m.Open
	if open.Stream && open.Warmup > 0 {
		w.Send(message{Type: msgError, Reason: "warmup is not supported for stream sessions"})
		return
	}

	wl, err := srv.workload(open.Workload)
	if err != nil {
		w.Send(message{Type: msgError, Reason: err.Error()})
		return
	}

	id, s := srv.register(w)
	defer srv.unregister(id)
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		srv.readLoop(s)
	}()

	// Cancellation covers both the client (drop/kill via s.cancel) and the
	// daemon (Close via quit); fold them into the one channel Acquire and
	// the drive loop watch.
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		select {
		case <-srv.quit:
			s.abort(false)
		case <-s.cancel:
		}
	}()

	// Stage 1: memory admission. The charge is the sweep scheduler's exact
	// footprint formula, EMA-corrected by what completed sessions actually
	// cost; a cancelled wait charges nothing.
	cost := srv.cfg.Exp.RunCostBytes(wl.FootprintBytes())
	charge, ok := srv.adm.Acquire(cost, s.cancel)
	if !ok {
		srv.sendAborted(s)
		return
	}
	defer srv.adm.Release(charge)

	// Stage 2: a worker slot bounds concurrent simulation.
	select {
	case srv.slots <- struct{}{}:
	case <-s.cancel:
		srv.sendAborted(s)
		return
	}
	defer func() { <-srv.slots }()

	if err := w.Send(message{Type: msgAdmitted, ChargeBytes: charge, QueueDepth: srv.adm.Stats().QueueDepth}); err != nil {
		return
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runErr := srv.runSession(s, wl, open)
	runtime.ReadMemStats(&after)
	srv.adm.Observe(cost, sched.MemSample{
		AllocBytes:     after.TotalAlloc - before.TotalAlloc,
		HeapInuseBytes: after.HeapInuse,
	})
	if runErr != nil {
		w.Send(message{Type: msgError, Reason: runErr.Error()})
	}
}

// readLoop drains the client's frames: trace chunks feed the simulating
// goroutine, a kill frame or connection loss cancels the session. It exits
// when the connection dies, which the wire.Server guarantees once handle
// returns.
func (srv *Server) readLoop(s *session) {
	for {
		var m message
		if err := s.w.Recv(&m); err != nil {
			s.abort(false)
			return
		}
		switch m.Type {
		case msgTrace:
			accesses := make([]workload.Access, len(m.Accesses))
			for i, a := range m.Accesses {
				accesses[i] = workload.Access{VA: addr.VA(a.VA), Write: a.W}
			}
			select {
			case s.traceCh <- traceChunk{accesses: accesses, done: m.Done}:
			case <-s.cancel:
				return
			}
			if m.Done {
				return
			}
		case msgKill:
			s.abort(true)
			return
		}
	}
}

// sendAborted owes an explicitly killed session an error frame; dropped
// clients get nothing (the connection is gone).
func (srv *Server) sendAborted(s *session) {
	if s.killed.Load() {
		s.w.Send(message{Type: msgError, Reason: "session killed"})
	}
}

// errAborted marks a session cancelled mid-simulation.
var errAborted = errors.New("lvmd: session aborted")
