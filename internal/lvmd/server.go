package lvmd

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"lvm/internal/addr"
	"lvm/internal/experiments/sched"
	"lvm/internal/workload"
)

// Server is the daemon: an accept loop handing each connection one
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

	mu       sync.Mutex
	ln       net.Listener             // guarded by mu
	wls      map[string]*workloadOnce // guarded by mu
	sessions map[uint64]*session      // guarded by mu
	nextID   uint64                   // guarded by mu
	closing  bool                     // guarded by mu

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
	w *wire

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
	srv.mu.Lock()
	if srv.closing {
		srv.mu.Unlock()
		ln.Close()
		return errors.New("lvmd: serve on a closed server")
	}
	srv.ln = ln
	srv.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			srv.mu.Lock()
			closing := srv.closing
			srv.mu.Unlock()
			if closing {
				return nil
			}
			return fmt.Errorf("lvmd: accept: %w", err)
		}
		srv.wg.Add(1)
		go func() {
			defer srv.wg.Done()
			srv.handle(conn)
		}()
	}
}

// Close shuts the daemon down: the listener stops accepting, queued
// admissions abort, every open session is cancelled and its connection
// closed, and Close returns only when every handler goroutine has drained
// — callers observe zero leaked goroutines after it returns.
func (srv *Server) Close() {
	srv.mu.Lock()
	if srv.closing {
		srv.mu.Unlock()
		srv.wg.Wait()
		return
	}
	srv.closing = true
	if srv.ln != nil {
		srv.ln.Close()
	}
	// Snapshot in sorted ID order: teardown must not depend on map
	// iteration order any more than the simulation paths do.
	ids := make([]uint64, 0, len(srv.sessions))
	for id := range srv.sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	live := make([]*session, 0, len(ids))
	for _, id := range ids {
		live = append(live, srv.sessions[id])
	}
	srv.mu.Unlock()

	close(srv.quit)
	for _, s := range live {
		s.abort(false)
		s.w.close()
	}
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
func (srv *Server) register(w *wire) (uint64, *session) {
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

// vetHello mirrors the sweep orchestrator's handshake validation:
// protocol, stream schema, and config fingerprint must all match, or the
// client is speaking about a different machine.
func (srv *Server) vetHello(m message) string {
	if m.Type != msgHello {
		return fmt.Sprintf("expected hello, got %q", m.Type)
	}
	if m.Proto != ProtocolVersion {
		return fmt.Sprintf("protocol v%d, want v%d", m.Proto, ProtocolVersion)
	}
	if m.SchemaVersion != StreamSchemaVersion {
		return fmt.Sprintf("stream schema v%d, want v%d", m.SchemaVersion, StreamSchemaVersion)
	}
	if m.Fingerprint != srv.fp {
		return fmt.Sprintf("config fingerprint %.12s does not match daemon (%.12s) — client configured for a different machine", m.Fingerprint, srv.fp)
	}
	return ""
}

// handle runs one connection's lifecycle end to end: handshake, open,
// admission, simulation, teardown. It owns the connection; the read loop
// it spawns only feeds it.
func (srv *Server) handle(conn net.Conn) {
	w := &wire{conn: conn}
	defer w.close()
	hello, err := w.recv()
	if err != nil {
		return
	}
	if reason := srv.vetHello(hello); reason != "" {
		w.send(message{Type: msgReject, Reason: reason})
		return
	}
	if err := w.send(message{Type: msgWelcome, Workers: srv.cfg.Workers, BudgetBytes: srv.cfg.MemBudgetBytes}); err != nil {
		return
	}
	m, err := w.recv()
	if err != nil {
		return
	}
	if m.Type != msgOpen || m.Open == nil {
		w.send(message{Type: msgError, Reason: fmt.Sprintf("expected open, got %q", m.Type)})
		return
	}
	open := *m.Open
	if open.Stream && open.Warmup > 0 {
		w.send(message{Type: msgError, Reason: "warmup is not supported for stream sessions"})
		return
	}

	wl, err := srv.workload(open.Workload)
	if err != nil {
		w.send(message{Type: msgError, Reason: err.Error()})
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

	if err := w.send(message{Type: msgAdmitted, ChargeBytes: charge, QueueDepth: srv.adm.Stats().QueueDepth}); err != nil {
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
		w.send(message{Type: msgError, Reason: runErr.Error()})
	}
}

// readLoop drains the client's frames: trace chunks feed the simulating
// goroutine, a kill frame or connection loss cancels the session. It exits
// when the connection dies — handle's deferred close guarantees that.
func (srv *Server) readLoop(s *session) {
	for {
		m, err := s.w.recv()
		if err != nil {
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
		s.w.send(message{Type: msgError, Reason: "session killed"})
	}
}

// errAborted marks a session cancelled mid-simulation.
var errAborted = errors.New("lvmd: session aborted")
