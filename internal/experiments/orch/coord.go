package orch

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"lvm/internal/experiments"
	"lvm/internal/wire"
)

// Options bounds a coordinator.
type Options struct {
	// Cache, when non-nil, is consulted before dispatching anything (hits
	// install without simulating, exactly like ExecuteRuns) and receives
	// every completed run as it arrives, so an interrupted sweep resumes
	// re-simulating nothing.
	Cache *experiments.RunCache
	// MaxAttempts bounds executions per run, counting worker crashes
	// (0 means 3).
	MaxAttempts int
	// RetryBackoff is the base cooldown before a failed run is
	// redispatched; it doubles per attempt, capped at 8× (0 means 200ms).
	// Crash requeues skip the cooldown — the run was not at fault.
	RetryBackoff time.Duration
}

// ErrRetriesExhausted marks a sweep failure caused by one run failing on
// every allowed attempt; the wrapping error names the RunKey.
var ErrRetriesExhausted = errors.New("orch: run failed on every attempt")

// runState tracks one plan run through dispatch, steals, and retries.
// All fields are guarded by coordinator.mu.
type runState struct {
	key  experiments.RunKey
	cost uint64 // EstimateCosts footprint charge
	// done marks the first accepted completion; later copies are discarded.
	done bool
	// cooling marks a failed run waiting out its retry backoff.
	cooling    bool
	attempts   int
	lastWorker string
	// inFlight lists the workers currently executing a copy of this run
	// (more than one after a steal).
	inFlight []*workerConn
}

// workerConn is one registered worker. All fields are guarded by
// coordinator.mu except name/remote/capacity/budget/w, which are set once
// at registration.
type workerConn struct {
	name     string
	remote   string
	w        *wire.Conn
	capacity int
	budget   uint64
	used     uint64 // summed charges of running
	running  []*runState
	gone     bool
}

type coordinator struct {
	r    *experiments.Runner
	opt  Options
	fp   string
	sink experiments.Sink
	os   experiments.OrchSink

	mu       sync.Mutex
	cond     *sync.Cond  // signals finished; uses mu
	states   []*runState // plan order; guarded by mu
	byKey    map[experiments.RunKey]*runState
	workers  []*workerConn // guarded by mu
	nextName int           // guarded by mu
	// remaining counts runs not yet done; 0 finishes the sweep.
	remaining int  // guarded by mu
	finished  bool // guarded by mu
	err       error
}

// Serve runs a sweep coordinator on ln until every run in p has an
// installed output (or a run exhausts its retries, or the cache fails).
// Workers connect with Worker.Run; their handshake is vetted against the
// runner's config fingerprint exactly like -merge vets shard documents.
// On success the runner holds the complete run matrix — byte-identical to
// an unsharded ExecuteRuns — and the compute phase can proceed locally.
//
// Runs already in the runner or restorable from opt.Cache are installed
// up front; a fully warm plan returns before accepting a single
// connection, dispatching zero simulations.
func Serve(ln net.Listener, r *experiments.Runner, p experiments.Plan, opt Options) error {
	if opt.MaxAttempts <= 0 {
		opt.MaxAttempts = 3
	}
	if opt.RetryBackoff <= 0 {
		opt.RetryBackoff = 200 * time.Millisecond
	}
	fp, err := r.Cfg.Fingerprint()
	if err != nil {
		return err
	}
	costs, err := r.EstimateCosts(p)
	if err != nil {
		return err
	}

	c := &coordinator{
		r: r, opt: opt, fp: fp,
		sink:  r.Sink(),
		os:    orchSinkOf(r.Sink()),
		byKey: make(map[experiments.RunKey]*runState, len(p.Runs)),
	}
	c.cond = sync.NewCond(&c.mu)
	for i, key := range p.Runs {
		st := &runState{key: key, cost: costs[i]}
		if _, ok := r.LookupRun(key); ok {
			st.done = true
		} else if opt.Cache != nil {
			out, hit, err := opt.Cache.Load(key)
			if err != nil {
				return fmt.Errorf("orch: %w", err)
			}
			if hit {
				r.InstallRun(key, out)
				c.sink.RunCached(key)
				st.done = true
			}
		}
		if !st.done {
			c.remaining++
		}
		c.states = append(c.states, st)
		c.byKey[key] = st
	}
	if c.remaining == 0 {
		// Fully warm: nothing to dispatch, no workers needed.
		return nil
	}

	var srv wire.Server
	served := make(chan struct{})
	go func() {
		defer close(served)
		// An accept failure ends only the intake; workers already
		// connected still finish the sweep.
		srv.Serve(ln, c.handle)
	}()

	c.mu.Lock()
	for !c.finished {
		c.cond.Wait()
	}
	err = c.err
	live := append([]*workerConn(nil), c.workers...)
	c.mu.Unlock()

	if err == nil {
		for _, wc := range live {
			// Best-effort: the frame lands before the close, so a healthy
			// worker drains it and exits cleanly.
			wc.w.Send(message{Type: msgShutdown})
		}
	}
	// Close ends every connection, registered or not: a worker that
	// registers after the snapshot above just sees its connection drop.
	srv.Close()
	<-served
	return err
}

// handle runs one connection's lifecycle: handshake, then a read loop
// feeding results in. Install and cache writes happen on this goroutine,
// which the wire.Server waits for, so they are complete before Serve
// returns. The hello is vetted exactly like -merge vets shard documents:
// protocol, schema version, and config fingerprint must all match, or the
// worker is computing a different sweep.
func (c *coordinator) handle(w *wire.Conn) {
	var hello message
	if err := w.ReadHello(wire.NewHello(experiments.RunJSONSchemaVersion, c.fp), &hello); err != nil {
		return
	}
	wc := c.register(hello, w)
	c.os.WorkerConnected(wc.name, wc.remote, wc.capacity)
	if err := w.Send(message{Type: wire.TypeWelcome, Worker: wc.name}); err != nil {
		c.unregister(wc, err)
		return
	}
	c.dispatch()
	for {
		var m message
		if err := w.Recv(&m); err != nil {
			c.unregister(wc, err)
			c.dispatch()
			return
		}
		if m.Type != msgResult || m.Key == nil {
			continue // unknown frames ignored for forward compatibility
		}
		c.onResult(wc, m)
	}
}

func (c *coordinator) register(m message, w *wire.Conn) *workerConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextName++
	wc := &workerConn{
		name:     fmt.Sprintf("w%d", c.nextName),
		remote:   w.RemoteAddr().String(),
		w:        w,
		capacity: max(1, m.Capacity),
		budget:   m.BudgetBytes,
	}
	if m.Worker != "" {
		wc.remote = m.Worker
	}
	if wc.budget == 0 {
		wc.budget = experiments.DefaultMemBudgetBytes
	}
	c.workers = append(c.workers, wc)
	return wc
}

// unregister removes a dead (or cleanly departing) worker and requeues its
// in-flight runs. A run whose last surviving copy was on this worker
// counts a crash attempt and becomes immediately redispatchable.
func (c *coordinator) unregister(wc *workerConn, cause error) {
	c.mu.Lock()
	if wc.gone {
		c.mu.Unlock()
		return
	}
	wc.gone = true
	for i, w := range c.workers {
		if w == wc {
			c.workers = append(c.workers[:i], c.workers[i+1:]...)
			break
		}
	}
	for _, st := range wc.running {
		st.inFlight = removeConn(st.inFlight, wc)
		if !st.done && len(st.inFlight) == 0 {
			c.failLocked(st, wc.name, fmt.Errorf("worker %s disconnected: %v", wc.name, cause), true)
		}
	}
	wc.running = nil
	clean := c.finished && c.err == nil
	c.mu.Unlock()
	if clean {
		cause = nil // expected teardown after a completed sweep
	}
	c.os.WorkerGone(wc.name, cause)
}

// dispatch hands out runs until no worker has both free capacity and an
// eligible run. Sends happen outside the lock; a failed send is left for
// that worker's read loop to observe and requeue.
func (c *coordinator) dispatch() {
	type send struct {
		wc    *workerConn
		key   experiments.RunKey
		steal bool
	}
	var sends []send
	c.mu.Lock()
	for !c.finished {
		progressed := false
		for _, wc := range c.workers {
			if wc.gone || len(wc.running) >= wc.capacity {
				continue
			}
			st, steal := c.pickLocked(wc)
			if st == nil {
				continue
			}
			st.inFlight = append(st.inFlight, wc)
			wc.running = append(wc.running, st)
			wc.used += min(st.cost, wc.budget)
			sends = append(sends, send{wc, st.key, steal})
			progressed = true
		}
		if !progressed {
			break
		}
	}
	c.mu.Unlock()
	for _, s := range sends {
		c.os.RunAssigned(s.key, s.wc.name, s.steal)
		key := s.key
		s.wc.w.Send(message{Type: msgAssign, Key: &key})
	}
}

// pickLocked chooses wc's next run: the costliest pending run that fits
// its remaining memory budget (largest-first, the same LPT ordering
// AssignShards uses), preferring runs that have not already failed on this
// worker. With nothing pending it steals: the least-duplicated, costliest
// outstanding run wc is not already executing. Ties break toward plan
// order. An idle worker admits an over-budget run alone (charge clamped),
// mirroring sched's oversized-task rule.
func (c *coordinator) pickLocked(wc *workerConn) (st *runState, steal bool) {
	free := wc.budget - wc.used
	var best, rerun *runState
	for _, s := range c.states {
		if s.done || s.cooling || len(s.inFlight) > 0 {
			continue
		}
		if min(s.cost, wc.budget) > free {
			continue
		}
		if s.lastWorker == wc.name {
			// Retries prefer a different worker; keep as fallback.
			if rerun == nil || s.cost > rerun.cost {
				rerun = s
			}
			continue
		}
		if best == nil || s.cost > best.cost {
			best = s
		}
	}
	if best == nil {
		best = rerun
	}
	if best != nil {
		return best, false
	}
	for _, s := range c.states {
		if s.done || len(s.inFlight) == 0 {
			continue
		}
		if containsConn(s.inFlight, wc) {
			continue
		}
		if min(s.cost, wc.budget) > free {
			continue
		}
		if best == nil ||
			len(s.inFlight) < len(best.inFlight) ||
			(len(s.inFlight) == len(best.inFlight) && s.cost > best.cost) {
			best = s
		}
	}
	return best, best != nil
}

// onResult accepts one completion frame: the first success for a key wins
// and is installed + cached; later copies are discarded; failures count an
// attempt and cool down for redispatch.
func (c *coordinator) onResult(wc *workerConn, m message) {
	key := *m.Key
	var out *experiments.RunOutput
	var runErr error
	if m.Error != "" {
		runErr = errors.New(m.Error)
	} else if out, runErr = experiments.UnmarshalRunOutput(m.Output); runErr != nil {
		runErr = fmt.Errorf("decoding result from %s: %w", wc.name, runErr)
	}

	c.mu.Lock()
	st := c.byKey[key]
	if st == nil {
		c.mu.Unlock()
		return // a key outside the plan: ignore
	}
	st.inFlight = removeConn(st.inFlight, wc)
	wc.running = removeState(wc.running, st)
	wc.used -= min(st.cost, wc.budget)
	if st.done {
		c.mu.Unlock()
		c.os.RunDuplicate(key, wc.name)
		c.dispatch()
		return
	}
	if runErr != nil {
		c.failLocked(st, wc.name, runErr, false)
		c.mu.Unlock()
		c.sink.RunDone(key, m.HostSeconds, runErr)
		c.dispatch()
		return
	}
	st.done = true
	st.lastWorker = wc.name
	c.remaining--
	last := c.remaining == 0
	c.mu.Unlock()

	out.HostSeconds = m.HostSeconds
	c.r.InstallRun(key, out)
	c.sink.RunDone(key, m.HostSeconds, nil)
	if c.opt.Cache != nil {
		if err := c.opt.Cache.Store(key, out); err != nil {
			c.finish(fmt.Errorf("orch: %w", err))
			return
		}
	}
	if last {
		c.finish(nil)
		return
	}
	c.dispatch()
}

// failLocked records a failed attempt on st. With attempts left the run
// cools down for a capped exponential backoff before redispatch (none for
// crash requeues — the run was not at fault); with the budget exhausted
// and no other copy still in flight, the sweep fails naming the run.
func (c *coordinator) failLocked(st *runState, worker string, cause error, crashed bool) {
	st.attempts++
	st.lastWorker = worker
	if st.attempts >= c.opt.MaxAttempts {
		if len(st.inFlight) == 0 {
			c.finishLocked(fmt.Errorf("orch: run %s: %w (%d attempts, last: %v)", st.key, ErrRetriesExhausted, st.attempts, cause))
		}
		return
	}
	c.os.RunRetry(st.key, st.attempts, c.opt.MaxAttempts, cause.Error())
	if crashed {
		return // immediately redispatchable
	}
	backoff := c.opt.RetryBackoff << (st.attempts - 1)
	backoff = min(backoff, 8*c.opt.RetryBackoff)
	st.cooling = true
	time.AfterFunc(backoff, func() {
		c.mu.Lock()
		st.cooling = false
		fin := c.finished
		c.mu.Unlock()
		if !fin {
			c.dispatch()
		}
	})
}

func (c *coordinator) finishLocked(err error) {
	if c.finished {
		return
	}
	c.finished = true
	c.err = err
	c.cond.Broadcast()
}

func (c *coordinator) finish(err error) {
	c.mu.Lock()
	c.finishLocked(err)
	c.mu.Unlock()
}

func removeConn(s []*workerConn, wc *workerConn) []*workerConn {
	for i, w := range s {
		if w == wc {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func removeState(s []*runState, st *runState) []*runState {
	for i, x := range s {
		if x == st {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func containsConn(s []*workerConn, wc *workerConn) bool {
	for _, w := range s {
		if w == wc {
			return true
		}
	}
	return false
}
