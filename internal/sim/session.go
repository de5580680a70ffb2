package sim

import (
	"lvm/internal/metrics"
	"lvm/internal/workload"
)

// Session is a resumable run: the same translation loop as Run/RunFrom,
// paused and resumed at arbitrary access positions. A server drives one
// Session per tenant in bounded Step chunks so thousands of concurrent
// traces can interleave on a worker pool, cutting metric windows between
// steps — and because Step replays exactly the chunked batch pipeline the
// one-shot loop uses, a Session's Result and every interval delta are
// bit-identical to Run/RunIntervals over the same trace (test-enforced).
//
// A Session is single-goroutine: the caller serializes Step/Extend/Finish.
type Session struct {
	c      *CPU
	asid   uint16
	trace  []workload.Access
	instrs int
	res    Result
	base   metrics.Set
	delta  bool
	start  int
	pos    int
	// lats, when non-nil, receives access i's end-to-end latency at
	// lats[i-start]; it must have length len(trace)-start.
	lats []float64
	// extra is cycles charged to the next access Step runs, right after
	// its retire component, then cleared (RunTail's per-access OS work).
	extra    float64
	finished bool
	stream   bool
}

// NewSession starts a resumable run over the workload's full trace.
func (c *CPU) NewSession(asid uint16, w *workload.Workload) *Session {
	return c.NewSessionFrom(asid, w, 0)
}

// NewSessionFrom starts a resumable run over the trace suffix beginning at
// access index start (the RunFrom measured region): component counters are
// reported as deltas over the session. Pair it with FastForward to warm
// state on the prefix first.
func (c *CPU) NewSessionFrom(asid uint16, w *workload.Workload, start int) *Session {
	if start < 0 {
		start = 0
	}
	if start > len(w.Accesses) {
		start = len(w.Accesses)
	}
	s := &Session{
		c:      c,
		asid:   asid,
		trace:  w.Accesses,
		instrs: w.InstrsPerAccess,
		res:    Result{Workload: w.Name, Scheme: c.walker.Name()},
		delta:  start > 0,
		start:  start,
		pos:    start,
	}
	if s.delta {
		s.base = c.Snapshot()
	}
	return s
}

// NewStreamSession starts a resumable run over a trace that arrives
// incrementally via Extend — the serving path, where a client streams
// access chunks over the wire. instrs is the per-access instruction count
// (workload.InstrsPerAccess for trace-file replays).
func (c *CPU) NewStreamSession(asid uint16, name string, instrs int) *Session {
	if instrs < 1 {
		instrs = 1
	}
	return &Session{
		c:      c,
		asid:   asid,
		instrs: instrs,
		res:    Result{Workload: name, Scheme: c.walker.Name()},
		stream: true,
	}
}

// Extend appends streamed accesses to the session's trace. Only stream
// sessions accept input; Extend after Finish is ignored.
func (s *Session) Extend(accesses []workload.Access) {
	if !s.stream || s.finished {
		return
	}
	s.trace = append(s.trace, accesses...)
}

// Pos returns the next access index to simulate.
func (s *Session) Pos() int { return s.pos }

// Len returns the trace length seen so far (stream sessions grow it).
func (s *Session) Len() int { return len(s.trace) }

// Remaining returns the number of accesses available to Step.
func (s *Session) Remaining() int { return len(s.trace) - s.pos }

// Done reports that every available access has been simulated. A stream
// session may become un-done again when Extend delivers more trace.
func (s *Session) Done() bool { return s.pos >= len(s.trace) }

// Step advances the session by up to n accesses through the translation
// pipeline and returns the number consumed. Chunking is a pure performance
// knob: any Step sequence over the same trace produces bit-identical
// results, because the batch pipeline already guarantees it per chunk and
// Step never reorders or splits an access.
func (s *Session) Step(n int) int {
	if s.finished || n <= 0 {
		return 0
	}
	c := s.c
	tr := s.trace
	limit := s.pos + n
	if limit > len(tr) {
		limit = len(tr)
	}
	consumed := limit - s.pos
	if consumed <= 0 {
		return 0
	}
	batch := c.batchSize()
	for s.pos < limit {
		end := min(s.pos+batch, limit)
		var lats []float64
		if s.lats != nil {
			lats = s.lats[s.pos-s.start : end-s.start]
		}
		c.translateChunk(s.asid, tr[s.pos:end:end], s.instrs, s.extra, &s.res, lats)
		s.extra = 0
		s.pos = end
	}
	return consumed
}

// Finish seals the session and derives the Result from the component
// snapshot, exactly as the one-shot run loop does. Idempotent; Step after
// Finish is a no-op.
func (s *Session) Finish() Result {
	if !s.finished {
		s.c.finish(&s.res, s.base, s.delta)
		s.finished = true
	}
	return s.res
}
