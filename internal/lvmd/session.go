package lvmd

import (
	"encoding/json"
	"fmt"

	"lvm/internal/sim"
	"lvm/internal/workload"
)

// maxStepChunk bounds one Step between cancellation checks. It must never
// influence results — sim.Session guarantees chunking is invisible — so it
// is purely a kill/drop latency bound.
const maxStepChunk = 1 << 16

// runSession owns one tenant's simulation from machine construction to the
// result frame. The machine comes from experiments.Config.NewRunMachine
// and the trace is driven through sim.Session in interval-bounded Step
// chunks, so everything streamed back — window deltas and the sealed
// result — is bit-identical to a standalone run of the same key; the only
// thing this loop adds is *where* the cancellation points and frame sends
// fall between chunks.
//
// A nil return means the result frame was sent (or at least attempted); a
// non-nil return is turned into an error frame by the caller. errAborted
// is returned for cancelled sessions — handle's sendAborted has already
// owed killed clients their frame by the time it is checked.
func (srv *Server) runSession(s *session, wl *workload.Workload, open OpenRequest) error {
	// The machine is private to this session — its own phys.Memory, tables,
	// and TLBs — so end-of-life is simply dropping the reference. An explicit
	// sys.Close() here would walk every mapped page back into a buddy
	// allocator that dies with it (measured at ~40% of served CPU on
	// TLB-hostile tenants).
	_, _, cpu, err := srv.cfg.Exp.NewRunMachine(wl, open.Scheme, open.THP)
	if err != nil {
		return fmt.Errorf("launch: %w", err)
	}

	var sess *sim.Session
	switch {
	case open.Stream:
		sess = cpu.NewStreamSession(1, wl.Name, wl.InstrsPerAccess)
	case open.Warmup > 0:
		n := cpu.FastForward(1, wl, open.Warmup)
		sess = cpu.NewSessionFrom(1, wl, n)
	default:
		sess = cpu.NewSession(1, wl)
	}
	every := open.Every
	if every <= 0 {
		every = srv.cfg.DefaultEvery
	}

	origin := sess.Pos()
	winStart := origin
	prev := cpu.Snapshot()
	cut := func() error {
		cur := cpu.Snapshot()
		mb, err := json.Marshal(cur.Delta(prev))
		if err != nil {
			return fmt.Errorf("encoding interval: %w", err)
		}
		err = s.w.Send(message{Type: msgInterval, Interval: &IntervalDoc{
			Start: winStart, End: sess.Pos(), Metrics: mb,
		}})
		prev = cur
		winStart = sess.Pos()
		return err
	}

	traceDone := !open.Stream
	for {
		select {
		case <-s.cancel:
			srv.sendAborted(s)
			return errAborted
		default:
		}
		if sess.Done() {
			if traceDone {
				break
			}
			// Streamed trace drained: wait for the next chunk (or the end
			// of the trace, or cancellation).
			select {
			case ch := <-s.traceCh:
				sess.Extend(ch.accesses)
				if ch.done {
					traceDone = true
				}
			case <-s.cancel:
				srv.sendAborted(s)
				return errAborted
			}
			continue
		}
		// Chunking is a pure performance knob (sim.Session's contract), so
		// bounding it costs nothing and guarantees cancellation points even
		// for sessions running a single whole-trace window.
		chunk := sess.Remaining()
		if chunk > maxStepChunk {
			chunk = maxStepChunk
		}
		if every > 0 {
			if next := every - (sess.Pos()-origin)%every; next < chunk {
				chunk = next
			}
		}
		sess.Step(chunk)
		if every > 0 && (sess.Pos()-origin)%every == 0 && sess.Pos() > winStart {
			if err := cut(); err != nil {
				return err
			}
		}
	}
	// Final partial window, exactly like RunIntervals' trailing cut.
	if sess.Pos() > winStart {
		if err := cut(); err != nil {
			return err
		}
	}

	res := sess.Finish()
	rb, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	return s.w.Send(message{Type: msgResult, Result: &ResultDoc{
		Workload:     res.Workload,
		Scheme:       res.Scheme,
		Accesses:     res.Accesses,
		Instructions: res.Instructions,
		Cycles:       res.Cycles,
		Sim:          rb,
	}})
}
