package orch

import (
	"fmt"
	"sync"

	"lvm/internal/experiments"
	"lvm/internal/wire"
)

// A Worker connects to a coordinator, executes the runs it is assigned,
// and streams results back until the coordinator shuts the sweep down.
type Worker struct {
	// Exec simulates one run; typically (*experiments.Runner).ExecuteKey.
	// It is called from one goroutine per in-flight assignment, up to
	// Capacity at once.
	Exec func(experiments.RunKey) (*experiments.RunOutput, error)
	// Fingerprint is the worker config's fingerprint; the coordinator
	// rejects the handshake unless it matches its own.
	Fingerprint string
	// Name is a human-readable identity for progress output (host:pid).
	Name string
	// Capacity is the number of runs this worker executes concurrently
	// (min 1).
	Capacity int
	// BudgetBytes advertises the memory budget the coordinator charges
	// dispatched runs against (0 means experiments.DefaultMemBudgetBytes).
	BudgetBytes uint64
}

// Run dials the coordinator at addr and serves assignments until a clean
// shutdown (nil) or a connection/handshake failure (error). In-flight runs
// are always drained before returning, so a result is never abandoned
// mid-send.
func (wk *Worker) Run(addr string) error {
	// Retrying lets workers start before the coordinator listens.
	w, err := wire.DialRetry(addr, message{
		Type:        wire.TypeHello,
		Hello:       wire.NewHello(experiments.RunJSONSchemaVersion, wk.Fingerprint),
		Worker:      wk.Name,
		Capacity:    wk.Capacity,
		BudgetBytes: wk.BudgetBytes,
	})
	if err != nil {
		return fmt.Errorf("orch: worker: %w", err)
	}
	defer w.Close()

	var wg sync.WaitGroup
	for {
		var m message
		if err := w.Recv(&m); err != nil {
			wg.Wait()
			return fmt.Errorf("orch: worker: connection lost: %w", err)
		}
		switch m.Type {
		case msgAssign:
			if m.Key == nil {
				continue
			}
			key := *m.Key
			wg.Add(1)
			go func() {
				defer wg.Done()
				// A failed send is not handled here: the read loop sees
				// the dead connection and the coordinator requeues.
				w.Send(wk.run(key))
			}()
		case msgShutdown:
			wg.Wait()
			return nil
		}
	}
}

// run executes one assignment and builds its result frame.
func (wk *Worker) run(key experiments.RunKey) message {
	res := message{Type: msgResult, Key: &key}
	out, err := wk.Exec(key)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	b, err := experiments.MarshalRunOutput(out)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Output = b
	res.HostSeconds = out.HostSeconds
	return res
}
