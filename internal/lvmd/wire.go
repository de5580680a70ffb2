// Package lvmd is the simulation-as-a-service daemon: clients open
// access-trace sessions over a length-prefixed JSON wire protocol, each
// session simulates on its own per-tenant machine (physical memory, OS
// kernel, CPU) driven through the batched translation pipeline, and live
// per-tenant metric windows stream back as the trace advances.
//
// The serving contract is the same determinism bar the experiment stack
// upholds: a served session's interval deltas and final result are
// bit-identical to a standalone sim run of the same configuration
// (test-enforced), because tenant machines are built through the
// experiments.Config.NewRunMachine seam and driven by sim.Session, whose
// chunking is a pure performance knob. Concurrency decides only *when* a
// tenant simulates — admission is sched.Admission over the sweep's
// footprint cost formula — never what it computes.
package lvmd

import (
	"encoding/json"

	"lvm/internal/oskernel"
	"lvm/internal/wire"
)

// StreamSchemaVersion versions the interval/result stream documents. It is
// vetted in the handshake alongside the config fingerprint so a client
// never misreads windows produced under a different schema.
const StreamSchemaVersion = 1

// The session vocabulary, after the wire handshake.
const (
	msgOpen     wire.Type = "open"     // client → daemon: start a session
	msgAdmitted wire.Type = "admitted" // daemon → client: session past admission
	msgTrace    wire.Type = "trace"    // client → daemon: streamed access chunk
	msgInterval wire.Type = "interval" // daemon → client: one metric window
	msgResult   wire.Type = "result"   // daemon → client: final result, session over
	msgError    wire.Type = "error"    // daemon → client: session failed
	msgKill     wire.Type = "kill"     // client → daemon: abort the session
)

// OpenRequest configures one session. With Stream false the daemon replays
// the named workload's own trace; with Stream true the client delivers the
// trace in msgTrace chunks (the workload still names the address space the
// tenant is launched with — a trace is meaningless without the mappings it
// references).
type OpenRequest struct {
	// Workload names the workload whose address space (and, when Stream is
	// false, trace) the tenant runs.
	Workload string          `json:"workload"`
	Scheme   oskernel.Scheme `json:"scheme"`
	THP      bool            `json:"thp,omitempty"`
	// Warmup fast-forwards the first Warmup accesses through functional
	// state before the measured session begins, exactly like the sweep's
	// warmup runs. Rejected for stream sessions.
	Warmup int `json:"warmup,omitempty"`
	// Every is the interval window in accesses (0 uses the daemon's
	// default; windows are cut relative to the measured region's start).
	Every int `json:"every,omitempty"`
	// Stream marks a client-fed trace session.
	Stream bool `json:"stream,omitempty"`
}

// WireAccess is one streamed trace access.
type WireAccess struct {
	VA uint64 `json:"va"`
	W  bool   `json:"w,omitempty"`
}

// IntervalDoc is one streamed metric window: the component-counter deltas
// that accrued over the half-open access range [Start, End), serialized
// with the deterministic metrics.Set encoding — the bytes equal what a
// standalone sim.RunIntervals window marshals to.
type IntervalDoc struct {
	Start   int             `json:"start"`
	End     int             `json:"end"`
	Metrics json.RawMessage `json:"metrics"`
}

// ResultDoc is the session's sealed outcome. Sim holds the full sim.Result
// document (scalar fields plus the final metrics snapshot); the scalar
// mirrors exist so throughput harnesses need not parse it.
type ResultDoc struct {
	Workload     string          `json:"workload"`
	Scheme       string          `json:"scheme"`
	Accesses     uint64          `json:"accesses"`
	Instructions uint64          `json:"instructions"`
	Cycles       float64         `json:"cycles"`
	Sim          json.RawMessage `json:"sim"`
}

// message is the single frame shape of the protocol; which fields are
// meaningful depends on Type.
type message struct {
	Type wire.Type `json:"type"`
	// hello fields: the identity the daemon vets.
	wire.Hello
	// welcome fields: the daemon's capacity advertisement.
	Workers     int    `json:"workers,omitempty"`
	BudgetBytes uint64 `json:"budget_bytes,omitempty"`
	// reject/error field.
	Reason string `json:"reason,omitempty"`
	// open field.
	Open *OpenRequest `json:"open,omitempty"`
	// admitted fields: the admission charge and the queue depth observed
	// when this session cleared the semaphore.
	ChargeBytes uint64 `json:"charge_bytes,omitempty"`
	QueueDepth  int    `json:"queue_depth,omitempty"`
	// trace fields; Done marks the end of a streamed trace.
	Accesses []WireAccess `json:"accesses,omitempty"`
	Done     bool         `json:"done,omitempty"`
	// interval / result payloads.
	Interval *IntervalDoc `json:"interval,omitempty"`
	Result   *ResultDoc   `json:"result,omitempty"`
}
