// Package orch is the distributed sweep orchestrator: a coordinator
// (Serve) owns a deduped experiment plan and hands its runs out to worker
// processes (Worker.Run) over the length-prefixed JSON protocol of
// internal/wire.
//
// The design goal is the same determinism contract the rest of the
// experiment stack upholds: the coordinator's runner ends up with exactly
// the run outputs an unsharded sweep would compute, bit for bit, no matter
// how many workers join, which runs get stolen or retried, or how much of
// the sweep was restored from the run cache. That holds because outputs
// travel through the runio seam (MarshalRunOutput/UnmarshalRunOutput),
// which round-trips RunOutputs losslessly, and because every table renders
// purely from installed runs in plan order — scheduling only ever shows up
// on the Sink's progress stream.
//
// Dispatch is cost-aware (EstimateCosts footprint, largest-first per
// worker budget), idle workers steal outstanding runs from stragglers
// (first completion wins; later duplicates are discarded by RunKey), and
// failed runs are retried with capped backoff, preferring a different
// worker. Completed runs stream into the run cache as they arrive, so an
// interrupted sweep resumes re-simulating nothing.
package orch

import (
	"encoding/json"

	"lvm/internal/experiments"
	"lvm/internal/wire"
)

// The sweep vocabulary, after the wire handshake.
const (
	msgAssign   wire.Type = "assign"   // coordinator → worker: execute Key
	msgResult   wire.Type = "result"   // worker → coordinator: Key's output or error
	msgShutdown wire.Type = "shutdown" // coordinator → worker: sweep complete
)

// message is the single frame shape of the protocol; which fields are
// meaningful depends on Type.
type message struct {
	Type wire.Type `json:"type"`
	// hello fields: the identity the coordinator vets, mirroring the
	// validation -merge enforces on shard documents, then the worker's
	// name and capacity.
	wire.Hello
	Worker      string `json:"worker,omitempty"`
	Capacity    int    `json:"capacity,omitempty"`
	BudgetBytes uint64 `json:"budget_bytes,omitempty"`
	// reject field.
	Reason string `json:"reason,omitempty"`
	// assign/result fields. Output is the MarshalRunOutput form;
	// HostSeconds rides alongside because the runio doc deliberately
	// excludes it (observational, machine-dependent).
	Key         *experiments.RunKey `json:"key,omitempty"`
	Output      json.RawMessage     `json:"output,omitempty"`
	HostSeconds float64             `json:"host_seconds,omitempty"`
	Error       string              `json:"error,omitempty"`
}

// orchSinkOf returns s's OrchSink extension, or a no-op fallback.
func orchSinkOf(s experiments.Sink) experiments.OrchSink {
	if os, ok := s.(experiments.OrchSink); ok {
		return os
	}
	return nopOrchSink{}
}

type nopOrchSink struct{}

func (nopOrchSink) WorkerConnected(string, string, int)           {}
func (nopOrchSink) WorkerGone(string, error)                      {}
func (nopOrchSink) RunAssigned(experiments.RunKey, string, bool)  {}
func (nopOrchSink) RunRetry(experiments.RunKey, int, int, string) {}
func (nopOrchSink) RunDuplicate(experiments.RunKey, string)       {}
