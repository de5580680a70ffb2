package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one run key or session share Group; Parent is the
// index of the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Group  string `json:"group"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Ops is the number of layer operations the span covers (accesses,
	// calls, sessions), so per-operation costs are measured where the
	// work happens.
	Ops int `json:"ops,omitempty"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name, group string, parent int) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Group: group, ID: id, Parent: parent, Start: now, End: -1})
	return id
}

// end closes span id, covering ops operations.
func (t *tracer) end(id, ops int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Ops = ops
}

// spanStats aggregates the closed spans of one name.
type spanStats struct {
	Count   int   `json:"count"`
	Ops     int   `json:"ops"`
	TotalNS int64 `json:"total_ns"`
	// SelfNS is TotalNS minus the part of each span's interval that its
	// child spans cover.
	SelfNS int64 `json:"self_ns"`
}

// summary aggregates the spans by name, deriving self times.
func (t *tracer) summary() map[string]spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := map[string]spanStats{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		st := out[s.Name]
		st.Count++
		st.Ops += s.Ops
		st.TotalNS += dur
		st.SelfNS += dur - t.coveredLocked(s, children[s.ID])
		out[s.Name] = st
	}
	return out
}

// coveredLocked returns how much of s's interval the union of its
// children's intervals covers (children may overlap, e.g. a stream
// sender running beside the wait for the result).
func (t *tracer) coveredLocked(s span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := t.spans[k]
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	curHi = -1
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return covered
}

// perOp returns the summed duration of the named spans divided by the
// operations they cover, in units of scale per second (1e9 = ns), or 0
// when no such span closed.
func (t *tracer) perOp(name string, scale float64) float64 {
	st := t.summary()[name]
	if st.Ops == 0 {
		return 0
	}
	return float64(st.TotalNS) / 1e9 * scale / float64(st.Ops)
}

// seconds returns the summed duration of the named spans.
func (t *tracer) seconds(name string) float64 {
	return float64(t.summary()[name].TotalNS) / 1e9
}

// count returns the number of closed spans.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// spanFile is the document a traced run writes.
type spanFile struct {
	Stamp   stamp                `json:"stamp"`
	Metrics map[string]float64   `json:"layer_metrics"`
	Moves   map[string]string    `json:"layer_metric_moves"`
	Summary map[string]spanStats `json:"summary"`
	Spans   []span               `json:"spans"`
}

// writeSpanFile writes the traced half's spans, self-time summary and
// per-layer metrics to o.spanDir and returns the file's path.
func writeSpanFile(o options, st stamp, rep *report) (string, error) {
	if err := os.MkdirAll(o.spanDir, 0o755); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	doc := spanFile{
		Stamp:   st,
		Metrics: rep.layer,
		Moves:   map[string]string{},
		Summary: rep.spans.summary(),
	}
	for _, m := range layerMetrics {
		doc.Moves[m.name] = m.moves
	}
	rep.spans.mu.Lock()
	doc.Spans = rep.spans.spans
	b, err := json.Marshal(doc)
	rep.spans.mu.Unlock()
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	path := filepath.Join(o.spanDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	return path, nil
}
