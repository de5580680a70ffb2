package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"lvm/internal/metrics"
	"lvm/internal/oskernel"
)

// runKey names one simulation: a baseline row, a replayed key or a
// served session.
type runKey struct {
	Workload string
	Scheme   oskernel.Scheme
	THP      bool
	Warmup   int
}

func (k runKey) String() string {
	s := fmt.Sprintf("%s/%s thp=%t", k.Workload, k.Scheme, k.THP)
	if k.Warmup > 0 {
		s += fmt.Sprintf(" warmup=%d", k.Warmup)
	}
	return s
}

// counters is a run's metric snapshot with every value kept as the exact
// text of its JSON encoding, so comparisons are bit-exact.
type counters map[string]json.Number

// baselineRow is one run of a committed bench_baseline*.json document.
type baselineRow struct {
	Key  runKey
	Want counters
}

// loadBaseline reads the rows of a committed baseline document, in order.
// Only the simulator's own metrics are kept: the scheme.* statistics come
// from the sweep's characterization pass, which the benchmark does not
// run.
func loadBaseline(path string) ([]baselineRow, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var doc struct {
		Runs []struct {
			Workload string   `json:"workload"`
			Scheme   string   `json:"scheme"`
			THP      bool     `json:"thp"`
			Warmup   int      `json:"warmup"`
			Metrics  counters `json:"metrics"`
		} `json:"runs"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	if len(doc.Runs) == 0 {
		return nil, fmt.Errorf("baseline %s: no runs", path)
	}
	rows := make([]baselineRow, len(doc.Runs))
	for i, r := range doc.Runs {
		want := counters{}
		for k, v := range r.Metrics {
			if !strings.HasPrefix(k, "scheme.") {
				want[k] = v
			}
		}
		rows[i] = baselineRow{
			Key:  runKey{r.Workload, oskernel.Scheme(r.Scheme), r.THP, r.Warmup},
			Want: want,
		}
	}
	return rows, nil
}

// countersOf encodes a metric set the way lvmbench -json and lvmd do.
func countersOf(s metrics.Set) (counters, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	return decodeCounters(b)
}

func decodeCounters(b []byte) (counters, error) {
	var c counters
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("decoding metrics: %w", err)
	}
	return c, nil
}

// servedCounters extracts the metric snapshot from a served result's
// sim.Result document.
func servedCounters(simDoc []byte) (counters, error) {
	var doc struct {
		Metrics json.RawMessage
	}
	if err := json.Unmarshal(simDoc, &doc); err != nil {
		return nil, fmt.Errorf("decoding served result: %w", err)
	}
	return decodeCounters(doc.Metrics)
}

// diffCounters lists every metric whose value differs between want and
// got, or that only one of them has (empty when they are equal).
func diffCounters(want, got counters) []string {
	var diffs []string
	for k, w := range want {
		g, ok := got[k]
		switch {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("%s missing (want %s)", k, w))
		case g != w:
			diffs = append(diffs, fmt.Sprintf("%s = %s, want %s", k, g, w))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s unexpected", k))
		}
	}
	sort.Strings(diffs)
	return diffs
}

// expectations holds the counters the benchmark's outputs are checked
// against: committed baseline rows, or the first observation of a key
// where no baseline applies.
type expectations struct {
	want map[runKey]counters
}

func newExpectations() *expectations { return &expectations{want: map[runKey]counters{}} }

// addBaseline installs the rows of a baseline document.
func (x *expectations) addBaseline(rows []baselineRow) {
	for _, r := range rows {
		x.want[r.Key] = r.Want
	}
}

// check compares got against the expectation for k. With no expectation
// and observe set, got becomes the expectation (later runs of k must
// repeat it); otherwise a missing expectation is a mismatch.
func (x *expectations) check(k runKey, got counters, observe bool) []string {
	want, ok := x.want[k]
	if !ok {
		if observe {
			x.want[k] = got
			return nil
		}
		return []string{"no expected counters"}
	}
	return diffCounters(want, got)
}
