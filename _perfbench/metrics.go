package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"lvm/internal/oskernel"
)

// metricDef names one metric of the result line.
type metricDef struct {
	name, unit, better string
	// moves names the end-to-end metric (and workload) a per-layer metric
	// should move.
	moves string
}

// e2eMetrics are printed by every untraced run. The names are shared by
// the three workloads, each of which fills them from its own unit of
// work (see workloadUnits); a metric that would read 0 on some workload
// cannot be compared against a parent's median, so none is
// workload-specific.
var e2eMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "throughput_per_s", unit: "1/s", better: "higher"},
	{name: "latency_s", unit: "s", better: "lower"},
	{name: "latency_tail_s", unit: "s", better: "lower"},
	{name: "peak_rss_bytes", unit: "bytes", better: "lower"},
}

// workloadUnit says what the shared end-to-end names mean on a workload,
// under the names the metrics are known by in the repository's docs.
type workloadUnit struct {
	throughput, latency, tail string  // alias names
	latUnit                   string  // unit the latencies print in
	latScale                  float64 // seconds → latUnit
}

var workloadUnits = map[string]workloadUnit{
	// replay: simulated accesses per host second of the Run calls; the
	// time to replay every baseline row once (NewRunMachine + Run) and
	// the slowest row's, which bounds a parallel sweep.
	"replay": {"accesses_per_s", "replay_all_rows_s", "slowest_row_s", "s", 1},
	// serve: simulated accesses per host second of the timed phase; Dial
	// to result of one session.
	"serve": {"accesses_per_s", "session_p50_s", "session_p90_s", "s", 1},
	// grow: lookups, maps, unmaps and remaps per host second; the latency
	// of one such operation.
	"grow": {"os_ops_per_s", "os_op_p50_us", "os_op_p99_us", "us", 1e6},
}

// benchSchemes are every translation scheme, in oskernel order.
var benchSchemes = oskernel.AllSchemes()

// growSchemes are the schemes the grow workload runs.
var growSchemes = []oskernel.Scheme{oskernel.SchemeLVM, oskernel.SchemeRadix}

// layerMetrics are printed by every traced run. A layer the workload does
// not call reads 0.
var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []metricDef {
	const (
		replayTput = "throughput_per_s (accesses_per_s) on replay, partly on serve; none on grow"
		setup      = "setup_s on replay and grow; latency_s and throughput_per_s on serve"
		grow       = "throughput_per_s (os_ops_per_s) and latency_tail_s (os_op_p99_us) on grow only"
		serve      = "latency_s and latency_tail_s (session_p50_s, session_p90_s) on serve only"
	)
	var ms []metricDef
	add := func(name, unit, better, moves string) {
		ms = append(ms, metricDef{name: name, unit: unit, better: better, moves: moves})
	}
	for _, s := range benchSchemes {
		add("sim.ns_per_access."+string(s), "ns", "lower", replayTput)
	}
	add("sim.fastforward_ns_per_access", "ns", "lower", replayTput)
	for _, s := range benchSchemes {
		add("mmu.lookup_ns."+string(s), "ns", "lower", replayTput)
		add("mmu.walk_ns."+string(s), "ns", "lower", replayTput)
	}
	add("tlb.lookup_ns", "ns", "lower", replayTput)
	add("cache.access_ns", "ns", "lower", replayTput)
	add("dram.access_ns", "ns", "lower", replayTput)
	add("sim.accesses", "count", "higher", replayTput)
	add("sim.walks", "count", "lower", replayTput)
	add("dram.accesses", "count", "lower", replayTput)

	add("workload.build_s", "s", "lower", setup)
	add("phys.new_s", "s", "lower", setup)
	for _, s := range benchSchemes {
		add("oskernel.launch_s."+string(s), "s", "lower", setup)
	}
	add("experiments.new_run_machine_s", "s", "lower", setup)

	for _, s := range growSchemes {
		for _, op := range []string{"lookup_miss", "map", "unmap", "remap"} {
			add("oskernel."+op+"_us."+string(s), "us", "lower", grow)
		}
	}
	add("core.walk_ns", "ns", "lower", grow)
	for _, c := range []string{"retrains", "rebuilds", "inserts", "search_overflows"} {
		add("core."+c, "count", "lower", grow)
	}
	add("core.miss_pte_accesses", "count", "lower", grow)

	add("lvmd.dial_s", "s", "lower", serve)
	add("lvmd.admit_s", "s", "lower", serve)
	add("lvmd.run_s", "s", "lower", serve)
	add("lvmd.stream_send_s", "s", "lower", serve)
	add("lvmd.queue_depth_max", "count", "lower", serve)

	const none = "none: tracing overhead of the traced half"
	add("trace.spans", "count", "lower", none)
	for _, m := range e2eMetrics {
		add("trace.overhead."+m.name, m.unit, "lower", none) // how much worse the traced half reads
	}
	return ms
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// resetPeakRSS restarts the kernel's peak resident set count (VmHWM) at
// the current resident set, so the next peakRSSBytes covers only what ran
// in between. Where the kernel refuses, VmHWM keeps the process's peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSBytes reads the process's peak resident set (VmHWM).
func peakRSSBytes() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024
		}
	}
	return 0
}

// stamp identifies the host and sources a result came from, so numbers
// from different hosts or trees are never compared.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the git revision the binary was built from ("unknown"
	// outside a git checkout), with "+modified" when the tree had
	// uncommitted changes.
	Commit   string  `json:"commit"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
}

func newStamp(o options) stamp {
	return stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     buildCommit(),
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
	}
}

// buildCommit reads the revision the go command stamped into the binary.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if modified {
		rev += "+modified"
	}
	return rev
}

// printSummary writes the human-readable lines that precede the result
// line: the stamp, every end-to-end metric under its documented name with
// its unit and sample count, and for traced runs the overhead and the
// busiest spans by self time.
func printSummary(w io.Writer, o options, st stamp, rep *report, wall time.Duration) {
	fmt.Fprintf(w, "stamp: nproc=%d gomaxprocs=%d go=%s commit=%s workload=%s seed=%d seconds=%g trace=%t\n",
		st.NProc, st.GOMAXPROCS, st.GoVersion, st.Commit, o.workload, o.seed, o.seconds, o.trace)
	u := workloadUnits[o.workload]
	line := func(name string, v float64, unit string, n int) {
		if n > 0 {
			fmt.Fprintf(w, "  %-28s %16.6g %-6s (n=%d)\n", name, v, unit, n)
		} else {
			fmt.Fprintf(w, "  %-28s %16.6g %s\n", name, v, unit)
		}
	}
	fmt.Fprintf(w, "end-to-end (untraced%s):\n", map[bool]string{true: " half", false: ""}[o.trace])
	line("setup_s", rep.e2e["setup_s"], "s", rep.samples["setup_s"])
	line(u.throughput, rep.e2e["throughput_per_s"], "1/s", rep.samples["throughput_per_s"])
	line(u.latency, rep.e2e["latency_s"]*u.latScale, u.latUnit, rep.samples["latency"])
	line(u.tail, rep.e2e["latency_tail_s"]*u.latScale, u.latUnit, rep.samples["latency"])
	line("peak_rss_bytes", rep.e2e["peak_rss_bytes"], "bytes", rep.samples["peak_rss_bytes"])
	line("error_rate", rep.e2e["error_rate"], "1", rep.attempted)
	if o.trace {
		fmt.Fprintf(w, "tracing overhead (how much worse the traced half reads than the untraced half):\n")
		for _, m := range e2eMetrics {
			line(m.name, rep.layer["trace.overhead."+m.name], m.unit, 0)
		}
		if rep.spans != nil {
			fmt.Fprintf(w, "self time by span (traced half):\n")
			sum := rep.spans.summary()
			names := make([]string, 0, len(sum))
			for n := range sum {
				names = append(names, n)
			}
			sort.Slice(names, func(i, j int) bool { return sum[names[i]].SelfNS > sum[names[j]].SelfNS })
			for _, n := range names[:min(len(names), 12)] {
				s := sum[n]
				fmt.Fprintf(w, "  %-36s self %9.3fs total %9.3fs spans %6d\n", n, float64(s.SelfNS)/1e9, float64(s.TotalNS)/1e9, s.Count)
			}
		}
	}
	fmt.Fprintf(w, "wall: %.3fs attempted=%d failed=%d\n", wall.Seconds(), rep.attempted, rep.failed)
}
