// Command perfbench is the repository benchmark. It measures the three
// paths users meet, end to end, through the public functions of the
// layers:
//
//   - replay: every bench_baseline.json row through NewRunMachine and
//     sim.CPU.Run (the simulator sweep);
//   - serve: closed-loop sessions against an in-process lvmd server on
//     loopback (the translation service);
//   - grow: heap growth and unmap/remap churn through oskernel (the OS map
//     path and the learned index's write side).
//
// Every simulated output is checked: against the committed baselines
// (replay at other seeds than the default: against its first pass).
// With -trace 1 the run is split into an untraced and a traced half; the
// traced half records spans around each layer call and reports per-layer
// metrics, self times and the tracing overhead.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 1 when any
// output mismatched and 2 when the benchmark could not run at all.
//
// Run from the repository root:
//
//	bash _perfbench/run.sh --workload replay --seed 42 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// defaultSeed is the workload seed the committed baselines were made with.
const defaultSeed = 42

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root holding the baselines
	spanDir  string // where traced runs write their span file ("" = none)
}

// env is what a workload run receives: its options, the tracer of the
// current phase and a writer for human-readable progress.
type env struct {
	options
	tr  *tracer
	log io.Writer
}

// phaseEnv returns a copy of e whose tracer records spans iff traced.
func (e *env) phaseEnv(traced bool) *env {
	c := *e
	c.tr = newTracer(traced)
	return &c
}

// report is what a workload run produces.
type report struct {
	attempted, failed int
	// e2e holds the end-to-end metrics of the untraced run (or the
	// untraced half of a traced run).
	e2e map[string]float64
	// layer holds the per-layer metrics of the traced half, the tracing
	// overhead (trace.overhead.*) among them.
	layer map[string]float64
	// samples states how many samples each end-to-end metric is made of.
	samples map[string]int
	// mismatches describes the failed checks (the first few).
	mismatches []string
	spans      *tracer
}

func newReport() *report {
	return &report{
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
		samples: map[string]int{},
	}
}

// fail records one failed operation or check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(*env) (*report, error){
	"replay": runReplay,
	"serve":  runServe,
	"grow":   runGrow,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs one workload and prints its result; it returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: replay, serve or grow")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed (42 checks against the committed baselines)")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = report per-layer metrics from a traced half-run")
	fs.StringVar(&o.root, "root", ".", "repository root (holds bench_baseline*.json)")
	fs.StringVar(&o.spanDir, "spans", "", "directory for the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload replay|serve|grow, -seconds > 0 and -trace 0|1\n")
		return 2
	}
	o.trace = traceFlag == 1

	st := newStamp(o)
	e := &env{options: o, tr: newTracer(false), log: stderr}
	start := time.Now()
	rep, err := fn(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 2
	}
	rep.attempted = max(rep.attempted, 1) // a run that attempted nothing still reports
	rep.e2e["error_rate"] = float64(rep.failed) / float64(rep.attempted)
	for _, m := range rep.mismatches {
		fmt.Fprintf(stderr, "mismatch: %s\n", m)
	}

	metrics := map[string]metricValue{}
	if o.trace {
		if o.spanDir != "" {
			path, err := writeSpanFile(o, st, rep)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 2
			}
			fmt.Fprintf(stdout, "spans: %s\n", path)
		}
		for _, m := range layerMetrics {
			metrics[m.name] = metricValue{rep.layer[m.name], m.unit}
		}
	} else {
		for _, m := range e2eMetrics {
			metrics[m.name] = metricValue{rep.e2e[m.name], m.unit}
		}
	}
	printSummary(stdout, o, st, rep, time.Since(start))

	line, err := json.Marshal(resultLine{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   metrics,
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
