package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkDoc is the part of BENCHMARK.json the benchmark must honour.
type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchmarkDocMatches keeps BENCHMARK.json and the metric tables in
// step: the same workloads, and the same metrics in the same order with
// the same units and directions.
func TestBenchmarkDocMatches(t *testing.T) {
	doc := loadBenchmarkDoc(t)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the command", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the command %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, command %s %s %s", kind, i, g, m.name, m.unit, m.better)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, e2eMetrics)
	check("per_layer", doc.PerLayer, layerMetrics)
}

// TestSmoke runs each workload briefly, untraced and traced (replay on a
// root whose baseline is cut to its first rows), and checks that every
// metric BENCHMARK.json names is printed with its unit, that the summary
// names every end-to-end metric under its documented name, and that the
// layers each workload calls read non-zero.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	doc := loadBenchmarkDoc(t)
	roots := map[string]string{"replay": writeRoot(t, "bench_baseline.json", 3, nil)}
	called := map[string][]string{
		"replay": {"sim.ns_per_access.radix", "sim.fastforward_ns_per_access", "mmu.lookup_ns.lvm", "mmu.walk_ns.ecpt",
			"tlb.lookup_ns", "cache.access_ns", "dram.access_ns", "sim.accesses", "sim.walks", "dram.accesses",
			"workload.build_s", "phys.new_s", "oskernel.launch_s.lvm", "experiments.new_run_machine_s", "trace.spans"},
		"serve": {"lvmd.dial_s", "lvmd.admit_s", "lvmd.run_s", "lvmd.stream_send_s", "workload.build_s", "trace.spans"},
		"grow": {"oskernel.lookup_miss_us.lvm", "oskernel.map_us.radix", "oskernel.unmap_us.lvm", "oskernel.remap_us.radix",
			"core.walk_ns", "core.inserts", "core.miss_pte_accesses", "experiments.new_run_machine_s", "trace.spans"},
	}
	for _, w := range doc.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				root := roots[w.Name]
				if root == "" {
					root = ".."
				}
				code, out, res := runCommand(t, "-workload", w.Name, "-seconds", "0.01", "-trace", trace, "-root", root)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result correct=%t attempted=%d failed=%d\n%s", code, res.Correct, res.Attempted, res.Failed, out)
				}
				want := doc.EndToEnd
				if trace == "1" {
					want = doc.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					case trace == "0" && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if trace == "1" {
					for _, name := range called[w.Name] {
						if res.Metrics[name].Value <= 0 {
							t.Errorf("layer metric %s = %v, want > 0", name, res.Metrics[name].Value)
						}
					}
				}
				u := workloadUnits[w.Name]
				for _, name := range []string{"setup_s", u.throughput, u.latency, u.tail, "peak_rss_bytes", "error_rate"} {
					if !strings.Contains(out, " "+name+" ") {
						t.Errorf("summary does not name %s:\n%s", name, out)
					}
				}
			})
		}
	}
}
