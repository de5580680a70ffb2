package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRoot writes a repository root holding only baseline documents: the
// named file cut to its first n rows (all rows if n <= 0), the others
// copied whole. edit, when non-nil, may change the kept rows.
func writeRoot(t *testing.T, cut string, n int, edit func(rows []map[string]any)) string {
	t.Helper()
	dir := t.TempDir()
	for _, f := range []string{"bench_baseline.json", "bench_baseline_warmup.json"} {
		b, err := os.ReadFile(filepath.Join("..", f))
		if err != nil {
			t.Fatal(err)
		}
		if f == cut {
			var doc map[string]any
			dec := json.NewDecoder(bytes.NewReader(b))
			dec.UseNumber()
			if err := dec.Decode(&doc); err != nil {
				t.Fatal(err)
			}
			raw := doc["runs"].([]any)
			if n > 0 {
				raw = raw[:n]
			}
			rows := make([]map[string]any, len(raw))
			for i, r := range raw {
				rows[i] = r.(map[string]any)
			}
			if edit != nil {
				edit(rows)
			}
			doc["runs"] = rows
			if b, err = json.Marshal(doc); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runCommand runs the benchmark in process and returns its exit code, its
// standard output and its decoded result line.
func runCommand(t *testing.T, args ...string) (int, string, resultLine) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q is not a result: %v (stderr: %s)", lines[len(lines)-1], err, stderr.String())
	}
	return code, stdout.String(), res
}

// TestPerturbedRowFails replays baseline rows whose expected counters
// were changed in the last digit: the check must catch it, the result
// must say so and the command must exit non-zero.
func TestPerturbedRowFails(t *testing.T) {
	for _, metric := range []string{"run.cycles", "walk.walks"} {
		t.Run(metric, func(t *testing.T) {
			root := writeRoot(t, "bench_baseline.json", 2, func(rows []map[string]any) {
				m := rows[1]["metrics"].(map[string]any)
				v := m[metric].(json.Number).String()
				last := v[len(v)-1]
				m[metric] = json.Number(v[:len(v)-1] + string('0'+(last-'0'+1)%10))
			})
			code, _, res := runCommand(t, "-workload", "replay", "-seconds", "0.01", "-root", root)
			if code != 1 || res.Correct || res.Failed != 1 || res.Attempted != 2 {
				t.Fatalf("perturbed %s: exit %d, result %+v; want exit 1, 1 of 2 failed", metric, code, res)
			}
		})
	}
}

// TestUnperturbedRowsPass is the control: the same rows, unchanged, pass.
func TestUnperturbedRowsPass(t *testing.T) {
	root := writeRoot(t, "bench_baseline.json", 2, nil)
	code, _, res := runCommand(t, "-workload", "replay", "-seconds", "0.01", "-root", root)
	if code != 0 || !res.Correct || res.Failed != 0 {
		t.Fatalf("exit %d, result %+v; want a correct result", code, res)
	}
}

func TestDiffCounters(t *testing.T) {
	want := counters{"a": "1", "b": "2.5"}
	if d := diffCounters(want, counters{"a": "1", "b": "2.5"}); len(d) != 0 {
		t.Fatalf("equal counters differ: %v", d)
	}
	for _, got := range []counters{
		{"a": "1", "b": "2.50000001"},
		{"a": "1"},
		{"a": "1", "b": "2.5", "c": "0"},
	} {
		if d := diffCounters(want, got); len(d) != 1 {
			t.Errorf("diff(%v, %v) = %v, want one difference", want, got, d)
		}
	}
}
