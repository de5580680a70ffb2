// Command lvmload drives a running lvmd daemon with N concurrent tenant
// sessions and reports serving throughput: aggregate translations/sec,
// p50/p99 session latency, and the deepest admission queue any session
// saw. Sessions round-robin over the requested schemes and workloads, one
// connection each, exactly as independent tenants would.
//
// Usage (against a quick-config daemon):
//
//	lvmload -addr 127.0.0.1:7087 -quick -sessions 64 -json bench_lvmd.json
//
// All timing is host wall-clock (internal/wallclock) and therefore
// machine-dependent; cmd/lvmdgate applies a host tolerance factor when
// comparing reports. Simulated results remain bit-identical to standalone
// runs regardless of load — only the timing varies.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"lvm/internal/lvmd"
	"lvm/internal/oskernel"
	"lvm/internal/wallclock"
)

// reportSchemaVersion stamps the JSON report so cmd/lvmdgate refuses to
// compare documents produced by incompatible harness versions.
const reportSchemaVersion = 1

// report is the JSON document written by -json (and committed as
// bench_lvmd.json by the EXPERIMENTS.md refresh workflow).
type report struct {
	SchemaVersion int      `json:"schema_version"`
	Quick         bool     `json:"quick"`
	Sessions      int      `json:"sessions"`
	Schemes       []string `json:"schemes"`
	Workloads     []string `json:"workloads"`
	Every         int      `json:"every"`
	Translations  uint64   `json:"translations"`
	WallSeconds   float64  `json:"wall_seconds"`
	TPS           float64  `json:"translations_per_sec"`
	P50Seconds    float64  `json:"p50_session_seconds"`
	P99Seconds    float64  `json:"p99_session_seconds"`
	MaxQueueDepth int      `json:"max_queue_depth"`
}

type sessionOutcome struct {
	accesses uint64
	seconds  float64
	queue    int
	err      error
}

func main() {
	addrFlag := flag.String("addr", "127.0.0.1:7087", "lvmd daemon address")
	sessions := flag.Int("sessions", 64, "concurrent tenant sessions to drive")
	schemesFlag := flag.String("schemes", "lvm,radix", "comma-separated translation schemes to round-robin over")
	workloadsFlag := flag.String("workloads", "", "comma-separated workloads to round-robin over (default: the config's workload roster)")
	quick := flag.Bool("quick", false, "use the quick-scale config (must match the daemon)")
	every := flag.Int("every", 0, "per-session interval window in accesses (0 = daemon default)")
	thp := flag.Bool("thp", false, "request transparent huge pages for every tenant")
	jsonPath := flag.String("json", "", "write the report as JSON to this path")
	flag.Parse()
	if *sessions < 1 {
		fmt.Fprintln(os.Stderr, "lvmload: -sessions must be >= 1")
		os.Exit(2)
	}

	cfg := lvmd.Default()
	if *quick {
		cfg = lvmd.Quick()
	}
	schemes := splitList(*schemesFlag)
	workloads := splitList(*workloadsFlag)
	if len(workloads) == 0 {
		workloads = append(workloads, cfg.Exp.Workloads...)
	}
	if len(schemes) == 0 || len(workloads) == 0 {
		fmt.Fprintln(os.Stderr, "lvmload: need at least one scheme and one workload")
		os.Exit(2)
	}

	outcomes := make([]sessionOutcome, *sessions)
	var wg sync.WaitGroup
	sw := wallclock.Start()
	for i := 0; i < *sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outcomes[i] = drive(*addrFlag, cfg, lvmd.OpenRequest{
				Workload: workloads[(i/len(schemes))%len(workloads)],
				Scheme:   oskernel.Scheme(schemes[i%len(schemes)]),
				THP:      *thp,
				Every:    *every,
			})
		}(i)
	}
	wg.Wait()
	wall := sw.Seconds()

	var total uint64
	var failed int
	lat := make([]float64, 0, *sessions)
	maxQueue := 0
	for i, o := range outcomes {
		if o.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "lvmload: session %d: %v\n", i, o.err)
			continue
		}
		total += o.accesses
		lat = append(lat, o.seconds)
		if o.queue > maxQueue {
			maxQueue = o.queue
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "lvmload: %d/%d sessions failed\n", failed, *sessions)
		os.Exit(1)
	}
	sort.Float64s(lat)

	rep := report{
		SchemaVersion: reportSchemaVersion,
		Quick:         *quick,
		Sessions:      *sessions,
		Schemes:       schemes,
		Workloads:     workloads,
		Every:         *every,
		Translations:  total,
		WallSeconds:   wall,
		TPS:           float64(total) / wall,
		P50Seconds:    quantile(lat, 50),
		P99Seconds:    quantile(lat, 99),
		MaxQueueDepth: maxQueue,
	}
	fmt.Printf("lvmload: %d sessions  %d translations  %.2fs wall  %.0f translations/sec\n",
		rep.Sessions, rep.Translations, rep.WallSeconds, rep.TPS)
	fmt.Printf("lvmload: session latency p50 %.3fs  p99 %.3fs  max admission queue depth %d\n",
		rep.P50Seconds, rep.P99Seconds, rep.MaxQueueDepth)
	if *jsonPath != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "lvmload: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "lvmload: %v\n", err)
			os.Exit(1)
		}
	}
}

// drive runs one tenant session on its own connection and measures it.
func drive(addr string, cfg lvmd.Config, open lvmd.OpenRequest) sessionOutcome {
	c, err := lvmd.DialRetry(addr, cfg)
	if err != nil {
		return sessionOutcome{err: err}
	}
	defer c.Close()
	sw := wallclock.Start()
	res, st, err := c.Run(open, nil)
	if err != nil {
		return sessionOutcome{err: err}
	}
	return sessionOutcome{
		accesses: res.Accesses,
		seconds:  sw.Seconds(),
		queue:    st.QueueDepth,
	}
}

// quantile returns the p-th percentile of sorted (nearest-rank).
func quantile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*p + 99) / 100
	if i < 1 {
		i = 1
	}
	return sorted[i-1]
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
