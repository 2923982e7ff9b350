// Command perfbench is the repository benchmark: it drives the public olap
// facade in-process with generated SQL traffic, checks the answers against
// reference scans, and prints every metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a run
// splits its window into an untraced half (counter deltas) and a traced
// half that replays the same inputs one stage at a time through each
// layer's public functions, recording spans.
//
// Usage (from the repository root, through perfbench/run.sh which builds
// the binary):
//
//	bash perfbench/run.sh --workload adhoc --seed 7 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings. Defaults are the benchmark's; the
// tests shrink rows, durations and sample sizes.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	rows       int           // fact-table rows
	setups     int           // olap.Open calls timed for setup_s
	warmup     time.Duration // untimed closed-loop run before measuring
	verifyCap  int           // answers sampled per client for verification
	probeN     int           // RunReal calls for sched.est_over_act_p50
	batchRows  int           // live-ingest writer batch size
	batchEvery time.Duration // live-ingest writer period
	dir        string        // scratch directory for WALs and span files
}

func defaultConfig() config {
	return config{
		rows:       1_000_000,
		setups:     7,
		warmup:     time.Second,
		verifyCap:  48,
		probeN:     64,
		batchRows:  500,
		batchEvery: 100 * time.Millisecond,
		dir:        filepath.Join(".bench_build", "perfbench"),
	}
}

// workload is one traffic shape. Sizes and the reason for each are
// recorded in BENCHMARK.json.
type workload struct {
	mix     mixName
	clients int  // closed-loop readers
	live    bool // WAL-backed live store with an open-loop writer
	shards  int  // > 1: sharded cluster with replication 2
}

var workloads = map[string]workload{
	"dashboard":   {mix: mixDashboard, clients: 2},
	"adhoc":       {mix: mixAdhoc, clients: 2},
	"live-ingest": {mix: mixDashboard, clients: 2, live: true},
	"cluster":     {mix: mixAdhoc, clients: 2, shards: 4},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed (queries, rows and the generated table)")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured window in seconds")
	traceFlag := fs.Int("trace", 0, "1 = report per-layer metrics from counter deltas and a traced replay")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, workloadNames())
		return 2
	}
	if cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	res, err := execute(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d operations failed or answered wrong\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// printMetrics writes the human-readable report, one metric per line.
func printMetrics(w io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s\n", title)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
