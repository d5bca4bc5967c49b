// Command perfbench is the repository benchmark: it drives the real
// mcbound-server over loopback with three workloads, checks every
// answer, and prints each metric by name with its unit. The last line
// of its output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With -trace 0 the metrics are the end-to-end ones of
// BENCHMARK.json, measured against a separate server process; with
// -trace 1 they are the per-layer ones, measured by a traced run that
// builds the same server in-process and times calls into each layer
// from this package.
//
// Run it through run.sh, which builds the server and this harness from
// the checkout first:
//
//	bash perfbench/run.sh --workload submit-rf --seed 1 --seconds 15 --trace 0
//
// See perfbench/NOTES.md for the workloads, the metrics and how to read
// a traced run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metric is one named measurement in the final line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadSpec is one traffic mix.
type workloadSpec struct {
	model string
	// scale sizes the generated trace (workload.EvalConfig).
	scale float64
	// nominal is the mean open-loop rate of the submit workloads, in
	// requests per second: the rate at which the server spends a tenth
	// of a 2-CPU host's CPU time, at the server CPU per request
	// measured on such a host (nominal = 0.1 · 2 CPUs / cpu_us_per_op;
	// see NOTES.md). Requests follow the trace's own arrival process
	// at that mean rate (arrivals).
	nominal float64
	// lives is how many deployments, each over a trace of its own, a
	// run brings up and measures in turn.
	lives int
	// replay selects the online-replay driver over the open loop.
	replay bool
}

var workloads = map[string]workloadSpec{
	// Open-loop single-job classify with the paper's deployed RF: the
	// model costs a few µs, so the request path around it dominates.
	// 0.2 CPU-s/s over ≈290 µs of server CPU per request.
	"submit-rf": {model: "rf", scale: 0.04, nominal: 700, lives: 5},
	// The same stream with brute-force KNN: distance scans dominate.
	// 0.2 CPU-s/s over ≈740 µs of server CPU per request.
	"submit-knn": {model: "knn", scale: 0.04, nominal: 270, lives: 5},
	// The paper's online algorithm, day by day, through the live API.
	"online-replay": {model: "rf", scale: 0.02, lives: 6, replay: true},
}

// bench is the state of one run.
type bench struct {
	name    string
	spec    workloadSpec
	seed    uint64
	seconds int
	server  string // mcbound-server binary
	work    string // scratch directory of this run
	spans   string // directory the traced run writes its spans to
	conns   int
	tr      *trace           // the current life's trace
	traces  []map[string]any // every life's trace, for the report
	tally   tally
	mu      sync.Mutex     // guards logged: open-loop workers log concurrently
	logged  int            // operation errors printed so far
	rep     map[string]any // the human-readable report
}

func main() {
	var (
		name    = flag.String("workload", "submit-rf", "workload: submit-rf, submit-knn or online-replay")
		seed    = flag.Uint64("seed", 1, "workload seed (trace generation); 1 is the default, 7 is held out")
		seconds = flag.Int("seconds", 20, "measured seconds of the run")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics from a separate server process; 1: per-layer metrics from a traced in-process run")
		server  = flag.String("server", "", "mcbound-server binary built from the checkout under test")
		work    = flag.String("work", "", "scratch directory for this run (created, removed at exit)")
		spans   = flag.String("spans", "", "directory the traced run writes its spans to (empty: not written)")
	)
	flag.Parse()
	spec, ok := workloads[*name]
	if !ok || *server == "" || *work == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: -workload submit-rf|submit-knn|online-replay -seed N -seconds S -trace 0|1 -server BIN -work DIR")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{
		name: *name, spec: spec, seed: *seed, seconds: *seconds,
		server: *server, work: *work, spans: *spans, conns: connections(),
		rep: map[string]any{},
	}
	res, err := b.run(ctx, *traced == 1)
	_ = os.RemoveAll(*work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, _ := json.MarshalIndent(b.rep, "", "  ")
	fmt.Println(string(out))
	printMetrics(res)
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func (b *bench) run(ctx context.Context, traced bool) (*result, error) {
	start := time.Now()
	b.rep["workload"] = b.name
	b.rep["host"] = fingerprint(b.seed, b.server)
	b.rep["scale"] = b.spec.scale
	b.rep["first_day"] = firstDay.Format("2006-01-02")
	var m map[string]metric
	var err error
	switch {
	case traced && b.spec.replay:
		m, err = b.tracedReplay(ctx)
	case traced:
		m, err = b.tracedSubmit(ctx)
	case b.spec.replay:
		m, err = b.replay(ctx)
	default:
		m, err = b.submit(ctx)
	}
	if err != nil {
		return nil, err
	}
	b.rep["traces"] = b.traces
	b.rep["run_s"] = time.Since(start).Seconds()
	b.rep["ops"] = b.tally
	b.rep["fail_ratio"] = b.tally.ratio()
	return &result{
		Correct:   b.tally.bad() == 0,
		Attempted: b.tally.Attempted,
		Failed:    b.tally.bad(),
		Metrics:   m,
	}, nil
}

// runDir makes a fresh directory for one server life.
func (b *bench) runDir(name string) (string, error) {
	dir := filepath.Join(b.work, name)
	return dir, os.MkdirAll(dir, 0o755)
}

// printMetrics prints one "name value unit" line per metric.
func printMetrics(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Printf("%-32s %14d/%d\n", "failed/attempted", r.Failed, r.Attempted)
}
