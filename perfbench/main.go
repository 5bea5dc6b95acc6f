// Command perfbench is the repository's end-to-end benchmark. One run
// executes one named workload and prints every metric by name with its
// unit, then a final JSON result line:
//
//	perfbench --workload sim-deep --seed 7 --seconds 30 --trace 0
//
// Every workload drives the same three stages over job streams generated
// from --seed, in workload-specific proportions and input regimes:
//
//   - offline: batch simulation (sim.Run, or experiment.RunAll for the
//     paper sweep), reported as simulated jobs per wall second;
//   - online: an in-process dynpd (rms.Scheduler + rms.Server on
//     loopback, journal on disk, quotes enabled) fed open loop by one
//     mutator connection replaying the stream as deliver batches and one
//     reader connection sending quote and status requests;
//   - restart: the journal replayed into a fresh scheduler.
//
// Every stage checks its outputs; a failed check clears "correct" and
// counts in "failed". With --trace 1 the run repeats the stages with
// timing wrappers around each layer's public entry points and prints
// the per-layer metrics instead. README.md documents the workloads, the
// metrics and which metric each layer should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // checkout root: golden files are read from here
	work     string // scratch directory for journals (created if missing)
	commit   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		opt       options
		trace     int
		setupOnly bool
	)
	fs.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&opt.seed, "seed", defaultSeed, "input seed")
	fs.Float64Var(&opt.seconds, "seconds", 30, "seconds the timed stages take")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&opt.root, "root", ".", "checkout root holding paper_output.txt")
	fs.StringVar(&opt.work, "work", ".bench_build/perfbench-work", "scratch directory for journals")
	fs.StringVar(&opt.commit, "commit", "unknown", "commit stamped on the result")
	fs.BoolVar(&setupOnly, "setup-only", false, "internal: perform the workload set-up once and print its duration")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace == 1
	cfg, ok := workloadConfig(opt.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n",
			opt.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if opt.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	if setupOnly {
		secs, err := setupOnce(cfg, opt)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: setup:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%.9f\n", secs)
		return 0
	}

	fmt.Fprintln(stdout, stampLine(opt))
	res, err := execute(cfg, opt, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.print(stdout)
	line, err := res.resultLine(cfg, opt.trace)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// stampLine records where and how the numbers were taken.
func stampLine(opt options) string {
	stamp := map[string]any{
		"stamp":      "perfbench",
		"workload":   opt.workload,
		"seed":       opt.seed,
		"seconds":    opt.seconds,
		"trace":      opt.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     opt.commit,
	}
	b, _ := json.Marshal(stamp) // a map of scalars always encodes
	return string(b)
}

// metric is one reported value with its unit; n is the sample count
// behind a percentile or median (0 when the value is a single
// measurement or a count).
type metric struct {
	value float64
	unit  string
	n     int
}

// result accumulates the metrics and the correctness ledger of one run.
type result struct {
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
}

func newResult() *result { return &result{metrics: make(map[string]metric)} }

func (r *result) set(name string, value float64, unit string, n int) {
	r.metrics[name] = metric{value, unit, n}
}

// ops records attempted operations and the ones among them that failed.
func (r *result) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// check records one output check: it always counts as attempted and
// counts as failed when err is non-nil.
func (r *result) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, what+": "+err.Error())
	}
}

func (r *result) correct() bool { return r.failed == 0 }

// print writes the human-readable report: every metric with its unit and
// sample count, then the check outcome.
func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		if m.n > 0 {
			fmt.Fprintf(w, "%-28s %14.6g %-6s (n=%d)\n", n, m.value, m.unit, m.n)
		} else {
			fmt.Fprintf(w, "%-28s %14.6g %s\n", n, m.value, m.unit)
		}
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-28s %14.6g ratio (%d of %d)\n", "failed_frac", frac, r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
}

// resultLine renders the final JSON line: the end-to-end metrics, or the
// per-layer metrics on a traced run, exactly as BENCHMARK.json lists them.
func (r *result) resultLine(cfg config, traced bool) (string, error) {
	want := endToEndMetrics
	if traced {
		want = perLayerMetrics
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(want))
	var missing []string
	for _, name := range want {
		m, ok := r.metrics[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		out[name] = value{m.value, m.unit}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("%s: metrics not measured: %s", cfg.name, strings.Join(missing, ", "))
	}
	attempted := r.attempted
	if attempted < 1 {
		return "", errors.New("no operation attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), attempted, r.failed, out})
	if err != nil {
		return "", fmt.Errorf("encoding result: %w", err)
	}
	return string(b), nil
}
