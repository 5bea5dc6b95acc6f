package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"dynp/internal/experiment"
	"dynp/internal/job"
	"dynp/internal/metrics"
	"dynp/internal/rng"
	"dynp/internal/shard"
	"dynp/internal/sim"
	"dynp/internal/workload"
)

// offlineOutcome is what one offline stage measured and checked.
type offlineOutcome struct {
	jobsPerS float64              // the stage's throughput (see runStreams, runSweep)
	passes   int                  // passes behind jobsPerS
	sims     int                  // simulations per pass
	fps      []uint64             // first pass: one per stream, or one per trace of the sweep
	sweep    []*experiment.Result // first round of the sweep
	problems []string
}

func (o *offlineOutcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// simStreams simulates every stream once with workers simulations at a
// time over the shard pool, each with a fresh dynP/SJF-preferred driver
// passed through wrap (nil: unwrapped). The wall time runs from the
// first simulation's start to the last one's end.
func simStreams(streams []*job.Set, workers int, wrap func(sim.Driver) sim.Driver) ([]*sim.Result, time.Duration, error) {
	if wrap == nil {
		wrap = func(d sim.Driver) sim.Driver { return d }
	}
	results := make([]*sim.Result, len(streams))
	t := time.Now()
	err := shard.Run(workers, len(streams), func(i int) error {
		res, err := sim.Run(streams[i], wrap(newDriver()))
		results[i] = res
		return err
	})
	return results, time.Since(t), err
}

// runStreams simulates every stream once per pass, one simulation per
// CPU at a time. It starts another pass over the same streams while one
// more fits in budget; with a single pass it re-runs the first stream,
// so repetition is always checked. jobs_per_s is the median over the
// passes.
func runStreams(streams []*job.Set, budget time.Duration) *offlineOutcome {
	out := &offlineOutcome{sims: len(streams)}
	jobs := 0
	for _, s := range streams {
		jobs += len(s.Jobs)
	}
	var rates []float64
	start := time.Now()
	for pass := 0; ; pass++ {
		results, wall, err := simStreams(streams, runtime.NumCPU(), nil)
		if err != nil {
			out.problem("offline simulation: %v", err)
			return out
		}
		for i, res := range results {
			fp := simFingerprint(res)
			if pass == 0 {
				if err := checkRecords(res, streams[i]); err != nil {
					out.problem("%s: %v", streams[i].Name, err)
				}
				out.fps = append(out.fps, fp)
			} else if fp != out.fps[i] {
				out.problem("%s: pass %d fingerprint %x, pass 1 %x", streams[i].Name, pass+1, fp, out.fps[i])
			}
		}
		rates = append(rates, float64(jobs)/wall.Seconds())
		if time.Since(start)+wall > budget {
			break
		}
	}
	if len(rates) == 1 {
		res, err := sim.Run(streams[0], newDriver())
		if err != nil {
			out.problem("%s: %v", streams[0].Name, err)
		} else if fp := simFingerprint(res); fp != out.fps[0] {
			out.problem("%s: repeated run fingerprint %x, first %x", streams[0].Name, fp, out.fps[0])
		}
	}
	out.jobsPerS, out.passes = median(rates), len(rates)
	return out
}

// sweepConfig is the paper-sweep's experiment: every trace at shrink 1.0,
// the five paper schedulers, sets x jobs per trace, at workers.
func sweepConfig(cfg config, seed uint64, workers int) experiment.Config {
	return experiment.Config{
		Shrinks:    []float64{1.0},
		Sets:       cfg.sweepSets,
		JobsPerSet: cfg.sweepJobs,
		Seed:       seed,
		Schedulers: experiment.PaperSchedulers(),
		Workers:    workers,
	}
}

// simSweep runs the sweep at seed once with workers, every scheduler's
// driver passed through wrap (nil: unwrapped).
func simSweep(cfg config, seed uint64, workers int, wrap func(sim.Driver) sim.Driver) ([]*experiment.Result, time.Duration, error) {
	ecfg := sweepConfig(cfg, seed, workers)
	if wrap != nil {
		for i, spec := range ecfg.Schedulers {
			newDrv := spec.New
			ecfg.Schedulers[i].New = func() sim.Driver { return wrap(newDrv()) }
		}
	}
	t := time.Now()
	results, err := experiment.RunAll(workload.Models(), ecfg)
	return results, time.Since(t), err
}

// sweepLabel derives the seeds of the sweep's later rounds.
const sweepLabel = 0x7377656570 // "sweep"

// sweepSeed is the seed of round r of the sweep: --seed itself for the
// first round, so at the default seed it is the committed paper
// configuration, and an independent derivation for every later round.
func sweepSeed(seed uint64, round int) uint64 {
	if round == 0 {
		return seed
	}
	return rng.New(seed).Derive(sweepLabel, uint64(round)).Uint64()
}

// runSweep runs the sweep once per round, with one worker per CPU, each
// round on the job sets of its own seed. One set whose queue happens to
// grow deep slows a whole round, so a single sweep's throughput swings
// with the seed by a fifth; jobs_per_s is the total over all rounds.
func runSweep(cfg config, seed uint64) *offlineOutcome {
	out := &offlineOutcome{
		sims:   len(workload.Models()) * len(experiment.PaperSchedulers()) * cfg.sweepSets,
		passes: cfg.sweepRounds,
	}
	var total time.Duration
	for r := 0; r < cfg.sweepRounds; r++ {
		results, wall, err := simSweep(cfg, sweepSeed(seed, r), runtime.NumCPU(), nil)
		if err != nil {
			out.problem("sweep round %d: %v", r+1, err)
			return out
		}
		if err := checkCells(cfg, results); err != nil {
			out.problem("sweep round %d: %v", r+1, err)
		}
		if r == 0 {
			out.fps, out.sweep = sweepFingerprints(results), results
		}
		total += wall
	}
	out.jobsPerS = float64(out.sims*cfg.sweepJobs*cfg.sweepRounds) / total.Seconds()
	return out
}

// simFingerprint hashes every job's start and finish, in job order, and
// the bits of the run's SLDwA.
func simFingerprint(res *sim.Result) uint64 {
	recs := append([]sim.Record(nil), res.Records...)
	sort.Slice(recs, func(i, k int) bool { return recs[i].Job.ID < recs[k].Job.ID })
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, r := range recs {
		put(uint64(r.Job.ID))
		put(uint64(r.Start))
		put(uint64(r.Finish))
	}
	put(math.Float64bits(metrics.SLDwA(res)))
	return h.Sum64()
}

// sweepFingerprints hashes, per trace, every cell's per-set SLDwA and
// utilization bits.
func sweepFingerprints(results []*experiment.Result) []uint64 {
	fps := make([]uint64, len(results))
	for i, r := range results {
		h := fnv.New64a()
		for _, c := range r.Cells {
			fmt.Fprintf(h, "%s/%g:", c.Scheduler, c.Shrink)
			for k := range c.SLDwAPerSet {
				fmt.Fprintf(h, "%x,%x;", math.Float64bits(c.SLDwAPerSet[k]), math.Float64bits(c.UtilPerSet[k]))
			}
		}
		fps[i] = h.Sum64()
	}
	return fps
}

// checkRecords checks a simulation's records against its job set: every
// job finishes exactly once, after its submission, after exactly its run
// time, and the running jobs never need more processors than the
// machine has.
func checkRecords(res *sim.Result, set *job.Set) error {
	if len(res.Records) != len(set.Jobs) {
		return fmt.Errorf("%d records for %d jobs", len(res.Records), len(set.Jobs))
	}
	jobs := make(map[job.ID]*job.Job, len(set.Jobs))
	for _, j := range set.Jobs {
		jobs[j.ID] = j
	}
	type edge struct {
		t     int64
		procs int
	}
	edges := make([]edge, 0, 2*len(res.Records))
	seen := make(map[job.ID]bool, len(res.Records))
	for _, r := range res.Records {
		j := jobs[r.Job.ID]
		switch {
		case j == nil || *j != *r.Job:
			return fmt.Errorf("record for job %d, which is not in the set", r.Job.ID)
		case seen[j.ID]:
			return fmt.Errorf("job %d finished twice", j.ID)
		case r.Start < j.Submit:
			return fmt.Errorf("job %d started at %d before its submission at %d", j.ID, r.Start, j.Submit)
		case r.Finish != r.Start+j.Runtime:
			return fmt.Errorf("job %d ran [%d, %d], its run time is %d", j.ID, r.Start, r.Finish, j.Runtime)
		}
		seen[j.ID] = true
		edges = append(edges, edge{r.Start, j.Width}, edge{r.Finish, -j.Width})
	}
	// Releases at an instant come before the starts they make room for.
	sort.Slice(edges, func(i, k int) bool {
		if edges[i].t != edges[k].t {
			return edges[i].t < edges[k].t
		}
		return edges[i].procs < edges[k].procs
	})
	used := 0
	for _, e := range edges {
		used += e.procs
		if used > set.Machine {
			return fmt.Errorf("%d processors in use at t=%d on a %d-processor machine", used, e.t, set.Machine)
		}
	}
	return nil
}

// checkCells checks every cell's aggregates: one value per set, SLDwA of
// at least 1 and a utilization in (0, 1].
func checkCells(cfg config, results []*experiment.Result) error {
	specs := experiment.PaperSchedulers()
	for _, r := range results {
		if len(r.Cells) != len(specs) {
			return fmt.Errorf("%s: %d cells, want %d", r.Model.Name, len(r.Cells), len(specs))
		}
		for _, c := range r.Cells {
			if len(c.SLDwAPerSet) != cfg.sweepSets || c.SLDwA < 1 || c.Util <= 0 || c.Util > 1 {
				return fmt.Errorf("%s %s: %d sets, SLDwA %g, utilization %g",
					r.Model.Name, c.Scheduler, len(c.SLDwAPerSet), c.SLDwA, c.Util)
			}
		}
	}
	return nil
}

// checkSweep checks every cell's aggregates and, for the first job set
// of every trace, re-runs each scheduler directly: the records must pass
// checkRecords and reproduce the sweep's per-set SLDwA and utilization
// bit for bit.
func checkSweep(cfg config, seed uint64, results []*experiment.Result) error {
	if err := checkCells(cfg, results); err != nil {
		return err
	}
	specs := experiment.PaperSchedulers()
	for _, r := range results {
		sets, err := r.Model.GenerateSets(1, cfg.sweepJobs, seed)
		if err != nil {
			return err
		}
		set := sets[0].Shrink(1.0)
		for _, spec := range specs {
			res, err := sim.Run(set, spec.New())
			if err != nil {
				return fmt.Errorf("%s %s: %w", r.Model.Name, spec.Name, err)
			}
			if err := checkRecords(res, set); err != nil {
				return fmt.Errorf("%s %s: %w", r.Model.Name, spec.Name, err)
			}
			c := r.Cell(1.0, spec.Name)
			if c == nil {
				return fmt.Errorf("%s: no cell for %s", r.Model.Name, spec.Name)
			}
			if metrics.SLDwA(res) != c.SLDwAPerSet[0] || metrics.Utilization(res) != c.UtilPerSet[0] {
				return fmt.Errorf("%s %s set 0: direct run SLDwA %v util %v, sweep %v %v",
					r.Model.Name, spec.Name, metrics.SLDwA(res), metrics.Utilization(res),
					c.SLDwAPerSet[0], c.UtilPerSet[0])
			}
		}
	}
	return nil
}

// goldenFile is the committed output of cmd/paper at the default seed.
const goldenFile = "paper_output.txt"

// checkGolden compares the sweep's shrink-1.0 rows of Tables 4 and 5
// with the committed paper output. The results must come from the
// default seed and the reduced paper configuration.
func checkGolden(root string, results []*experiment.Result) error {
	golden, err := os.ReadFile(filepath.Join(root, goldenFile))
	if err != nil {
		return err
	}
	var fresh bytes.Buffer
	shrinks := []float64{1.0}
	if err := experiment.Table4(results, shrinks).Render(&fresh); err != nil {
		return err
	}
	fresh.WriteString("\n")
	if err := experiment.Table5(results, shrinks).Render(&fresh); err != nil {
		return err
	}
	return compareGolden(string(golden), fresh.String())
}

// compareGolden compares the shrink-1.0 rows of Tables 4 and 5 field by
// field (column widths depend on the other rows of a table).
func compareGolden(golden, fresh string) error {
	for _, title := range []string{"Table 4:", "Table 5:"} {
		want, got := shrinkRows(golden, title, "1.0"), shrinkRows(fresh, title, "1.0")
		if len(want) == 0 {
			return fmt.Errorf("%s %s has no shrink-1.0 rows", goldenFile, title)
		}
		if len(got) != len(want) {
			return fmt.Errorf("%s %d shrink-1.0 rows, %s has %d", title, len(got), goldenFile, len(want))
		}
		for trace, row := range want {
			if got[trace] != row {
				return fmt.Errorf("%s row %q, %s has %q", title, got[trace], goldenFile, row)
			}
		}
	}
	return nil
}

// shrinkRows returns the rows of the table whose title starts with title
// that have the given shrink factor, keyed by trace, fields joined by
// single spaces.
func shrinkRows(text, title, shrink string) map[string]string {
	rows := make(map[string]string)
	in := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, title):
			in = true
		case in && (strings.TrimSpace(line) == "" || strings.HasPrefix(line, "Table ")):
			return rows
		case in:
			if f := strings.Fields(line); len(f) > 2 && f[1] == shrink {
				rows[f[0]] = strings.Join(f, " ")
			}
		}
	}
	return rows
}
