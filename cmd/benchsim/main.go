// Command benchsim measures the simulation-facing cost of the availability
// profile — Place micro-benchmarks on Profile and on the straightforward
// Linear implementation at several profile sizes, plus end-to-end sim.Run
// throughput on generated KTH workloads — and writes the measurements as a
// JSON snapshot (BENCH_sim.json) so CI can fail on performance
// regressions.
//
//	benchsim -out BENCH_sim.json
//	benchsim -check BENCH_sim.json   # compare a fresh run against a baseline
//
// Absolute nanoseconds vary with the machine, so -check gates on
// machine-neutral ratios instead: the 10k-over-1k jobs/sec scaling of the
// end-to-end rows, which may fall at most 10% below the baseline ratio,
// and the speculative rows' hit rate and throughput ratio. The Place
// micro rows are reported for context and never gated: an end-to-end
// number is what a profile change has to move. The -check run pins
// GOMAXPROCS to the value the baseline was recorded at (erroring if the
// environment demands a conflicting one), so the two measurements see the
// same machine shape.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"

	"dynp/internal/benchgate"
	"dynp/internal/core"
	"dynp/internal/profile"
	"dynp/internal/sim"
	"dynp/internal/workload"
)

// micro is one micro-benchmark row: building a profile of Steps steps by
// Place calls, for one of the two implementations.
type micro struct {
	Name    string `json:"name"` // "place"
	Impl    string `json:"impl"` // "profile" or "linear"
	Steps   int    `json:"steps"`
	NsPerOp int64  `json:"ns_per_op"`
}

// simRow is one end-to-end row: a full sim.Run of the dynP advanced
// scheduler over a generated KTH job set.
type simRow struct {
	Name       string  `json:"name"`
	Jobs       int     `json:"jobs"`
	NsPerOp    int64   `json:"ns_per_op"`
	JobsPerSec float64 `json:"jobs_per_sec"`
}

// specRow is one speculative end-to-end row: the same sim.Run with the
// speculative cross-event pipeline on. Ratio is spec-on jobs/s over the
// spec-off row at the same size — the machine-shape-sensitive number
// (speculation buys nothing without a spare core) — and HitRate is the
// fraction of dispatched speculative builds consumed by verification,
// which is a property of workload and pipeline, not hardware, so -check
// gates it on every machine.
type specRow struct {
	Name       string  `json:"name"`
	Jobs       int     `json:"jobs"`
	NsPerOp    int64   `json:"ns_per_op"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	Ratio      float64 `json:"ratio"`
	HitRate    float64 `json:"hit_rate"`
}

type snapshot struct {
	GoMaxProcs int       `json:"gomaxprocs"`
	Capacity   int       `json:"capacity"`
	Note       string    `json:"note"`
	Micro      []micro   `json:"micro"`
	Sim        []simRow  `json:"sim"`
	Spec       []specRow `json:"spec,omitempty"`
}

const (
	// capacity of the synthetic machine the micro-benchmarks run on, large
	// enough that reservation widths can vary widely.
	capacity = 1024
	// maxRegression is how far a scaling or speculation ratio may fall
	// below its baseline before -check fails the build.
	maxRegression = 0.10
	// simShrink compresses the KTH interarrival times so the machine is
	// contended and queues (and thus profiles) grow.
	simShrink = 0.8
	// specHitFloor is the absolute speculation hit-rate floor on the KTH
	// workload: a virtual-clock run predicts its own event stream exactly,
	// so a rate below this means the pipeline is silently miss-recycling
	// (a verification condition drifted) — gated on every machine.
	specHitFloor = 0.80
	// specRatioFloor is the absolute spec-on-over-spec-off throughput
	// floor at the largest job count. The overlap needs a spare core, so
	// the ratio is only gated when the run has GOMAXPROCS > 1; one-core
	// machines report it ungated.
	specRatioFloor = 1.25
)

var microSizes = []int{64, 256, 1024}
var simJobs = []int{1000, 10000}

func main() {
	out := flag.String("out", "BENCH_sim.json", "output file ('-' for stdout)")
	check := flag.String("check", "", "baseline BENCH_sim.json to compare a fresh run against (no output written)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the measurement run to this file (pprof format)")
	flag.Parse()

	if *check != "" {
		// Load the baseline before measuring: the fresh run must execute at
		// the GOMAXPROCS the baseline was recorded at, or the ratios are not
		// comparable (a 4-core runner checking a 1-core snapshot would gate
		// scheduler noise, not regressions).
		raw, err := os.ReadFile(*check)
		fail(err)
		var base snapshot
		fail(json.Unmarshal(raw, &base))
		fail(benchgate.PinProcs("benchsim", base.GoMaxProcs))
		os.Exit(compare(base, measureProfiled(*cpuprofile)))
	}

	snap := measureProfiled(*cpuprofile)
	enc, err := json.MarshalIndent(snap, "", "  ")
	fail(err)
	enc = append(enc, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(enc)
	} else {
		err = os.WriteFile(*out, enc, 0o644)
	}
	fail(err)
}

// allocPlan returns the deterministic reservation sequence that builds a
// profile with steps steps: contiguous [slot*16, slot*16+16) intervals
// visited in scattered order (so boundary splits land mid-array) with
// varying widths. Every slot is still fully free when it is visited, so
// Place starts each reservation at its requested time. The finished
// profile is one long busy plateau — no two adjacent steps equal —
// followed by a single fully-free tail step.
type reservation struct {
	start int64
	width int
}

func allocPlan(steps int) []reservation {
	n := steps - 1      // n contiguous intervals leave n+1 boundaries
	stride := n*5/8 | 1 // any stride coprime to n walks every slot once
	for gcd(stride, n) != 1 {
		stride += 2
	}
	plan := make([]reservation, n)
	slot := 0
	for i := 0; i < n; i++ {
		slot = (slot + stride) % n
		plan[i] = reservation{
			start: int64(slot * 16),
			width: 100 + (slot*37)%800, // free stays in [124, 924]
		}
	}
	return plan
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// placer is the slice of the profile API the Place rows exercise.
type placer interface {
	Reset(capacity int, start int64)
	Place(earliest int64, width int, duration int64) int64
}

// build replays the reservation plan into p, reset to a fresh machine.
func build(p placer, plan []reservation) {
	p.Reset(capacity, 0)
	for _, r := range plan {
		p.Place(r.start, r.width, 16)
	}
}

func microRow(name, impl string, steps int, fn func(b *testing.B)) micro {
	res := testing.Benchmark(fn)
	m := micro{Name: name, Impl: impl, Steps: steps, NsPerOp: res.NsPerOp()}
	fmt.Fprintf(os.Stderr, "%-12s %-8s %5d steps  %12d ns/op\n", name, impl, steps, m.NsPerOp)
	return m
}

// measureProfiled is measure with an optional CPU profile around the
// whole measurement — CI uploads it as an artifact so hot-path work can
// start from real numbers instead of a local repro. Explicit stop/close
// rather than defers: the -check path exits through os.Exit.
func measureProfiled(cpuprofile string) snapshot {
	if cpuprofile == "" {
		return measure()
	}
	f, err := os.Create(cpuprofile)
	fail(err)
	fail(pprof.StartCPUProfile(f))
	snap := measure()
	pprof.StopCPUProfile()
	fail(f.Close())
	return snap
}

func measure() snapshot {
	snap := snapshot{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Capacity:   capacity,
		Note: "history (KTH, shrink 0.8, GOMAXPROCS=1): the first flat " +
			"array ran sim/dynp at 120170 jobs/s (1k jobs) and 26364 " +
			"jobs/s (10k jobs); the chunk index that replaced it ran 26754 " +
			"jobs/s at 10k jobs and has been removed again in favour of " +
			"the single-pass flat Profile measured here; the linear micro " +
			"rows are the straightforward two-pass baseline",
	}

	// Place: each op rebuilds the whole profile from its own storage, so
	// the row measures the full fit-and-reserve path (steps-1 calls)
	// including mid-array boundary insertion.
	for _, steps := range microSizes {
		plan := allocPlan(steps)
		row := func(p placer) func(b *testing.B) {
			return func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					build(p, plan)
				}
			}
		}
		snap.Micro = append(snap.Micro,
			microRow("place", "profile", steps, row(profile.New(capacity, 0))),
			microRow("place", "linear", steps, row(profile.NewLinear(capacity, 0))))
	}

	for _, jobs := range simJobs {
		sets, err := workload.KTH.GenerateSets(1, jobs, 1)
		fail(err)
		set := sets[0].Shrink(simShrink)
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(set, sim.NewDynP(core.Advanced{})); err != nil {
					b.Fatal(err)
				}
			}
		})
		row := simRow{
			Name:       "sim/dynp",
			Jobs:       jobs,
			NsPerOp:    res.NsPerOp(),
			JobsPerSec: float64(jobs) / (float64(res.NsPerOp()) / 1e9),
		}
		fmt.Fprintf(os.Stderr, "%-12s %5d jobs   %12d ns/op  %10.0f jobs/s\n",
			row.Name, row.Jobs, row.NsPerOp, row.JobsPerSec)
		snap.Sim = append(snap.Sim, row)

		// The same run with the speculative cross-event pipeline on. The
		// hit rate comes from one instrumented run outside the timer: it
		// is a deterministic property of the workload, not a measurement.
		spec := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(set, sim.NewDynP(core.Advanced{}).SetSpeculation(true)); err != nil {
					b.Fatal(err)
				}
			}
		})
		probe := sim.NewDynP(core.Advanced{}).SetSpeculation(true)
		if _, err := sim.Run(set, probe); err != nil {
			fail(err)
		}
		srow := specRow{
			Name:       "sim/dynp/spec",
			Jobs:       jobs,
			NsPerOp:    spec.NsPerOp(),
			JobsPerSec: float64(jobs) / (float64(spec.NsPerOp()) / 1e9),
			HitRate:    probe.SpecStats().HitRate(),
		}
		if row.JobsPerSec > 0 {
			srow.Ratio = srow.JobsPerSec / row.JobsPerSec
		}
		fmt.Fprintf(os.Stderr, "%-12s %5d jobs   %12d ns/op  %10.0f jobs/s  (%.2fx, hit %.0f%%)\n",
			srow.Name, srow.Jobs, srow.NsPerOp, srow.JobsPerSec, srow.Ratio, srow.HitRate*100)
		snap.Spec = append(snap.Spec, srow)
	}
	return snap
}

// scaling returns the large-over-small end-to-end throughput ratio: how
// much of the 1k-job rate survives at 10k jobs. A profile that degrades
// super-linearly with schedule size drags this down.
func scaling(rows []simRow) (float64, bool) {
	rate := make(map[int]float64, len(rows))
	for _, r := range rows {
		rate[r.Jobs] = r.JobsPerSec
	}
	small, large := rate[simJobs[0]], rate[simJobs[len(simJobs)-1]]
	if small <= 0 || large <= 0 {
		return 0, false
	}
	return large / small, true
}

// compare gates a fresh run against the baseline: the end-to-end
// throughput scaling must not collapse, and the speculative rows must hold
// (compareSpec). The Place micro rows, printed while measuring, never fail
// the build.
func compare(base, fresh snapshot) int {
	bad := 0
	if fs, ok := scaling(fresh.Sim); ok {
		limit := 0.0
		if bs, bok := scaling(base.Sim); bok {
			limit = bs * (1 - maxRegression)
		}
		status := "ok"
		if fs < limit {
			status = "REGRESSION"
			bad++
		}
		fmt.Fprintf(os.Stderr, "benchsim: sim scaling %d->%d jobs %.2f (limit %.2f): %s\n",
			simJobs[0], simJobs[len(simJobs)-1], fs, limit, status)
	}
	bad += compareSpec(base, fresh)
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "benchsim: %d performance regression(s) beyond %.0f%%\n", bad, maxRegression*100)
		return 1
	}
	return 0
}

// compareSpec gates the speculative rows. The hit rate is gated on every
// machine — it is workload-determined, so it must meet both the absolute
// floor and the baseline to within maxRegression. The spec-over-baseline
// throughput ratio needs a spare core for the overlapped build, so it is
// gated (absolute floor at the largest size plus baseline regression)
// only when the pinned GOMAXPROCS exceeds 1, and reported as explicitly
// skipped otherwise — a silent skip would read as a pass.
func compareSpec(base, fresh snapshot) int {
	baseline := make(map[int]specRow, len(base.Spec))
	for _, s := range base.Spec {
		baseline[s.Jobs] = s
	}
	bad := 0
	for _, s := range fresh.Spec {
		hitLimit := specHitFloor
		b, hasBase := baseline[s.Jobs]
		if hasBase {
			if l := b.HitRate * (1 - maxRegression); l > hitLimit {
				hitLimit = l
			}
		}
		status := "ok"
		if s.HitRate < hitLimit {
			status = "REGRESSION"
			bad++
		}
		fmt.Fprintf(os.Stderr, "benchsim: spec %5d jobs hit-rate %.2f (limit %.2f): %s\n",
			s.Jobs, s.HitRate, hitLimit, status)

		if fresh.GoMaxProcs <= 1 {
			fmt.Fprintf(os.Stderr, "benchsim: spec %5d jobs ratio %.2fx: not gated at GOMAXPROCS=1 "+
				"(the overlap needs a spare core)\n", s.Jobs, s.Ratio)
			continue
		}
		limit := 0.0
		if hasBase {
			limit = b.Ratio * (1 - maxRegression)
		}
		if s.Jobs == simJobs[len(simJobs)-1] && limit < specRatioFloor {
			limit = specRatioFloor
		}
		status = "ok"
		if s.Ratio < limit {
			status = "REGRESSION"
			bad++
		}
		fmt.Fprintf(os.Stderr, "benchsim: spec %5d jobs ratio %.2fx (limit %.2fx): %s\n",
			s.Jobs, s.Ratio, limit, status)
	}
	return bad
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsim:", err)
		os.Exit(1)
	}
}
