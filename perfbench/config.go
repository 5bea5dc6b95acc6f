package main

import (
	"sort"

	"dynp/internal/core"
	"dynp/internal/policy"
	"dynp/internal/sim"
	"dynp/internal/workload"
)

// defaultSeed is the seed of the committed paper outputs.
const defaultSeed = 2004

// config sizes one workload. Each workload runs the offline, online and
// restart stages; the fields choose the input regime of each and how a
// run's --seconds are split between the timed stages.
type config struct {
	name string

	// Offline stage: either offStreams independent streams of offJobs
	// jobs from offModel at offShrink, each simulated with a fresh
	// dynP/SJF-preferred driver (sequential tuner), one simulation per
	// CPU at a time, or (sweep) sweepRounds runs of experiment.RunAll
	// over all four trace models at shrink 1.0 with the five paper
	// schedulers, each round on job sets of its own seed (see sweepSeed).
	offModel    workload.Model
	offShrink   float64
	offJobs     int
	offStreams  int
	sweep       bool
	sweepRounds int
	sweepSets   int
	sweepJobs   int
	golden      bool // compare the sweep's shrink-1.0 table rows with paper_output.txt

	// Online stage: onlineStreams streams of onJobs jobs from onModel at
	// onShrink, each pre-scheduled offline during set-up and served by its
	// own dynpd (see serve).
	onModel  workload.Model
	onShrink float64
	onJobs   int

	// offShare is the share of --seconds given to the offline stage; the
	// online stage gets the rest. The sweep runs its sweepRounds whatever
	// the share.
	offShare float64

	setupChildren int // extra set-ups in fresh processes for setup_s
}

// The online stage's open-loop rates, in requests per second: the
// mutator's deliver batches and the reader's requests, of which every
// (quoteShare+1)-th is a status read and the others are quotes.
const (
	mutateRate = 1000
	readRate   = 250
	quoteShare = 4
)

const (
	// onlineStreams independent streams share the online stage, so its
	// latencies do not hang on one stream's queue dynamics.
	onlineStreams   = 4
	checkpointEvery = 256 // journal checkpoint interval, in events
	restarts        = 20  // journal replays per dynpd timed for restart_s
	captureEvery    = 64  // traced run: copy every n-th Plan input of a dynP driver for the second pass
)

// workloads are the benchmark's named workloads; README.md gives the
// reason for each. The offline inputs are many independent streams or
// sweep rounds because one stream's cost depends strongly on how deep
// its queue happens to grow: jobs_per_s aggregates enough of them that
// it hardly moves with --seed.
var workloads = map[string]config{
	// The paper's heaviest load: deep queues, where Driver.Plan is
	// nearly all of the simulation time.
	"sim-deep": {
		offModel: workload.KTH, offShrink: 0.6, offJobs: 5000, offStreams: 112,
		onModel: workload.KTH, onShrink: 0.6, onJobs: 2500,
		offShare: 0.8,
	},
	// The reproduction users run: every trace, every paper scheduler,
	// shallow queues, parallel over the shard pool.
	"paper-sweep": {
		sweep: true, sweepRounds: 12, sweepSets: 5, sweepJobs: 2500, golden: true,
		onModel: workload.KTH, onShrink: 1.0, onJobs: 2500,
		offShare: 0.8,
	},
}

func init() {
	for name, c := range workloads {
		c.name, c.setupChildren = name, 2
		workloads[name] = c
	}
}

func workloadConfig(name string) (config, bool) {
	c, ok := workloads[name]
	return c, ok
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// newDriver builds the scheduler every stage runs: dynP with the paper's
// unfair SJF-preferred decider and a sequential tuner.
func newDriver() sim.Driver { return sim.NewDynP(core.Preferred{Policy: policy.SJF}) }

// endToEndMetrics are reported by every untraced run, on every workload.
var endToEndMetrics = []string{"setup_s", "jobs_per_s", "heap_peak_mb"}

// perLayerMetrics are reported by every traced run, on every workload.
var perLayerMetrics = []string{
	"mutate_p50_ms", "mutate_p99_ms", "quote_p50_ms", "quote_p99_ms", "restart_s",
	"sim.events", "sim.self_share", "engine.queue_mean", "engine.queue_max",
	"core.plan_calls", "core.plan_us_p50", "core.plan_us_p99", "core.plan_share", "core.switches",
	"plan.samples", "plan.base_us", "plan.build_us", "plan.score_us", "core.decide_us",
	"profile.place_us", "profile.steps_mean",
	"shard.sims", "shard.serial_s", "shard.speedup",
	"workload.calibrate_s", "workload.generate_s",
	"rms.mutate_n", "rms.mutate_svc_us_p50", "rms.mutate_svc_us_p99",
	"rms.quote_n", "rms.quote_svc_us_p50", "rms.quote_svc_us_p99",
	"rms.status_n", "rms.status_us_p99",
	"rms.plan_n", "rms.plan_us_p99", "rms.queue_mean", "rms.busy_sheds", "rms.twins_live_end",
	"journal.writes", "journal.write_us_p99", "journal.syncs", "journal.sync_ms_p99",
	"journal.bytes", "journal.replay_events",
	"gen.late_us_p50", "gen.late_us_p99",
	"alloc_mb", "gc_cycles",
	"trace.offline_overhead_pct", "trace.online_overhead_pct",
}
