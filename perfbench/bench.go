package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"dynp/internal/experiment"
	"dynp/internal/workload"
)

const mib = 1 << 20

// execute runs one workload: set-up (timed in fresh processes too), the
// offline and online stages for --seconds, the restart stage, every
// output check, and with opt.trace the traced repetition.
func execute(cfg config, opt options, log io.Writer) (*result, error) {
	res := newResult()
	setups, err := childSetups(cfg, opt)
	if err != nil {
		return nil, err
	}
	in, err := prepare(cfg, opt)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer in.close()
	setups = append(setups, in.total.Seconds())
	res.set("setup_s", median(setups), "s", len(setups))
	res.set("workload.calibrate_s", in.calibrate.Seconds(), "s", 0)
	res.set("workload.generate_s", in.generate.Seconds(), "s", 0)

	budget := time.Duration(opt.seconds * float64(time.Second))
	offBudget := time.Duration(float64(budget) * cfg.offShare)
	onBudget := budget - offBudget

	c0 := readCounters()
	var off *offlineOutcome
	if cfg.sweep {
		off = runSweep(cfg, opt.seed)
	} else {
		off = runStreams(in.streams, offBudget)
	}
	heapOff := retainedHeap()
	on, rs := serve(in.sessions, in.bridges, onBudget, restarts)
	heapOn := retainedHeap()
	c1 := readCounters()

	res.ops(off.sims*off.passes, 0)
	res.check("offline stage", joinProblems(off.problems))
	if cfg.sweep && off.sweep != nil {
		res.check("sweep cells and direct re-runs", checkSweep(cfg, opt.seed, off.sweep))
		if cfg.golden {
			res.check("paper_output.txt rows", goldenCheck(cfg, opt, off))
		}
	}
	res.ops(on.attempted, on.failed)
	res.check("online stage", joinProblems(on.problems))
	res.ops(len(in.sessions)*restarts, len(in.sessions)*restarts-len(rs.times))
	res.check("restart", joinProblems(rs.problems))

	res.set("jobs_per_s", off.jobsPerS, "1/s", off.passes)
	res.set("mutate_p50_ms", quantile(on.mutLat, 0.50), "ms", len(on.mutLat))
	res.set("mutate_p99_ms", quantile(on.mutLat, 0.99), "ms", len(on.mutLat))
	res.set("quote_p50_ms", quantile(on.quoteLat, 0.50), "ms", len(on.quoteLat))
	res.set("quote_p99_ms", quantile(on.quoteLat, 0.99), "ms", len(on.quoteLat))
	res.set("restart_s", median(rs.times), "s", len(rs.times))
	res.set("heap_peak_mb", float64(max(heapOff, heapOn))/mib, "MB", 0)
	res.set("alloc_mb", float64(c1.allocBytes-c0.allocBytes)/mib, "MB", 0)
	res.set("gc_cycles", float64(c1.gcCycles-c0.gcCycles), "count", 0)
	res.set("gen.late_us_p50", quantile(on.late, 0.50), "us", len(on.late))
	res.set("gen.late_us_p99", quantile(on.late, 0.99), "us", len(on.late))

	if opt.trace {
		fmt.Fprintln(log, "traced repetition")
		if err := traced(cfg, opt, in, off, on, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// goldenCheck compares the sweep at the default seed with the committed
// paper output: the timed first round's results when it ran at that
// seed, otherwise one untimed sweep.
func goldenCheck(cfg config, opt options, off *offlineOutcome) error {
	results := off.sweep
	if opt.seed != defaultSeed {
		var err error
		results, err = experiment.RunAll(workload.Models(), sweepConfig(cfg, defaultSeed, runtime.NumCPU()))
		if err != nil {
			return err
		}
	}
	return checkGolden(opt.root, results)
}

func joinProblems(ps []string) error {
	errs := make([]error, len(ps))
	for i, p := range ps {
		errs[i] = errors.New(p)
	}
	return errors.Join(errs...)
}

// traced repeats the stages with timing wrappers around each layer and
// records the per-layer metrics. Its outputs must equal the untraced
// stages' outputs: the wrappers may cost time but not change a result.
func traced(cfg config, opt options, in *inputs, off *offlineOutcome, on *onlineOutcome, res *result) error {
	// Offline: every Plan call timed, a sample of its inputs copied.
	var (
		rep *offlineTrace
		err error
	)
	if cfg.sweep {
		rep, err = traceSweep(cfg, opt.seed, captureEvery)
	} else {
		rep, err = traceStreams(in.streams, captureEvery)
	}
	if err != nil {
		return err
	}
	want := off.fps[:len(rep.refFps)]
	res.ops(3*rep.sims, 0)
	res.check("repeated offline fingerprints", sameFingerprints(rep.refFps, want))
	res.check("traced offline fingerprints", sameFingerprints(rep.fps, want))
	res.check("serial offline fingerprints", sameFingerprints(rep.serFps, want))
	busy := rep.wall * time.Duration(runtime.NumCPU()) // worker time available to the traced pass

	st := rep.tr.stats()
	res.set("sim.events", float64(rep.events), "count", 0)
	res.set("sim.self_share", 1-st.sumPlan.Seconds()/busy.Seconds(), "ratio", 0)
	res.set("engine.queue_mean", mean(st.queued), "jobs", len(st.queued))
	res.set("engine.queue_max", slices.Max(st.queued), "jobs", len(st.queued))
	res.set("core.plan_calls", float64(st.calls), "count", 0)
	res.set("core.plan_us_p50", quantile(st.planUs, 0.50), "us", len(st.planUs))
	res.set("core.plan_us_p99", quantile(st.planUs, 0.99), "us", len(st.planUs))
	res.set("core.plan_share", st.sumPlan.Seconds()/busy.Seconds(), "ratio", 0)
	res.set("core.switches", float64(st.switches), "count", 0)
	res.set("shard.sims", float64(rep.sims), "count", 0)
	res.set("shard.serial_s", rep.serial.Seconds(), "s", 0)
	res.set("shard.speedup", rep.serial.Seconds()/rep.ref.Seconds(), "ratio", 0)
	res.set("trace.offline_overhead_pct", 100*(rep.wall.Seconds()/rep.ref.Seconds()-1), "%", 0)

	lt := secondPass(st.captures)
	n := len(lt.baseUs)
	res.set("plan.samples", float64(n), "count", 0)
	res.set("plan.base_us", median(lt.baseUs), "us", n)
	res.set("plan.build_us", median(lt.buildUs), "us", n)
	res.set("plan.score_us", median(lt.scoreUs), "us", n)
	res.set("core.decide_us", median(lt.decideUs), "us", n)
	res.set("profile.place_us", median(lt.placeUs), "us", len(lt.placeUs))
	res.set("profile.steps_mean", mean(lt.steps), "steps", len(lt.steps))

	// Online: the engine observed, the journal's disk operations timed,
	// the same stream replayed into a fresh dynpd.
	ot := &onlineTrace{}
	tin := &inputs{bridges: in.bridges}
	defer tin.close()
	for _, b := range in.bridges {
		sess, err := startSession(b, opt.work, ot)
		if err != nil {
			return err
		}
		tin.sessions = append(tin.sessions, sess)
	}
	budget := time.Duration(opt.seconds * float64(time.Second))
	on2, rs2 := serve(tin.sessions, in.bridges, budget-time.Duration(float64(budget)*cfg.offShare), 1)
	res.ops(on2.attempted, on2.failed)
	res.check("traced online stage", joinProblems(on2.problems))
	res.check("traced restart", joinProblems(rs2.problems))
	res.check("traced online fingerprint", sameFingerprints([]uint64{on2.fingerprint}, []uint64{on.fingerprint}))

	res.set("rms.mutate_n", float64(len(on2.mutSvc)), "count", 0)
	res.set("rms.mutate_svc_us_p50", quantile(on2.mutSvc, 0.50), "us", len(on2.mutSvc))
	res.set("rms.mutate_svc_us_p99", quantile(on2.mutSvc, 0.99), "us", len(on2.mutSvc))
	res.set("rms.quote_n", float64(len(on2.quoteSvc)), "count", 0)
	res.set("rms.quote_svc_us_p50", quantile(on2.quoteSvc, 0.50), "us", len(on2.quoteSvc))
	res.set("rms.quote_svc_us_p99", quantile(on2.quoteSvc, 0.99), "us", len(on2.quoteSvc))
	res.set("rms.status_n", float64(len(on2.statusSvc)), "count", 0)
	res.set("rms.status_us_p99", quantile(on2.statusSvc, 0.99), "us", len(on2.statusSvc))
	ot.mu.Lock()
	res.set("rms.plan_n", float64(len(ot.planUs)), "count", 0)
	res.set("rms.plan_us_p99", quantile(ot.planUs, 0.99), "us", len(ot.planUs))
	res.set("rms.queue_mean", mean(ot.queued), "jobs", len(ot.queued))
	ot.mu.Unlock()
	res.set("rms.busy_sheds", float64(on2.busy), "count", 0)
	res.set("rms.twins_live_end", float64(on2.twinsLive), "count", 0)
	fs := &ot.fs
	fs.mu.Lock()
	res.set("journal.writes", float64(len(fs.writeUs)), "count", 0)
	res.set("journal.write_us_p99", quantile(fs.writeUs, 0.99), "us", len(fs.writeUs))
	res.set("journal.syncs", float64(len(fs.syncMs)), "count", 0)
	res.set("journal.sync_ms_p99", quantile(fs.syncMs, 0.99), "ms", len(fs.syncMs))
	res.set("journal.bytes", float64(fs.bytes), "bytes", 0)
	fs.mu.Unlock()
	res.set("journal.replay_events", float64(rs2.replayed), "count", 0)
	res.set("trace.online_overhead_pct",
		100*(median(on2.mutSvc)/median(on.mutSvc)-1), "%", len(on2.mutSvc))
	return nil
}

func sameFingerprints(got, want []uint64) error {
	if !slices.Equal(got, want) {
		return fmt.Errorf("fingerprints %x, untraced run %x", got, want)
	}
	return nil
}
