package main

import (
	"runtime"
	"sync"
	"time"

	"dynp/internal/core"
	"dynp/internal/engine"
	"dynp/internal/experiment"
	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
	"dynp/internal/sim"
	"dynp/internal/workload"
)

// planTrace collects the timed Plan calls of a traced offline stage.
type planTrace struct {
	every int // capture every n-th Plan input of a dynP driver

	mu      sync.Mutex
	drivers []*timedDriver
}

// capture is one Plan input of a dynP driver, copied for the second pass.
type capture struct {
	now        int64
	capacity   int
	running    []plan.Running
	waiting    []*job.Job
	old        policy.Policy // active policy before the call
	decider    core.Decider
	candidates []policy.Policy
}

// timedDriver forwards to a driver, timing every Plan call. It also
// forwards the optional engine extensions the wrapped driver implements
// (see wrap), so the engine treats it exactly like the driver itself.
type timedDriver struct {
	inner sim.Driver
	tuner *core.SelfTuner // nil for static drivers
	every int

	calls    int
	planUs   []float64
	queued   []float64
	captures []capture
}

// trackingDriver is a timedDriver over a driver that keeps incremental
// queue orders (engine.QueueTracker); without the notifications the
// dynP tuner would silently fall back to full sorts.
type trackingDriver struct {
	*timedDriver
	qt engine.QueueTracker
}

func (d *trackingDriver) NoteSubmit(j *job.Job) { d.qt.NoteSubmit(j) }
func (d *trackingDriver) NoteRemove(j *job.Job) { d.qt.NoteRemove(j) }

// wrap returns a timing wrapper for d that the trace collects.
func (t *planTrace) wrap(d sim.Driver) sim.Driver {
	td := &timedDriver{inner: d, every: t.every}
	if dp, ok := d.(*sim.DynP); ok {
		td.tuner = dp.Tuner
	}
	t.mu.Lock()
	t.drivers = append(t.drivers, td)
	t.mu.Unlock()
	if qt, ok := d.(engine.QueueTracker); ok {
		return &trackingDriver{timedDriver: td, qt: qt}
	}
	return td
}

func (d *timedDriver) Name() string                { return d.inner.Name() }
func (d *timedDriver) ActivePolicy() policy.Policy { return d.inner.ActivePolicy() }

// LastDecisionCase implements engine.DecisionCaser.
func (d *timedDriver) LastDecisionCase() string {
	if dc, ok := d.inner.(engine.DecisionCaser); ok {
		return dc.LastDecisionCase()
	}
	return ""
}

func (d *timedDriver) Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	d.calls++
	if d.tuner != nil && d.calls%d.every == 0 {
		d.captures = append(d.captures, capture{
			now:        now,
			capacity:   capacity,
			running:    append([]plan.Running(nil), running...),
			waiting:    append([]*job.Job(nil), waiting...),
			old:        d.inner.ActivePolicy(),
			decider:    d.tuner.Decider(),
			candidates: d.tuner.Candidates(),
		})
	}
	t := time.Now()
	s := d.inner.Plan(now, capacity, running, waiting)
	el := time.Since(t)
	d.planUs = append(d.planUs, micros(el))
	d.queued = append(d.queued, float64(len(waiting)))
	return s
}

// planStats aggregates the collected calls.
type planStats struct {
	calls    int
	planUs   []float64
	queued   []float64
	sumPlan  time.Duration
	switches int
	captures []capture
}

func (t *planTrace) stats() planStats {
	var st planStats
	for _, d := range t.drivers {
		st.calls += d.calls
		st.planUs = append(st.planUs, d.planUs...)
		st.queued = append(st.queued, d.queued...)
		st.captures = append(st.captures, d.captures...)
		if d.tuner != nil {
			st.switches += d.tuner.Stats().Switches
		}
	}
	var sum float64
	for _, us := range st.planUs {
		sum += us
	}
	st.sumPlan = time.Duration(sum * float64(time.Microsecond))
	return st
}

// tracedShare is the share of sim-deep's streams the traced run repeats,
// as 1/tracedShare: the repetition runs three times, once of them on one
// worker, and must still end well inside a run's time limit.
const tracedShare = 4

// offlineTrace is the traced repetition of the offline stage on one
// reference input, run three times: untraced over the shard pool (the
// reference), through the timing wrappers over the shard pool, and
// untraced on one worker.
type offlineTrace struct {
	tr                  *planTrace
	ref, wall, serial   time.Duration
	sims, events        int
	refFps, fps, serFps []uint64
}

// traceStreams repeats a prefix of the streams.
func traceStreams(streams []*job.Set, every int) (*offlineTrace, error) {
	streams = streams[:max(1, len(streams)/tracedShare)]
	ot := &offlineTrace{tr: &planTrace{every: every}, sims: len(streams)}
	fingerprints := func(results []*sim.Result) []uint64 {
		fps := make([]uint64, len(results))
		for i, res := range results {
			fps[i] = simFingerprint(res)
		}
		return fps
	}
	results, wall, err := simStreams(streams, runtime.NumCPU(), nil)
	if err != nil {
		return nil, err
	}
	ot.ref, ot.refFps = wall, fingerprints(results)
	if results, ot.wall, err = simStreams(streams, runtime.NumCPU(), ot.tr.wrap); err != nil {
		return nil, err
	}
	ot.fps = fingerprints(results)
	for _, res := range results {
		ot.events += res.Events
	}
	if results, ot.serial, err = simStreams(streams, 1, nil); err != nil {
		return nil, err
	}
	ot.serFps = fingerprints(results)
	return ot, nil
}

// traceSweep repeats the sweep's first round.
func traceSweep(cfg config, seed uint64, every int) (*offlineTrace, error) {
	ot := &offlineTrace{
		tr:   &planTrace{every: every},
		sims: len(workload.Models()) * len(experiment.PaperSchedulers()) * cfg.sweepSets,
	}
	results, wall, err := simSweep(cfg, seed, runtime.NumCPU(), nil)
	if err != nil {
		return nil, err
	}
	ot.ref, ot.refFps = wall, sweepFingerprints(results)
	if results, ot.wall, err = simSweep(cfg, seed, runtime.NumCPU(), ot.tr.wrap); err != nil {
		return nil, err
	}
	ot.fps = sweepFingerprints(results)
	if results, ot.serial, err = simSweep(cfg, seed, 1, nil); err != nil {
		return nil, err
	}
	ot.serFps = sweepFingerprints(results)
	ot.events = ot.tr.stats().calls // one Plan call per scheduling event
	return ot, nil
}

// layerTimes are the second-pass timings of the tuner's phases, one
// sample per captured Plan input.
type layerTimes struct {
	baseUs, buildUs, scoreUs, decideUs, placeUs, steps []float64
}

// maxSecondPass bounds the captured inputs the second pass replays.
const maxSecondPass = 2000

// reps repeats the sub-microsecond phases (scoring, deciding) so one
// timing covers many calls.
const reps = 64

// sink keeps the results of timed calls alive.
var sink float64

// secondPass times the tuner's phases on captured Plan inputs, calling
// each layer's public entry points the way the tuner does: the base
// profile of the running jobs, one candidate schedule per policy, its
// SLDwA score, the decider, and the profile placements of one candidate
// order.
func secondPass(captures []capture) layerTimes {
	var lt layerTimes
	stride := 1
	if len(captures) > maxSecondPass {
		stride = (len(captures) + maxSecondPass - 1) / maxSecondPass
	}
	var keep float64
	for i := 0; i < len(captures); i += stride {
		c := captures[i]
		t := time.Now()
		base := plan.BuildBasePooled(c.now, c.capacity, c.running)
		lt.baseUs = append(lt.baseUs, micros(time.Since(t)))

		scheds := make([]*plan.Schedule, len(c.candidates))
		t = time.Now()
		for k, p := range c.candidates {
			scheds[k] = plan.BuildFrom(base, c.waiting, p)
		}
		lt.buildUs = append(lt.buildUs, micros(time.Since(t))/float64(len(c.candidates)))

		values := make([]float64, len(scheds))
		t = time.Now()
		for r := 0; r < reps; r++ {
			for k, s := range scheds {
				values[k] = s.PlannedSLDwA()
			}
		}
		lt.scoreUs = append(lt.scoreUs, micros(time.Since(t))/float64(reps*len(scheds)))

		t = time.Now()
		for r := 0; r < reps; r++ {
			if c.decider.Decide(c.old, c.candidates, values) == c.old {
				keep++
			}
		}
		lt.decideUs = append(lt.decideUs, micros(time.Since(t))/reps)

		if len(c.waiting) > 0 {
			prof := base.Profile()
			ordered := policy.Order(policy.SJF, c.waiting)
			t = time.Now()
			for _, j := range ordered {
				keep += float64(prof.Place(c.now, j.Width, j.Estimate))
			}
			lt.placeUs = append(lt.placeUs, micros(time.Since(t))/float64(len(ordered)))
			times, _ := prof.Steps()
			lt.steps = append(lt.steps, float64(len(times)))
		}
		base.Release()
	}
	sink = keep
	return lt
}
