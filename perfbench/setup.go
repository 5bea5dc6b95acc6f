package main

import (
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"dynp/internal/job"
	"dynp/internal/rng"
	"dynp/internal/sim"
	"dynp/internal/workload"
)

// onlineLabel derives the online stream from the seed independently of
// the offline streams, so no stage sees another stage's input.
const onlineLabel = 0x6f6e6c696e65 // "online"

// inputs is everything set-up produces: the generated streams, the
// offline schedules of the online streams and one serving dynpd each.
type inputs struct {
	streams  []*job.Set // offline streams, already shrunk (nil for the sweep)
	bridges  []*bridge  // the online streams and their offline schedules
	sessions []*session // the dynpd serving each online stream

	calibrate time.Duration // fitting the trace models
	generate  time.Duration // drawing the job streams
	total     time.Duration
}

// prepare performs the workload's set-up: model calibration, stream
// generation, the offline pre-schedule of the online stream and the
// dynpd start. The whole of it is what setup_s times.
func prepare(cfg config, opt options) (*inputs, error) {
	in := &inputs{}
	t0 := time.Now()
	for _, m := range cfg.models() {
		// Generating once fits the model; the fit is memoised per process.
		if _, err := m.Generate(1, rng.New(opt.seed)); err != nil {
			return nil, fmt.Errorf("calibrating %s: %w", m.Name, err)
		}
	}
	in.calibrate = time.Since(t0)

	t1 := time.Now()
	if !cfg.sweep {
		sets, err := cfg.offModel.GenerateSets(cfg.offStreams, cfg.offJobs, opt.seed)
		if err != nil {
			return nil, err
		}
		for _, s := range sets {
			in.streams = append(in.streams, s.Shrink(cfg.offShrink))
		}
	}
	var onSets []*job.Set
	for k := 0; k < onlineStreams; k++ {
		set, err := cfg.onModel.Generate(cfg.onJobs, rng.New(opt.seed).Derive(onlineLabel, uint64(k)))
		if err != nil {
			return nil, err
		}
		onSets = append(onSets, set.Shrink(cfg.onShrink))
	}
	in.generate = time.Since(t1)

	for _, set := range onSets {
		b, err := newBridge(set)
		if err != nil {
			return nil, err
		}
		in.bridges = append(in.bridges, b)
	}
	for _, b := range in.bridges {
		sess, err := startSession(b, opt.work, nil)
		if err != nil {
			in.close()
			return nil, err
		}
		in.sessions = append(in.sessions, sess)
	}
	in.total = time.Since(t0)
	return in, nil
}

// close stops every dynpd and deletes its journal.
func (in *inputs) close() {
	for _, s := range in.sessions {
		s.close()
	}
}

// models lists the trace models the workload calibrates.
func (c config) models() []workload.Model {
	if c.sweep {
		return workload.Models()
	}
	ms := []workload.Model{c.offModel}
	if c.onModel != c.offModel {
		ms = append(ms, c.onModel)
	}
	return ms
}

// setupOnce performs one set-up and tears it down again; it backs the
// --setup-only mode that childSetups runs in fresh processes.
func setupOnce(cfg config, opt options) (float64, error) {
	in, err := prepare(cfg, opt)
	if err != nil {
		return 0, err
	}
	in.close()
	return in.total.Seconds(), nil
}

// childSetups times cfg.setupChildren further set-ups, each in a fresh
// process of this binary: model calibration is memoised per process, so
// only a fresh process pays what a user pays on every start.
func childSetups(cfg config, opt options) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary: %w", err)
	}
	var out []float64
	for i := 0; i < cfg.setupChildren; i++ {
		cmd := exec.Command(exe, "--setup-only",
			"--workload", cfg.name,
			"--seed", strconv.FormatUint(opt.seed, 10),
			"--work", opt.work,
			"--root", opt.root)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up in a fresh process: %w", err)
		}
		secs, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child printed %q: %w", b, err)
		}
		out = append(out, secs)
	}
	return out, nil
}

// bridge is the online stream together with its offline schedule: the
// online stage replays it as one deliver batch per simulator event
// instant, with every completion the simulator saw, so the online
// scheduler must reproduce the offline start and finish times exactly.
type bridge struct {
	set     *job.Set
	first   int64
	start   map[job.ID]int64
	finish  map[job.ID]int64
	batches []batch
}

// batch is one event instant: the jobs that complete before their
// estimate (killed jobs need no completion; the scheduler kills them
// itself) and the jobs submitted.
type batch struct {
	t    int64
	done []*job.Job
	subs []*job.Job
}

func newBridge(set *job.Set) (*bridge, error) {
	res, err := sim.Run(set, newDriver())
	if err != nil {
		return nil, fmt.Errorf("pre-scheduling the online stream: %w", err)
	}
	b := &bridge{
		set:    set,
		first:  res.First,
		start:  make(map[job.ID]int64, len(set.Jobs)),
		finish: make(map[job.ID]int64, len(set.Jobs)),
	}
	for _, r := range res.Records {
		b.start[r.Job.ID] = r.Start
		b.finish[r.Job.ID] = r.Finish
	}
	at := make(map[int64]*batch)
	get := func(t int64) *batch {
		if bt, ok := at[t]; ok {
			return bt
		}
		bt := &batch{t: t}
		at[t] = bt
		return bt
	}
	for _, j := range set.Jobs { // submission order
		bt := get(j.Submit)
		bt.subs = append(bt.subs, j)
	}
	for _, j := range set.Jobs {
		bt := get(b.finish[j.ID])
		if j.Runtime < j.Estimate {
			bt.done = append(bt.done, j)
		}
	}
	for _, bt := range at {
		b.batches = append(b.batches, *bt)
	}
	sort.Slice(b.batches, func(i, k int) bool { return b.batches[i].t < b.batches[k].t })
	return b, nil
}
