package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dynp/internal/engine"
	"dynp/internal/experiment"
	"dynp/internal/job"
	"dynp/internal/rms"
	"dynp/internal/sim"
	"dynp/internal/workload"
)

// tiny shrinks a workload to a size a test can run in a second or two.
func tiny(t *testing.T, name string) (config, options) {
	t.Helper()
	cfg, ok := workloadConfig(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	cfg.offJobs, cfg.offStreams = 400, 2
	cfg.sweepRounds, cfg.sweepSets, cfg.sweepJobs, cfg.golden = 2, 2, 150, false
	cfg.onJobs = 200
	cfg.setupChildren = 0 // a test binary cannot re-run itself as the benchmark
	return cfg, options{workload: name, seed: 3, seconds: 1, trace: true, root: "..", work: t.TempDir()}
}

func TestTinyRunEmitsEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg, opt := tiny(t, name)
			res, err := execute(cfg, opt, os.Stderr)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Fatalf("checks failed on a clean tree: %v", res.problems)
			}
			for _, traced := range []bool{false, true} {
				line, err := res.resultLine(cfg, traced)
				if err != nil {
					t.Fatal(err)
				}
				var out struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &out); err != nil {
					t.Fatalf("result line %q: %v", line, err)
				}
				want := endToEndMetrics
				if traced {
					want = perLayerMetrics
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(out.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := out.Metrics[m]
					if !ok || got.Value == nil || got.Unit == "" || math.IsNaN(*got.Value) {
						t.Errorf("traced=%v: metric %s missing, valueless or unitless: %+v", traced, m, got)
					}
				}
				if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, out.Correct, out.Attempted, out.Failed)
				}
			}
		})
	}
}

// simOf runs a small stream and returns it with its records.
func simOf(t *testing.T) (*job.Set, *sim.Result) {
	t.Helper()
	cfg, opt := tiny(t, "sim-deep")
	in, err := prepare(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	in.close()
	set := in.streams[0]
	res, err := sim.Run(set, newDriver())
	if err != nil {
		t.Fatal(err)
	}
	return set, res
}

func TestCheckRecordsRejectsCorruption(t *testing.T) {
	set, res := simOf(t)
	if err := checkRecords(res, set); err != nil {
		t.Fatalf("clean records rejected: %v", err)
	}
	fp := simFingerprint(res)
	corrupt := func(name string, edit func(recs []sim.Record) []sim.Record) {
		t.Run(name, func(t *testing.T) {
			bad := *res
			bad.Records = edit(append([]sim.Record(nil), res.Records...))
			if err := checkRecords(&bad, set); err == nil {
				t.Error("corrupted records accepted")
			}
		})
	}
	corrupt("flipped start", func(r []sim.Record) []sim.Record {
		r[len(r)/2].Start++
		return r
	})
	corrupt("finished twice", func(r []sim.Record) []sim.Record {
		r[1] = r[0]
		return r
	})
	corrupt("missing job", func(r []sim.Record) []sim.Record { return r[1:] })
	corrupt("oversubscribed", func(r []sim.Record) []sim.Record {
		// Start every job at once, keeping each one's run time.
		for i := range r {
			r[i].Start, r[i].Finish = r[i].Job.Submit, r[i].Job.Submit+r[i].Job.Runtime
		}
		return r
	})

	flipped := *res
	flipped.Records = append([]sim.Record(nil), res.Records...)
	flipped.Records[0].Start++
	if simFingerprint(&flipped) == fp {
		t.Error("fingerprint ignores a flipped start time")
	}
}

func TestCompareGoldenRejectsChangedRow(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", goldenFile))
	if err != nil {
		t.Fatal(err)
	}
	g := string(golden)
	if err := compareGolden(g, g); err != nil {
		t.Fatalf("golden file differs from itself: %v", err)
	}
	row := shrinkRows(g, "Table 5:", "1.0")["KTH"]
	if row == "" {
		t.Fatal("no KTH shrink-1.0 row in Table 5")
	}
	fields := strings.Fields(row)
	fields[2] = "9" + fields[2] // SLDwA SJF
	lines := strings.Split(g, "\n")
	for i, l := range lines {
		if strings.Join(strings.Fields(l), " ") == row {
			lines[i] = strings.Join(fields, "  ")
		}
	}
	if err := compareGolden(g, strings.Join(lines, "\n")); err == nil {
		t.Error("changed table row accepted")
	}
	if err := compareGolden(g, strings.Replace(g, "Table 4:", "Table four:", 1)); err == nil {
		t.Error("missing Table 4 accepted")
	}
}

func TestGoldenRowsAtDefaultSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reduced paper sweep")
	}
	cfg, _ := workloadConfig("paper-sweep")
	results, err := experiment.RunAll(workload.Models(), sweepConfig(cfg, defaultSeed, runtime.NumCPU()))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGolden("..", results); err != nil {
		t.Fatal(err)
	}
	if err := checkSweep(cfg, defaultSeed, results); err != nil {
		t.Fatal(err)
	}
}

// The first sweep round runs at --seed itself, so the default seed's first
// round is the committed paper configuration; every round of every seed
// draws its own job sets.
func TestSweepSeedsAreDistinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for _, seed := range []uint64{1, 2, defaultSeed} {
		if got := sweepSeed(seed, 0); got != seed {
			t.Errorf("round 0 of seed %d runs at %d", seed, got)
		}
		for r := 0; r < 8; r++ {
			s := sweepSeed(seed, r)
			if seen[s] {
				t.Errorf("seed %d round %d repeats sweep seed %d", seed, r, s)
			}
			seen[s] = true
		}
	}
}

func TestOnlineChecksRejectCorruption(t *testing.T) {
	cfg, opt := tiny(t, "sim-deep")
	in, err := prepare(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	sess, br := in.sessions[0], in.bridges[0]
	on := runOnline(sess, br, 300*time.Millisecond)
	if len(on.problems) > 0 || on.failed > 0 {
		t.Fatalf("clean online stage failed: %v", on.problems)
	}

	// A bridge whose offline schedule says one job started a second later.
	last := on.last
	var victim job.ID
	for _, j := range br.set.Jobs {
		if br.start[j.ID] <= last {
			victim = j.ID
		}
	}
	if victim == 0 {
		t.Fatal("no job started in the replayed prefix")
	}
	bad := *br
	bad.start = make(map[job.ID]int64, len(br.start))
	for id, s := range br.start {
		bad.start[id] = s
	}
	bad.start[victim]++
	if _, err := checkOnline(sess.sched, br, last, on.ids); err != nil {
		t.Fatalf("clean online schedule rejected: %v", err)
	}
	if _, err := checkOnline(sess.sched, &bad, last, on.ids); err == nil {
		t.Error("flipped offline start accepted")
	}

	st, rep := sess.sched.Status(), sess.sched.Report()
	if err := sameState(st, rep, st, rep); err != nil {
		t.Fatalf("state differs from itself: %v", err)
	}
	rep2 := rep
	rep2.Jobs++
	if err := sameState(st, rep, st, rep2); err == nil {
		t.Error("changed report accepted")
	}
	st2 := sess.sched.Status()
	st2.Now++
	if err := sameState(st, rep, st2, rep); err == nil {
		t.Error("changed status accepted")
	}

	lastNow := st.Now + 1
	if err := checkStatus(st, &lastNow); err == nil {
		t.Error("status clock running back accepted")
	}
	j := br.set.Jobs[0]
	q := rms.Quote{Width: j.Width, Estimate: j.Estimate, Start: 10, Finish: 10 + j.Estimate}
	if err := checkQuote([]rms.Quote{q}, j); err != nil {
		t.Fatalf("consistent quote rejected: %v", err)
	}
	q.Finish++
	if err := checkQuote([]rms.Quote{q}, j); err == nil {
		t.Error("inconsistent quote accepted")
	}
}

func TestTimingWrapperForwardsExtensions(t *testing.T) {
	tr := &planTrace{every: 1}
	d := tr.wrap(newDriver())
	if _, ok := d.(engine.QueueTracker); !ok {
		t.Error("wrapper of a dynP driver hides engine.QueueTracker")
	}
	if _, ok := d.(engine.DecisionCaser); !ok {
		t.Error("wrapper hides engine.DecisionCaser")
	}
	set, res := simOf(t)
	wrapped, err := sim.Run(set, tr.wrap(newDriver()))
	if err != nil {
		t.Fatal(err)
	}
	if simFingerprint(wrapped) != simFingerprint(res) {
		t.Error("timing wrapper changed the schedule")
	}
	if st := tr.stats(); st.calls != wrapped.Events || len(st.captures) == 0 {
		t.Errorf("wrapper saw %d plans and %d captures for %d events", st.calls, len(st.captures), wrapped.Events)
	}
}
