package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"dynp/internal/engine"
	"dynp/internal/job"
	"dynp/internal/rms"
	"dynp/internal/vfs"
)

// session is one in-process dynpd: a journaled, quote-enabled scheduler
// behind an rms.Server on loopback, with one mutator and one reader
// connection.
type session struct {
	dir     string
	path    string
	fsys    vfs.FS
	sched   *rms.Scheduler
	journal *rms.Journal
	server  *rms.Server
	mut, rd *rms.Client
	trace   *onlineTrace // nil on untraced sessions
}

// startSession starts a dynpd for the bridge's stream. A non-nil trace
// attaches the engine observer and the timing filesystem.
func startSession(b *bridge, work string, trace *onlineTrace) (s *session, err error) {
	dir, err := os.MkdirTemp(work, "dynpd-")
	if err != nil {
		return nil, err
	}
	s = &session{dir: dir, path: filepath.Join(dir, "journal"), fsys: vfs.OS, trace: trace}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if trace != nil {
		s.fsys = &timedFS{FS: vfs.OS, st: &trace.fs}
	}
	if s.sched, err = rms.New(b.set.Machine, newDriver(), b.first); err != nil {
		return nil, err
	}
	if err = s.sched.EnableQuotes(newDriver); err != nil {
		return nil, err
	}
	if trace != nil {
		s.sched.AddObserver(trace)
	}
	if s.journal, err = rms.OpenJournalFS(s.fsys, s.path); err != nil {
		return nil, err
	}
	s.journal.SetSnapshotEvery(checkpointEvery)
	if err = s.sched.SetJournal(s.journal); err != nil {
		return nil, err
	}
	s.server = rms.NewServer(s.sched, true)
	addr, err := s.server.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// No automatic retries: a shed or failed request is counted, not hidden.
	opts := rms.ClientOptions{Retries: -1}
	if s.mut, err = rms.DialOptions(addr.String(), opts); err != nil {
		return nil, err
	}
	if s.rd, err = rms.DialOptions(addr.String(), opts); err != nil {
		return nil, err
	}
	return s, nil
}

// stopServing closes the connections, the server and the journal,
// leaving the journal files for a restart.
func (s *session) stopServing() error {
	var errs []error
	if s.mut != nil {
		s.mut.Close()
		s.mut = nil
	}
	if s.rd != nil {
		s.rd.Close()
		s.rd = nil
	}
	if s.server != nil {
		errs = append(errs, s.server.Close())
		s.server = nil
	}
	if s.journal != nil {
		errs = append(errs, s.journal.Close())
		s.journal = nil
	}
	return errors.Join(errs...)
}

// close stops serving and deletes the journal.
func (s *session) close() {
	_ = s.stopServing() // teardown: the run's checks have already read the state
	os.RemoveAll(s.dir)
}

// onlineOutcome is what one online stage measured and checked.
type onlineOutcome struct {
	mutLat, quoteLat []float64 // ms, from when the request was due
	mutSvc, quoteSvc []float64 // µs, from send to reply
	statusSvc        []float64 // µs
	late             []float64 // µs the generator sent after it could have
	attempted        int
	failed, busy     int
	problems         []string
	fingerprint      uint64            // online starts and finishes of the replayed prefix
	last             int64             // the last delivered instant
	ids              map[job.ID]job.ID // stream job -> online job, for the replayed prefix
	twinsLive        int64
}

func (o *onlineOutcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// serve drives every session in turn for an equal share of dur, then
// restarts it reps times (see restart), and pools the samples: spreading
// the restarts over the stage keeps one stall of the host from hitting
// them all.
func serve(sessions []*session, bridges []*bridge, dur time.Duration, reps int) (*onlineOutcome, *restartOutcome) {
	out, rs := &onlineOutcome{}, &restartOutcome{}
	fps := fnv.New64a()
	for i, s := range sessions {
		o := runOnline(s, bridges[i], dur/time.Duration(len(sessions)))
		out.mutLat = append(out.mutLat, o.mutLat...)
		out.quoteLat = append(out.quoteLat, o.quoteLat...)
		out.mutSvc = append(out.mutSvc, o.mutSvc...)
		out.quoteSvc = append(out.quoteSvc, o.quoteSvc...)
		out.statusSvc = append(out.statusSvc, o.statusSvc...)
		out.late = append(out.late, o.late...)
		out.attempted += o.attempted
		out.failed += o.failed
		out.busy += o.busy
		out.twinsLive += o.twinsLive
		out.problems = append(out.problems, o.problems...)
		fmt.Fprintf(fps, "%x;", o.fingerprint)

		r := restart(s, bridges[i], reps)
		rs.times = append(rs.times, r.times...)
		rs.replayed += r.replayed
		rs.problems = append(rs.problems, r.problems...)
	}
	out.fingerprint = fps.Sum64()
	return out, rs
}

// runOnline drives the session open loop for dur: the mutator replays
// the bridge's batches at mutateRate, the reader sends quotes and
// status requests at readRate. Each request is timed from when it
// was due, so a stall also delays, and is charged to, the requests
// queued behind it. It then checks the online schedule against the
// offline one.
func runOnline(s *session, b *bridge, dur time.Duration) *onlineOutcome {
	nm := int(mutateRate * dur.Seconds())
	nm = max(1, min(nm, len(b.batches)))
	nr := max(1, int(readRate*dur.Seconds()))
	out := &onlineOutcome{attempted: nm + nr}

	onlineID := make(map[job.ID]job.ID, len(b.set.Jobs))
	begin := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards out's shared fields across the two loops
	// record files one request. lat is nil for requests whose latency is
	// not an end-to-end metric (status reads).
	record := func(lat, svc *[]float64, due, sent, replied time.Time, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			var se *rms.ServerError
			if errors.As(err, &se) && se.Busy {
				out.busy++
			}
			out.failed++
			if len(out.problems) < 10 {
				out.problem("request failed: %v", err)
			}
			// A failed or shed request misses any latency limit.
			replied = sent.Add(time.Minute)
		}
		if lat != nil {
			*lat = append(*lat, millis(replied.Sub(due)))
		}
		*svc = append(*svc, micros(replied.Sub(sent)))
	}

	wg.Add(2)
	go func() { // mutator
		defer wg.Done()
		pace, err := newPacer()
		if err != nil {
			record(nil, &out.mutSvc, begin, begin, begin, err)
			return
		}
		defer pace.close()
		var late []float64
		free := begin // when the connection was last free
		for i := 0; i < nm; i++ {
			due := begin.Add(time.Duration(float64(i) / mutateRate * float64(time.Second)))
			if err := pace.waitUntil(due); err != nil {
				record(&out.mutLat, &out.mutSvc, due, due, due, err)
				continue
			}
			bt := b.batches[i]
			done := make([]job.ID, len(bt.done))
			for k, j := range bt.done {
				done[k] = onlineID[j.ID]
			}
			subs := make([]rms.Submission, len(bt.subs))
			for k, j := range bt.subs {
				subs[k] = rms.Submission{Width: j.Width, Estimate: j.Estimate}
			}
			sent := time.Now()
			infos, err := s.mut.Deliver(bt.t, done, subs)
			replied := time.Now()
			if err == nil && len(infos) != len(subs) {
				err = fmt.Errorf("deliver at t=%d: %d infos for %d submissions", bt.t, len(infos), len(subs))
			}
			for k := 0; k < len(infos) && k < len(bt.subs); k++ {
				onlineID[bt.subs[k].ID] = infos[k].ID
			}
			record(&out.mutLat, &out.mutSvc, due, sent, replied, err)
			// The generator's own lateness: time it sent after the request
			// was due and the connection was free.
			late = append(late, micros(sent.Sub(later(due, free))))
			free = replied
		}
		mu.Lock()
		out.late = append(out.late, late...)
		mu.Unlock()
	}()
	go func() { // reader
		defer wg.Done()
		pace, err := newPacer()
		if err != nil {
			record(nil, &out.statusSvc, begin, begin, begin, err)
			return
		}
		defer pace.close()
		var late []float64
		free := begin
		lastNow := int64(-1 << 62)
		for i := 0; i < nr; i++ {
			due := begin.Add(time.Duration(float64(i) / readRate * float64(time.Second)))
			if err := pace.waitUntil(due); err != nil {
				record(nil, &out.statusSvc, due, due, due, err)
				continue
			}
			sent := time.Now()
			var replied time.Time
			if i%(quoteShare+1) == quoteShare {
				st, err := s.rd.Status()
				replied = time.Now()
				if err == nil {
					err = checkStatus(st, &lastNow)
				}
				record(nil, &out.statusSvc, due, sent, replied, err)
			} else {
				j := b.set.Jobs[i%len(b.set.Jobs)]
				qs, err := s.rd.Quote(j.Width, j.Estimate, 1)
				replied = time.Now()
				if err == nil {
					err = checkQuote(qs, j)
				}
				record(&out.quoteLat, &out.quoteSvc, due, sent, replied, err)
			}
			late = append(late, micros(sent.Sub(later(due, free))))
			free = replied
		}
		mu.Lock()
		out.late = append(out.late, late...)
		mu.Unlock()
	}()
	wg.Wait()
	out.twinsLive = s.sched.QuoteTwinsLive()
	if out.twinsLive != 0 {
		out.problem("%d quote twins still checked out after the reader finished", out.twinsLive)
	}
	out.last, out.ids = b.batches[nm-1].t, onlineID
	fp, err := checkOnline(s.sched, b, out.last, onlineID)
	if err != nil {
		out.problem("online schedule: %v", err)
	}
	out.fingerprint = fp
	return out
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// checkStatus checks one status snapshot: the clock never runs back and
// the machine is never oversubscribed.
func checkStatus(st rms.Status, lastNow *int64) error {
	if st.Now < *lastNow {
		return fmt.Errorf("status clock ran back from %d to %d", *lastNow, st.Now)
	}
	*lastNow = st.Now
	used := 0
	for _, r := range st.Running {
		used += r.Width
	}
	if used != st.UsedProcs || used > st.Capacity-st.FailedProcs {
		return fmt.Errorf("status: %d processors in use (reported %d) on %d", used, st.UsedProcs, st.Capacity)
	}
	return nil
}

// checkQuote checks one quote answer for internal consistency.
func checkQuote(qs []rms.Quote, j *job.Job) error {
	if len(qs) != 1 {
		return fmt.Errorf("quote: %d answers for one job", len(qs))
	}
	q := qs[0]
	if q.Width != j.Width || q.Estimate != j.Estimate {
		return fmt.Errorf("quote answered for %dx%d, asked %dx%d", q.Width, q.Estimate, j.Width, j.Estimate)
	}
	if q.Start == rms.NeverStart {
		return fmt.Errorf("quote: a %d-wide job can never start", q.Width)
	}
	if q.Finish != q.Start+q.Estimate || q.Wait < 0 {
		return fmt.Errorf("quote: start %d finish %d wait %d", q.Start, q.Finish, q.Wait)
	}
	return nil
}

// checkOnline compares the online scheduler with the offline schedule of
// the same stream, for every job submitted up to the last delivered
// instant, and returns a fingerprint of the online times.
func checkOnline(sched *rms.Scheduler, b *bridge, last int64, onlineID map[job.ID]job.ID) (uint64, error) {
	h := fnv.New64a()
	var errs []error
	for _, j := range b.set.Jobs {
		if j.Submit > last {
			break
		}
		id, ok := onlineID[j.ID]
		if !ok {
			errs = append(errs, fmt.Errorf("job %d was never acknowledged", j.ID))
			continue
		}
		info, err := sched.Job(id)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		start, finish := b.start[j.ID], b.finish[j.ID]
		switch {
		case start > last:
			if info.State != rms.StateWaiting {
				errs = append(errs, fmt.Errorf("job %d is %s online, offline it starts at %d after %d",
					j.ID, info.State, start, last))
			}
		case finish > last:
			if info.State != rms.StateRunning || info.Started != start {
				errs = append(errs, fmt.Errorf("job %d is %s from %d online, offline running from %d",
					j.ID, info.State, info.Started, start))
			}
		default:
			want := rms.StateCompleted
			if j.Runtime == j.Estimate {
				want = rms.StateKilled
			}
			if info.State != want || info.Started != start || info.Finished != finish {
				errs = append(errs, fmt.Errorf("job %d ran [%d, %d] %s online, [%d, %d] %s offline",
					j.ID, info.Started, info.Finished, info.State, start, finish, want))
			}
		}
		fmt.Fprintf(h, "%d:%d:%d:%d;", j.ID, info.State, info.Started, info.Finished)
		if len(errs) >= 5 {
			break
		}
	}
	return h.Sum64(), errors.Join(errs...)
}

// restartOutcome is what the restart stage measured and checked.
type restartOutcome struct {
	times    []float64 // seconds per restart: scheduler, journal open, replay
	replayed int
	problems []string
}

// restart stops the session and rebuilds its state from the journal
// reps times, each into a fresh scheduler; the first rebuild must equal
// the live state.
func restart(s *session, b *bridge, reps int) *restartOutcome {
	out := &restartOutcome{}
	liveStatus, liveReport := s.sched.Status(), s.sched.Report()
	if err := s.stopServing(); err != nil {
		out.problems = append(out.problems, fmt.Sprintf("stopping dynpd: %v", err))
		return out
	}
	for r := 0; r < reps; r++ {
		t := time.Now()
		fresh, err := rms.New(b.set.Machine, newDriver(), b.first)
		if err != nil {
			out.problems = append(out.problems, err.Error())
			return out
		}
		j, err := rms.OpenJournalFS(s.fsys, s.path)
		if err != nil {
			out.problems = append(out.problems, err.Error())
			return out
		}
		n, err := j.Replay(fresh)
		el := time.Since(t)
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			out.problems = append(out.problems, fmt.Sprintf("replay: %v", err))
			return out
		}
		out.times = append(out.times, el.Seconds())
		out.replayed = n
		if r == 0 {
			if err := sameState(liveStatus, liveReport, fresh.Status(), fresh.Report()); err != nil {
				out.problems = append(out.problems, err.Error())
			}
		}
	}
	return out
}

// sameState reports whether a restored scheduler equals the live one.
func sameState(liveSt rms.Status, liveRep rms.Report, st rms.Status, rep rms.Report) error {
	if !reflect.DeepEqual(liveSt, st) {
		return fmt.Errorf("restored status differs: live t=%d %d running %d waiting %d finished, restored t=%d %d/%d/%d",
			liveSt.Now, len(liveSt.Running), len(liveSt.Waiting), liveSt.Finished,
			st.Now, len(st.Running), len(st.Waiting), st.Finished)
	}
	if liveRep != rep {
		return fmt.Errorf("restored report differs: live %+v, restored %+v", liveRep, rep)
	}
	return nil
}

// onlineTrace collects the engine's planning steps (as an observer of
// the live scheduler) and the journal's disk operations (through
// timedFS) of a traced session.
type onlineTrace struct {
	mu     sync.Mutex
	planUs []float64
	queued []float64
	fs     fsStats
}

// Observe implements engine.Observer.
func (t *onlineTrace) Observe(ev engine.Event) {
	if ev.Kind != engine.EventPlan {
		return
	}
	t.mu.Lock()
	t.planUs = append(t.planUs, micros(ev.Latency))
	t.queued = append(t.queued, float64(ev.Queued))
	t.mu.Unlock()
}

// fsStats counts and times the journal's writes and syncs.
type fsStats struct {
	mu      sync.Mutex
	writeUs []float64
	syncMs  []float64
	bytes   int64
}

// timedFS is a vfs.FS whose files time every Write and Sync.
type timedFS struct {
	vfs.FS
	st *fsStats
}

func (t *timedFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := t.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, st: t.st}, nil
}

type timedFile struct {
	vfs.File
	st *fsStats
}

func (f *timedFile) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := f.File.Write(p)
	el := time.Since(t)
	f.st.mu.Lock()
	f.st.writeUs = append(f.st.writeUs, micros(el))
	f.st.bytes += int64(n)
	f.st.mu.Unlock()
	return n, err
}

func (f *timedFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	el := time.Since(t)
	f.st.mu.Lock()
	f.st.syncMs = append(f.st.syncMs, millis(el))
	f.st.mu.Unlock()
	return err
}
