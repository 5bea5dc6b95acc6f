package profile

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"dynp/internal/rng"
)

// checkInv fails the test when the representation violates its own
// invariants (parallel slice lengths, ordering, bounds).
func checkInv(t *testing.T, p *Profile) {
	t.Helper()
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNewAllFree(t *testing.T) {
	p := New(64, 100)
	if p.Capacity() != 64 || p.Start() != 100 {
		t.Fatalf("capacity/start wrong: %v", p)
	}
	if got := p.FreeAt(100); got != 64 {
		t.Fatalf("FreeAt(start) = %d", got)
	}
	if got := p.FreeAt(1 << 40); got != 64 {
		t.Fatalf("FreeAt(far future) = %d", got)
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 0) did not panic")
		}
	}()
	New(0, 0)
}

func TestPlaceImmediate(t *testing.T) {
	p := New(10, 0)
	if start := p.Place(0, 4, 100); start != 0 {
		t.Fatalf("first placement at %d, want 0", start)
	}
	if got := p.FreeAt(0); got != 6 {
		t.Fatalf("free after placement = %d, want 6", got)
	}
	if got := p.FreeAt(100); got != 10 {
		t.Fatalf("free after job end = %d, want 10", got)
	}
}

func TestPlaceQueuesBehindFullMachine(t *testing.T) {
	p := New(10, 0)
	p.Place(0, 10, 50) // fills the machine until t=50
	if start := p.Place(0, 1, 10); start != 50 {
		t.Fatalf("second placement at %d, want 50", start)
	}
}

func TestImplicitBackfill(t *testing.T) {
	// Wide job reserves [10, 110); a narrow short job must slide into
	// the hole [0, 10) without disturbing the reservation.
	p := New(10, 0)
	p.Alloc(0, 6, 10)       // running job until t=10
	w := p.Place(0, 8, 100) // wide job cannot start before 10
	if w != 10 {
		t.Fatalf("wide job at %d, want 10", w)
	}
	n := p.Place(0, 4, 10) // narrow job backfills at 0
	if n != 0 {
		t.Fatalf("backfill start %d, want 0", n)
	}
	// A narrow job too long for the hole must go behind the wide job.
	l := p.Place(0, 4, 11)
	if l != 110 {
		t.Fatalf("long narrow job at %d, want 110", l)
	}
	checkInv(t, p)
}

func TestEarliestFitRespectsEarliestBound(t *testing.T) {
	p := New(10, 0)
	if got := p.EarliestFit(42, 1, 10); got != 42 {
		t.Fatalf("EarliestFit honoured hole before earliest: %d", got)
	}
}

func TestEarliestFitSpansMultipleSteps(t *testing.T) {
	p := New(10, 0)
	p.Alloc(10, 4, 10) // free: [0,10):10, [10,20):6, [20,inf):10
	// Width 6 for duration 15 starting at 0 would cross the 6-free
	// window: 10-6=4 < 6? No: free in [10,20) is 6, 6 >= 6 fits.
	if got := p.EarliestFit(0, 6, 15); got != 0 {
		t.Fatalf("width 6 should fit at 0, got %d", got)
	}
	// Width 7 cannot cross [10,20).
	if got := p.EarliestFit(0, 7, 15); got != 20 {
		t.Fatalf("width 7 should wait for 20, got %d", got)
	}
	// Width 7 but short enough to finish by 10 fits at 0.
	if got := p.EarliestFit(0, 7, 10); got != 0 {
		t.Fatalf("width 7 duration 10 should fit at 0, got %d", got)
	}
}

func TestAllocPanicsOnOverAllocation(t *testing.T) {
	p := New(4, 0)
	p.Alloc(0, 4, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("over-allocation did not panic")
		}
	}()
	p.Alloc(5, 1, 2)
}

func TestCheckPanics(t *testing.T) {
	p := New(4, 0)
	for _, fn := range []func(){
		func() { p.EarliestFit(0, 0, 10) },
		func() { p.EarliestFit(0, 5, 10) },
		func() { p.EarliestFit(0, 1, 0) },
		func() { p.Alloc(0, -1, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPreStartPanics(t *testing.T) {
	// Regression: Alloc with a start before the profile start used to
	// silently clip the reservation — New(4,100) then Alloc(50,2,100)
	// reserved only [100,150), shrinking a 100 s reservation to 50 s with
	// no error. All entry points must panic instead.
	for name, fn := range map[string]func(p *Profile){
		"Alloc":       func(p *Profile) { p.Alloc(50, 2, 100) },
		"EarliestFit": func(p *Profile) { p.EarliestFit(50, 2, 100) },
		"Place":       func(p *Profile) { p.Place(50, 2, 100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with pre-start time did not panic", name)
				}
			}()
			fn(New(4, 100))
		}()
	}
	// The boundary itself stays valid.
	p := New(4, 100)
	if got := p.Place(100, 2, 100); got != 100 {
		t.Fatalf("Place at profile start = %d, want 100", got)
	}
}

func TestCloneIntoMatchesClone(t *testing.T) {
	p := New(8, 5)
	p.Alloc(10, 3, 20)
	p.Alloc(25, 5, 5)

	var dst Profile
	p.CloneInto(&dst)
	want := p.Clone()
	wt, wf := want.Steps()
	gt, gf := dst.Steps()
	if fmt.Sprint(wt, wf) != fmt.Sprint(gt, gf) || dst.Capacity() != want.Capacity() {
		t.Fatalf("CloneInto mismatch: got %v, want %v", &dst, want)
	}

	// Independence: mutating the destination leaves the source alone.
	dst.Alloc(10, 5, 10)
	if got := p.FreeAt(10); got != 5 {
		t.Fatalf("CloneInto destination mutation leaked into source: free %d", got)
	}

	// Reuse: cloning a smaller profile into the same destination must not
	// retain stale steps.
	q := New(4, 0)
	q.CloneInto(&dst)
	gt, gf = dst.Steps()
	if len(gt) != 1 || gt[0] != 0 || gf[0] != 4 {
		t.Fatalf("CloneInto reuse kept stale steps: times %v free %v", gt, gf)
	}
}

func TestResetMatchesNew(t *testing.T) {
	p := New(8, 0)
	p.Alloc(0, 8, 100)
	p.Alloc(100, 4, 50)
	p.Reset(16, 42)
	want := New(16, 42)
	wt, wf := want.Steps()
	gt, gf := p.Steps()
	if fmt.Sprint(wt, wf) != fmt.Sprint(gt, gf) || p.Capacity() != 16 {
		t.Fatalf("Reset: got %v, want %v", p, want)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Reset with capacity 0 did not panic")
			}
		}()
		p.Reset(0, 0)
	}()
}

func TestEqualFrom(t *testing.T) {
	mk := func(start int64, allocs ...[3]int64) *Profile {
		p := New(8, start)
		for _, a := range allocs {
			p.Alloc(a[0], int(a[1]), a[2])
		}
		return p
	}
	base := mk(0, [3]int64{10, 3, 20})
	if !base.EqualFrom(base.Clone(), 0) {
		t.Fatal("profile not equal to its clone")
	}
	// Different starts but identical futures: a profile that began
	// earlier equals one beginning now, compared from now.
	if !mk(0, [3]int64{10, 3, 20}).EqualFrom(mk(5, [3]int64{10, 3, 20}), 5) {
		t.Fatal("identical futures with different starts not equal")
	}
	// A past difference must not matter when comparing from later.
	past := mk(0, [3]int64{0, 2, 5}, [3]int64{10, 3, 20})
	if !past.EqualFrom(base, 5) {
		t.Fatal("past-only difference reported as unequal")
	}
	if past.EqualFrom(base, 3) {
		t.Fatal("live difference at t=3..5 reported as equal")
	}
	// Redundant steps (Alloc boundaries with equal free counts on both
	// sides) are semantic no-ops.
	red := base.Clone()
	red.Alloc(40, 1, 10)
	red2 := base.Clone()
	red2.Alloc(40, 1, 5)
	red2.Alloc(45, 1, 5)
	if !red.EqualFrom(red2, 0) {
		t.Fatal("redundant step boundaries broke semantic equality")
	}
	if base.EqualFrom(New(4, 0), 0) {
		t.Fatal("different capacities reported as equal")
	}
	if base.EqualFrom(mk(0, [3]int64{10, 3, 21}), 0) {
		t.Fatal("different step times reported as equal")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("EqualFrom before both starts did not panic")
			}
		}()
		mk(5).EqualFrom(mk(0), 3)
	}()
}

func TestCloneIsIndependent(t *testing.T) {
	p := New(8, 0)
	p.Alloc(0, 4, 10)
	c := p.Clone()
	c.Alloc(0, 4, 10)
	if got := p.FreeAt(0); got != 4 {
		t.Fatalf("clone mutation leaked into original: free %d", got)
	}
	if got := c.FreeAt(0); got != 0 {
		t.Fatalf("clone free %d, want 0", got)
	}
}

func TestStepsMergedView(t *testing.T) {
	p := New(8, 0)
	p.Alloc(5, 2, 10)
	times, free := p.Steps()
	if len(times) != len(free) {
		t.Fatal("Steps slices differ in length")
	}
	// Expect boundaries at 0, 5 and 15.
	want := map[int64]int{0: 8, 5: 6, 15: 8}
	for i, tm := range times {
		if w, ok := want[tm]; ok && free[i] != w {
			t.Fatalf("free at %d = %d, want %d", tm, free[i], w)
		}
	}
}

// naive is a brute-force per-second free-capacity model used as the
// oracle in the property test.
type naive struct {
	capacity int
	used     map[int64]int
}

func (n *naive) alloc(start int64, width int, dur int64) {
	for t := start; t < start+dur; t++ {
		n.used[t] += width
	}
}

func (n *naive) fits(start int64, width int, dur int64) bool {
	for t := start; t < start+dur; t++ {
		if n.used[t]+width > n.capacity {
			return false
		}
	}
	return true
}

func (n *naive) earliest(earliest int64, width int, dur int64) int64 {
	for t := earliest; ; t++ {
		if n.fits(t, width, dur) {
			return t
		}
	}
}

func TestPropertyMatchesNaiveOracle(t *testing.T) {
	// Random placement sequences must produce identical start times in
	// the step-function profile and a brute-force per-second model.
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		const capacity = 16
		p := New(capacity, 0)
		n := &naive{capacity: capacity, used: make(map[int64]int)}
		for i := 0; i < 40; i++ {
			width := 1 + r.Intn(capacity)
			dur := int64(1 + r.Intn(30))
			earliest := int64(r.Intn(50))
			got := p.Place(earliest, width, dur)
			want := n.earliest(earliest, width, dur)
			if got != want {
				t.Logf("seed %d step %d: profile %d, oracle %d (w=%d d=%d e=%d)",
					seed, i, got, want, width, dur, earliest)
				return false
			}
			n.alloc(want, width, dur)
		}
		checkInv(t, p)
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyNeverNegative(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		p := New(8, 0)
		for i := 0; i < 100; i++ {
			p.Place(int64(r.Intn(100)), 1+r.Intn(8), int64(1+r.Intn(50)))
		}
		checkInv(t, p)
		_, free := p.Steps()
		for _, f := range free {
			if f < 0 || f > 8 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFreeAtPanicsPreStart(t *testing.T) {
	// Regression: FreeAt used to silently answer for times before the
	// profile start by clamping to the first step, while EarliestFit and
	// Alloc panic on the same input. The contract is now uniform: the
	// profile carries no information about the past, so asking for it is
	// a scheduler bug and every entry point panics.
	p := New(4, 100)
	if got := p.FreeAt(100); got != 4 {
		t.Fatalf("FreeAt at the start boundary = %d, want 4", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FreeAt(99) on a profile starting at 100 did not panic")
		}
	}()
	p.FreeAt(99)
}

func TestLinearFreeAtPanicsPreStart(t *testing.T) {
	p := NewLinear(4, 100)
	if got := p.FreeAt(100); got != 4 {
		t.Fatalf("FreeAt at the start boundary = %d, want 4", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("linear FreeAt(99) on a profile starting at 100 did not panic")
		}
	}()
	p.FreeAt(99)
}

// TestPropertyProfileMatchesLinear interleaves Place, Alloc, CloneInto and
// Reset on Profile and the straightforward Linear implementation and
// requires the two step functions to stay identical step for step — same
// boundaries, same free counts, redundant steps included — with the
// invariants holding after every operation. Besides random placements the
// generator aims reservations at existing boundaries (touching), between
// two existing boundaries (zero-gap) and past the last step, and the test
// asserts that every combination of Place's boundary cases occurred: the
// start and the end boundary each either existed already or was opened.
func TestPropertyProfileMatchesLinear(t *testing.T) {
	sameSteps := func(p *Profile, l *Linear) error {
		pt, pf := p.Steps()
		lt, lf := l.Steps()
		if len(pt) != len(lt) {
			return fmt.Errorf("profile has %d steps, linear %d", len(pt), len(lt))
		}
		for k := range pt {
			if pt[k] != lt[k] || pf[k] != lf[k] {
				return fmt.Errorf("step %d: profile (%d,%d), linear (%d,%d)",
					k, pt[k], pf[k], lt[k], lf[k])
			}
		}
		return nil
	}

	// seen[startExisted][endExisted] records the boundary cases Place hit.
	var seen [2][2]bool
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}

	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		capacity := 4 + r.Intn(60)
		start := int64(r.Intn(100))
		p := New(capacity, start)
		l := NewLinear(capacity, start)
		var pClone Profile
		var lClone Linear
		for i := 0; i < 120; i++ {
			width := 1 + r.Intn(capacity)
			dur := int64(1 + r.Intn(40))
			earliest := start + int64(r.Intn(200))
			times, _ := l.Steps()
			op := r.Intn(10)
			switch op {
			case 3: // touching: start the search on an existing boundary
				earliest = times[r.Intn(len(times))]
			case 4: // zero-gap: span exactly from one boundary to a later one
				if a := r.Intn(len(times)); a+1 < len(times) {
					b := a + 1 + r.Intn(len(times)-a-1)
					earliest, dur = times[a], times[b]-times[a]
				}
			case 5: // end on an existing boundary, start inside a step
				if b := r.Intn(len(times)); times[b] > start {
					dur = 1 + int64(r.Intn(int(times[b]-start)))
					earliest = times[b] - dur
				}
			case 6: // past the last step
				earliest = times[len(times)-1] + int64(r.Intn(20))
			}
			switch op {
			case 0: // Alloc at a feasible hole found by EarliestFit
				at := p.EarliestFit(earliest, width, dur)
				if lat := l.EarliestFit(earliest, width, dur); lat != at {
					t.Logf("seed %d op %d: EarliestFit %d vs linear %d", seed, i, at, lat)
					return false
				}
				p.Alloc(at, width, dur)
				l.Alloc(at, width, dur)
			case 1: // CloneInto dirty destinations, continue on the clones
				p.CloneInto(&pClone)
				l.CloneInto(&lClone)
				pClone.CloneInto(p)
				lClone.CloneInto(l)
			case 2: // Reset both to a fresh machine
				capacity = 4 + r.Intn(60)
				start = int64(r.Intn(100))
				p.Reset(capacity, start)
				l.Reset(capacity, start)
			default: // Place
				got := p.Place(earliest, width, dur)
				want := l.Place(earliest, width, dur)
				if got != want {
					t.Logf("seed %d op %d: Place %d vs linear %d", seed, i, got, want)
					return false
				}
				seen[b2i(slices.Contains(times, got))][b2i(slices.Contains(times, got+dur))] = true
			}
			if err := p.CheckInvariants(); err != nil {
				t.Logf("seed %d op %d: %v", seed, i, err)
				return false
			}
			if err := sameSteps(p, l); err != nil {
				t.Logf("seed %d op %d: %v", seed, i, err)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	for s, row := range seen {
		for e, ok := range row {
			if !ok {
				t.Errorf("no Place with start boundary existing=%v, end boundary existing=%v", s == 1, e == 1)
			}
		}
	}
}

// TestCheckInvariantsDetectsCorruption corrupts the representation and
// expects CheckInvariants to notice — the guard that the property and fuzz
// tests are actually asserting something.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	build := func() *Profile {
		r := rng.New(7)
		p := New(16, 0)
		for i := 0; i < 40; i++ {
			p.Place(int64(r.Intn(100)), 1+r.Intn(16), int64(1+r.Intn(30)))
		}
		return p
	}
	if err := build().CheckInvariants(); err != nil {
		t.Fatalf("freshly built profile violates invariants: %v", err)
	}
	for name, corrupt := range map[string]func(p *Profile){
		"unsorted":      func(p *Profile) { p.times[1], p.times[2] = p.times[2], p.times[1] },
		"duplicate":     func(p *Profile) { p.times[2] = p.times[1] },
		"short free":    func(p *Profile) { p.free = p.free[:len(p.free)-1] },
		"short times":   func(p *Profile) { p.times = p.times[:len(p.times)-1] },
		"empty":         func(p *Profile) { p.times, p.free = p.times[:0], p.free[:0] },
		"over capacity": func(p *Profile) { p.free[len(p.free)/2] = 17 },
		"negative":      func(p *Profile) { p.free[len(p.free)/2] = -1 },
	} {
		p := build()
		corrupt(p)
		if err := p.CheckInvariants(); err == nil {
			t.Errorf("%s corruption not detected", name)
		}
	}
}
