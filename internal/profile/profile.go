// Package profile implements the resource availability profile of a
// planning-based scheduler: a step function over time giving the number of
// free processors. Placing every waiting job at the earliest interval that
// can hold its width for its full estimated run time yields the implicit
// backfilling the paper attributes to planning-based resource management
// systems ([6] in the paper).
//
// The step function is stored flat, as two parallel slices of step times
// and free counts. The profiles the schedulers build stay small (tens of
// steps), so one forward scan over contiguous memory beats any index over
// them; Place is a single such scan that finds the start and end of the
// reservation, opens both boundaries with one tail shift and subtracts
// over the window (see DESIGN.md §11).
package profile

import (
	"fmt"
	"slices"
)

// Profile is a free-processor timeline. Create one with New; the zero
// value is not usable.
//
// Step k makes free[k] processors available from times[k] (inclusive)
// until times[k+1] (exclusive); the last step extends to infinity. Times
// strictly increase. Redundant neighbours with equal free counts, which
// reservation boundaries leave behind, are kept.
type Profile struct {
	capacity int
	times    []int64
	free     []int
}

// New returns a profile for a machine with the given capacity where all
// processors are free from time start onwards. It panics if capacity < 1.
func New(capacity int, start int64) *Profile {
	p := &Profile{}
	p.Reset(capacity, start)
	return p
}

// Reset reinitialises p to a machine with the given capacity where all
// processors are free from start onwards, reusing the storage. A
// zero-value p is valid. It panics if capacity < 1, like New.
func (p *Profile) Reset(capacity int, start int64) {
	if capacity < 1 {
		panic(fmt.Sprintf("profile: capacity %d < 1", capacity))
	}
	p.capacity = capacity
	p.times = append(p.times[:0], start)
	p.free = append(p.free[:0], capacity)
}

// Capacity returns the machine capacity the profile was built with.
func (p *Profile) Capacity() int { return p.capacity }

// Start returns the first instant covered by the profile.
func (p *Profile) Start() int64 { return p.times[0] }

// FreeAt returns the number of free processors at time t. It panics when t
// precedes the profile start: the profile carries no information about the
// past, so asking for it is a scheduler bug (the same contract as
// EarliestFit and Alloc).
func (p *Profile) FreeAt(t int64) int {
	if t < p.Start() {
		panic(fmt.Sprintf("profile: time %d precedes profile start %d", t, p.Start()))
	}
	return p.free[p.locate(t)]
}

// locate returns the index of the step covering time t (the last step
// whose time is <= t), or 0 when t precedes the profile.
func (p *Profile) locate(t int64) int {
	lo, hi := 0, len(p.times)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.times[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return max(lo-1, 0)
}

// EarliestFit returns the earliest time >= earliest at which width
// processors are free for the whole interval [t, t+duration). It panics if
// width exceeds the capacity, the arguments are non-positive, or earliest
// precedes the profile start — the profile carries no information about
// the past, so asking for it is a scheduler bug.
func (p *Profile) EarliestFit(earliest int64, width int, duration int64) int64 {
	p.check(earliest, width, duration)
	_, _, start := p.fit(earliest, width, duration)
	return start
}

// fit is the forward scan behind EarliestFit and Place. Candidates are
// steps with at least width free; a candidate is accepted when no step
// beginning inside its window has fewer, and a rejected candidate resumes
// after its first blocker. It returns the step i covering the chosen
// start, the first step j at or after start+duration (len when none), and
// the start itself.
func (p *Profile) fit(earliest int64, width int, duration int64) (i, j int, start int64) {
	times, free := p.times, p.free
	n := len(times)
	i = p.locate(earliest)
	for {
		for i < n && free[i] < width {
			i++
		}
		if i == n {
			panic(fmt.Sprintf("profile: no fit for width %d after final step (free %d)",
				width, free[n-1]))
		}
		start = max(times[i], earliest)
		end := start + duration
		j = i + 1
		for j < n && times[j] < end && free[j] >= width {
			j++
		}
		if j == n || times[j] >= end {
			return i, j, start
		}
		i = j + 1
	}
}

// Alloc reserves width processors over [start, start+duration). The caller
// must have obtained start from EarliestFit (or otherwise guarantee the
// interval fits); Alloc panics when the reservation would drive any step
// negative, as that indicates a scheduler bug. It also panics when start
// precedes the profile start: the steps before the profile begin are not
// represented, so such a reservation would be silently clipped to
// [p.Start(), start+duration) — a shrunken reservation the caller never
// asked for.
func (p *Profile) Alloc(start int64, width int, duration int64) {
	p.check(start, width, duration)
	end := start + duration
	i := p.locate(start)
	j := i + 1
	for j < len(p.times) && p.times[j] < end {
		j++
	}
	p.reserve(i, j, start, end, width)
}

// Place combines EarliestFit and Alloc: it reserves width processors for
// duration at the earliest feasible time >= earliest and returns the chosen
// start time. The fit scan already ends at the reservation's end step, so
// the reservation needs no second search.
func (p *Profile) Place(earliest int64, width int, duration int64) int64 {
	p.check(earliest, width, duration)
	i, j, start := p.fit(earliest, width, duration)
	p.reserve(i, j, start, start+duration, width)
	return start
}

// reserve subtracts width over [start, end), where step i covers start and
// j is the first step at or after end (len when none). Missing boundaries
// at start and end are opened by one shift of the tail: a new boundary
// copies the free count of the step it splits, so the step function is
// unchanged until the subtraction.
func (p *Profile) reserve(i, j int, start, end int64, width int) {
	times, free := p.times, p.free
	n := len(times)
	s, e := 0, 0
	if times[i] != start {
		s = 1
	}
	if j == n || times[j] != end {
		e = 1
	}
	if k := s + e; k > 0 {
		endFree := free[j-1]
		times = slices.Grow(times, k)[:n+k]
		free = slices.Grow(free, k)[:n+k]
		copy(times[j+k:], times[j:n])
		copy(free[j+k:], free[j:n])
		if s == 1 {
			copy(times[i+2:j+1], times[i+1:j])
			copy(free[i+2:j+1], free[i+1:j])
			times[i+1], free[i+1] = start, free[i]
		}
		if e == 1 {
			times[j+s], free[j+s] = end, endFree
		}
		p.times, p.free = times, free
	}
	for k := i + s; k < j+s; k++ {
		free[k] -= width
		if free[k] < 0 {
			panic(fmt.Sprintf("profile: over-allocation at t=%d: %d free after placing width %d",
				times[k], free[k], width))
		}
	}
}

func (p *Profile) check(start int64, width int, duration int64) {
	if start < p.Start() {
		panic(fmt.Sprintf("profile: time %d precedes profile start %d", start, p.Start()))
	}
	if width < 1 || width > p.capacity {
		panic(fmt.Sprintf("profile: width %d out of [1, %d]", width, p.capacity))
	}
	if duration < 1 {
		panic(fmt.Sprintf("profile: duration %d < 1", duration))
	}
}

// Steps returns a copy of the step function as parallel slices of times
// and free counts, mainly for tests and debugging output. Redundant
// equal-valued neighbours left behind by reservation boundaries are
// included.
func (p *Profile) Steps() (times []int64, free []int) {
	return slices.Clone(p.times), slices.Clone(p.free)
}

// Clone returns an independent deep copy of the profile.
func (p *Profile) Clone() *Profile {
	c := &Profile{}
	p.CloneInto(c)
	return c
}

// CloneInto makes dst an independent deep copy of p, reusing dst's storage
// when it is large enough. A zero-value dst is valid. This is the
// allocation-lean sibling of Clone: a pooled destination reaches a steady
// state where cloning allocates nothing.
func (p *Profile) CloneInto(dst *Profile) {
	dst.capacity = p.capacity
	dst.times = append(dst.times[:0], p.times...)
	dst.free = append(dst.free[:0], p.free...)
}

// EqualFrom reports whether p and o describe the same free-processor step
// function over [from, infinity) and share the same capacity. Redundant
// steps (adjacent steps with equal free counts, which Alloc can leave
// behind) do not affect the result: the comparison is semantic, not
// representational. Both profiles must cover from (i.e. from must not
// precede either profile's start).
func (p *Profile) EqualFrom(o *Profile, from int64) bool {
	if p.capacity != o.capacity {
		return false
	}
	if from < p.Start() || from < o.Start() {
		panic(fmt.Sprintf("profile: EqualFrom(%d) precedes a profile start (%d, %d)",
			from, p.Start(), o.Start()))
	}
	i, j := p.locate(from), o.locate(from)
	for {
		if p.free[i] != o.free[j] {
			return false
		}
		// Advance both to their next value change; every step behind the
		// locate position has time > from.
		i, j = p.nextChange(i), o.nextChange(j)
		iok, jok := i < len(p.times), j < len(o.times)
		if iok != jok {
			return false
		}
		if !iok {
			return true
		}
		if p.times[i] != o.times[j] {
			return false
		}
	}
}

// nextChange returns the index of the first step after i whose free count
// differs from step i's, or len when there is none.
func (p *Profile) nextChange(i int) int {
	k := i + 1
	for k < len(p.free) && p.free[k] == p.free[i] {
		k++
	}
	return k
}

// CheckInvariants verifies the representation against its own definition:
// the two slices have the same non-zero length, step times strictly
// increase, and every free count lies in [0, capacity]. Tests call it
// after mutation sequences; production code never needs to.
func (p *Profile) CheckInvariants() error {
	if p.capacity < 1 {
		return fmt.Errorf("profile: capacity %d < 1", p.capacity)
	}
	if len(p.times) != len(p.free) {
		return fmt.Errorf("profile: %d step times but %d free counts", len(p.times), len(p.free))
	}
	if len(p.times) == 0 {
		return fmt.Errorf("profile: no steps")
	}
	for k, t := range p.times {
		if k > 0 && t <= p.times[k-1] {
			return fmt.Errorf("profile: step time %d at step %d not after %d", t, k, p.times[k-1])
		}
		if f := p.free[k]; f < 0 || f > p.capacity {
			return fmt.Errorf("profile: free %d at t=%d out of [0, %d]", f, t, p.capacity)
		}
	}
	return nil
}

// String renders the profile compactly for debugging.
func (p *Profile) String() string {
	s := fmt.Sprintf("profile(cap=%d", p.capacity)
	for k, t := range p.times {
		s += fmt.Sprintf(" [%d:%d]", t, p.free[k])
	}
	return s + ")"
}
