// Linear is the original flat-array availability profile, kept verbatim
// as a differential oracle and benchmarking baseline for Profile. Every
// operation has the same contract as Profile's — including the pre-start
// panics — and the same step sequence, but it is written the
// straightforward way: EarliestFit and Alloc are separate passes over an
// array of (time, free) pairs, and each boundary split memmoves the tail
// on its own. Production code must use Profile; Linear exists for
// FuzzProfileVsReference, the step-for-step property tests, and
// cmd/benchsim's comparison rows.

package profile

import "fmt"

// step is one piece of Linear's step function: free processors are
// available from time (inclusive) until the time of the next step
// (exclusive). The last step extends to infinity.
type step struct {
	time int64
	free int
}

// Linear is a free-processor timeline backed by a flat step array. Create
// one with NewLinear; the zero value is not usable.
type Linear struct {
	capacity int
	steps    []step
}

// NewLinear returns a linear profile for a machine with the given capacity
// where all processors are free from time start onwards. It panics if
// capacity < 1.
func NewLinear(capacity int, start int64) *Linear {
	if capacity < 1 {
		panic(fmt.Sprintf("profile: capacity %d < 1", capacity))
	}
	return &Linear{
		capacity: capacity,
		steps:    []step{{time: start, free: capacity}},
	}
}

// Capacity returns the machine capacity the profile was built with.
func (p *Linear) Capacity() int { return p.capacity }

// Start returns the first instant covered by the profile.
func (p *Linear) Start() int64 { return p.steps[0].time }

// FreeAt returns the number of free processors at time t. It panics when t
// precedes the profile start, matching Profile.FreeAt.
func (p *Linear) FreeAt(t int64) int {
	if t < p.steps[0].time {
		panic(fmt.Sprintf("profile: time %d precedes profile start %d", t, p.steps[0].time))
	}
	return p.steps[p.find(t)].free
}

// find returns the index of the step covering time t (the last step whose
// time is <= t), or 0 when t precedes the profile.
func (p *Linear) find(t int64) int {
	lo, hi := 0, len(p.steps)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.steps[mid].time <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// EarliestFit returns the earliest time >= earliest at which width
// processors are free for the whole interval [t, t+duration), scanning the
// step array linearly.
func (p *Linear) EarliestFit(earliest int64, width int, duration int64) int64 {
	p.check(earliest, width, duration)
	i := p.find(earliest)
	for {
		// Candidate start: beginning of step i, but not before earliest.
		start := p.steps[i].time
		if start < earliest {
			start = earliest
		}
		if p.steps[i].free >= width {
			end := start + duration
			ok := true
			for j := i + 1; j < len(p.steps) && p.steps[j].time < end; j++ {
				if p.steps[j].free < width {
					// Blocked: resume the search at the blocking step.
					i = j
					ok = false
					break
				}
			}
			if ok {
				return start
			}
		}
		i++
		if i >= len(p.steps) {
			panic(fmt.Sprintf("profile: no fit for width %d after final step (free %d)",
				width, p.steps[len(p.steps)-1].free))
		}
	}
}

// Alloc reserves width processors over [start, start+duration), with the
// same contract as Profile.Alloc.
func (p *Linear) Alloc(start int64, width int, duration int64) {
	p.check(start, width, duration)
	end := start + duration
	p.splitAt(start)
	p.splitAt(end)
	for i := p.find(start); i < len(p.steps) && p.steps[i].time < end; i++ {
		p.steps[i].free -= width
		if p.steps[i].free < 0 {
			panic(fmt.Sprintf("profile: over-allocation at t=%d: %d free after placing width %d",
				p.steps[i].time, p.steps[i].free, width))
		}
	}
}

// Place combines EarliestFit and Alloc.
func (p *Linear) Place(earliest int64, width int, duration int64) int64 {
	start := p.EarliestFit(earliest, width, duration)
	p.Alloc(start, width, duration)
	return start
}

// splitAt ensures a step boundary exists exactly at time t, memmoving the
// whole tail of the step array. Times at or before the profile start are
// ignored.
func (p *Linear) splitAt(t int64) {
	if t <= p.steps[0].time {
		return
	}
	i := p.find(t)
	if p.steps[i].time == t {
		return
	}
	p.steps = append(p.steps, step{})
	copy(p.steps[i+2:], p.steps[i+1:])
	p.steps[i+1] = step{time: t, free: p.steps[i].free}
}

func (p *Linear) check(start int64, width int, duration int64) {
	if start < p.steps[0].time {
		panic(fmt.Sprintf("profile: time %d precedes profile start %d", start, p.steps[0].time))
	}
	if width < 1 || width > p.capacity {
		panic(fmt.Sprintf("profile: width %d out of [1, %d]", width, p.capacity))
	}
	if duration < 1 {
		panic(fmt.Sprintf("profile: duration %d < 1", duration))
	}
}

// Steps returns a copy of the internal step function as parallel slices of
// times and free counts.
func (p *Linear) Steps() (times []int64, free []int) {
	times = make([]int64, len(p.steps))
	free = make([]int, len(p.steps))
	for i, s := range p.steps {
		times[i] = s.time
		free[i] = s.free
	}
	return times, free
}

// Clone returns an independent deep copy of the profile.
func (p *Linear) Clone() *Linear {
	return &Linear{
		capacity: p.capacity,
		steps:    append([]step(nil), p.steps...),
	}
}

// CloneInto makes dst an independent deep copy of p, reusing dst's step
// storage when it is large enough. A zero-value dst is valid.
func (p *Linear) CloneInto(dst *Linear) {
	dst.capacity = p.capacity
	dst.steps = append(dst.steps[:0], p.steps...)
}

// Reset reinitialises p to a machine with the given capacity where all
// processors are free from start onwards, reusing the step storage. A
// zero-value p is valid. It panics if capacity < 1, like NewLinear.
func (p *Linear) Reset(capacity int, start int64) {
	if capacity < 1 {
		panic(fmt.Sprintf("profile: capacity %d < 1", capacity))
	}
	p.capacity = capacity
	p.steps = append(p.steps[:0], step{time: start, free: capacity})
}

// String renders the profile compactly for debugging.
func (p *Linear) String() string {
	s := fmt.Sprintf("linear(cap=%d", p.capacity)
	for _, st := range p.steps {
		s += fmt.Sprintf(" [%d:%d]", st.time, st.free)
	}
	return s + ")"
}
