package profile

import (
	"testing"
)

// refModel is a brute-force per-second free-array model of a machine: the
// differential oracle for FuzzProfileVsReference. It covers a bounded
// horizon; the fuzz driver never reserves past it.
type refModel struct {
	capacity int
	start    int64
	free     []int // free[i] = free processors at start+i
}

func newRefModel(capacity int, start int64, horizon int) *refModel {
	m := &refModel{capacity: capacity, start: start, free: make([]int, horizon)}
	for i := range m.free {
		m.free[i] = capacity
	}
	return m
}

func (m *refModel) freeAt(t int64) int {
	i := t - m.start
	if i < 0 {
		i = 0
	}
	if int(i) >= len(m.free) {
		return m.free[len(m.free)-1]
	}
	return m.free[i]
}

func (m *refModel) fits(start int64, width int, dur int64) bool {
	for t := start; t < start+dur; t++ {
		if m.freeAt(t) < width {
			return false
		}
	}
	return true
}

func (m *refModel) earliest(earliest int64, width int, dur int64) (int64, bool) {
	// Never scan past the horizon: the driver bounds all reservations so
	// the tail of the free array is a fixed point.
	for t := earliest; t <= m.start+int64(len(m.free)); t++ {
		if m.fits(t, width, dur) {
			return t, true
		}
	}
	return 0, false
}

func (m *refModel) alloc(start int64, width int, dur int64) {
	for t := start; t < start+dur; t++ {
		if i := t - m.start; i >= 0 && int(i) < len(m.free) {
			m.free[i] -= width
		}
	}
}

// FuzzProfileVsReference drives Profile, the straightforward Linear
// implementation, and the per-second reference model through the same
// operation sequence and requires identical EarliestFit results, identical
// FreeAt values, and a step-for-step identical step function between
// Profile and Linear — plus CloneInto/Reset
// equivalence with Clone/New along the way. The fuzz input is decoded as
// (op, width, duration, earliest) nibbles.
func FuzzProfileVsReference(f *testing.F) {
	f.Add([]byte{0x00}, uint8(8), uint8(3))
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9a}, uint8(16), uint8(0))
	f.Add([]byte{0xff, 0x00, 0xff, 0x00}, uint8(3), uint8(50))
	f.Fuzz(func(t *testing.T, ops []byte, cap8 uint8, start8 uint8) {
		capacity := int(cap8%32) + 1
		start := int64(start8)
		// Bound the interesting region so the oracle's linear scans stay
		// cheap: reservations live in [start, start+horizon/2), scans may
		// run to the horizon.
		const horizon = 512
		p := New(capacity, start)
		lin := NewLinear(capacity, start)
		ref := newRefModel(capacity, start, horizon)

		if len(ops) > 64 {
			ops = ops[:64]
		}
		for i := 0; i+3 < len(ops); i += 4 {
			width := int(ops[i+1])%capacity + 1
			dur := int64(ops[i+2]%32) + 1
			earliest := start + int64(ops[i+3])%(horizon/2)
			switch ops[i] % 4 {
			case 0, 1: // Place
				want, ok := ref.earliest(earliest, width, dur)
				if !ok || want+dur > start+horizon/2+int64(ops[i+2]%32)+1 {
					// Would spill past the modelled region; skip to keep
					// the oracle exact. (The profile could answer, but the
					// array model could not check it.)
					continue
				}
				got := p.Place(earliest, width, dur)
				if got != want {
					t.Fatalf("op %d: Place(%d,%d,%d) = %d, oracle %d", i, earliest, width, dur, got, want)
				}
				if lgot := lin.Place(earliest, width, dur); lgot != want {
					t.Fatalf("op %d: linear Place(%d,%d,%d) = %d, oracle %d", i, earliest, width, dur, lgot, want)
				}
				ref.alloc(want, width, dur)
			case 2: // EarliestFit without committing
				want, ok := ref.earliest(earliest, width, dur)
				if !ok {
					continue
				}
				if got := p.EarliestFit(earliest, width, dur); got != want {
					t.Fatalf("op %d: EarliestFit(%d,%d,%d) = %d, oracle %d", i, earliest, width, dur, got, want)
				}
				if lgot := lin.EarliestFit(earliest, width, dur); lgot != want {
					t.Fatalf("op %d: linear EarliestFit(%d,%d,%d) = %d, oracle %d", i, earliest, width, dur, lgot, want)
				}
			case 3: // FreeAt sweep at the probe instant
				if got, want := p.FreeAt(earliest), ref.freeAt(earliest); got != want {
					t.Fatalf("op %d: FreeAt(%d) = %d, oracle %d", i, earliest, got, want)
				}
				if lgot, want := lin.FreeAt(earliest), ref.freeAt(earliest); lgot != want {
					t.Fatalf("op %d: linear FreeAt(%d) = %d, oracle %d", i, earliest, lgot, want)
				}
			}
			// Profile and Linear must agree step for step — same boundaries, same free counts, redundant steps
			// included — and every boundary must match the oracle.
			times, free := p.Steps()
			ltimes, lfree := lin.Steps()
			if len(times) != len(ltimes) {
				t.Fatalf("op %d: profile has %d steps, linear %d", i, len(times), len(ltimes))
			}
			for k, tm := range times {
				if tm != ltimes[k] || free[k] != lfree[k] {
					t.Fatalf("op %d: step %d profile (%d,%d), linear (%d,%d)",
						i, k, tm, free[k], ltimes[k], lfree[k])
				}
				if tm < start+horizon && free[k] != ref.freeAt(tm) {
					t.Fatalf("op %d: step at %d has free %d, oracle %d", i, tm, free[k], ref.freeAt(tm))
				}
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}

		// CloneInto into a dirty destination must equal Clone.
		dirty := New(3, 0)
		dirty.Alloc(1, 2, 7)
		p.CloneInto(dirty)
		want := p.Clone()
		if !dirty.EqualFrom(want, start) || dirty.Capacity() != want.Capacity() {
			t.Fatalf("CloneInto != Clone: %v vs %v", dirty, want)
		}
		wt, wf := want.Steps()
		gt, gf := dirty.Steps()
		if len(wt) != len(gt) {
			t.Fatalf("CloneInto step count %d, Clone %d", len(gt), len(wt))
		}
		for k := range wt {
			if wt[k] != gt[k] || wf[k] != gf[k] {
				t.Fatalf("CloneInto step %d = (%d,%d), Clone (%d,%d)", k, gt[k], gf[k], wt[k], wf[k])
			}
		}

		// Reset must equal New, byte for byte.
		dirty.Reset(capacity, start)
		fresh := New(capacity, start)
		if !dirty.EqualFrom(fresh, start) {
			t.Fatalf("Reset != New: %v vs %v", dirty, fresh)
		}
	})
}
