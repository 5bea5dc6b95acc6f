package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by the nearest-rank
// rule, or 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeCounters are cumulative Go runtime counters; the difference of
// two readings covers the interval between them.
type runtimeCounters struct {
	allocBytes uint64
	gcCycles   uint64
}

var counterSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readCounters() runtimeCounters {
	s := append([]metrics.Sample(nil), counterSamples...)
	metrics.Read(s)
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// retainedHeap collects garbage and returns the live heap in bytes: what
// the run holds at that point.
func retainedHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
