package main

import (
	"errors"
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is the number of samples a reported percentile must leave
// above it; a tail percentile resting on fewer is noise.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether at least minBeyond samples lie beyond it. xs need not be
// sorted; it is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minBeyond
}

// median is the 0.5 nearest-rank quantile (no beyond-count rule).
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean returns the geometric mean of xs, which must all be positive.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("geomean of no values")
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			return 0, errors.New("geomean of a non-positive value")
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), nil
}

// durations is a concurrency-safe list of millisecond samples, the
// span store of the traced run.
type durations struct {
	mu sync.Mutex
	ms []float64
}

func (d *durations) add(x time.Duration) { d.addMS(float64(x.Nanoseconds()) / 1e6) }

func (d *durations) addMS(ms float64) {
	d.mu.Lock()
	d.ms = append(d.ms, ms)
	d.mu.Unlock()
}

// take returns the samples recorded so far and clears the list.
func (d *durations) take() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := d.ms
	d.ms = nil
	return out
}
