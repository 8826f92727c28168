// Package obs holds the repository's one latency window: a fixed-
// capacity ring of the most recent nanosecond samples with sorted
// snapshots and a single quantile rank rule, shared by the front's
// hedge budgets, the engine's instantiation quantiles and the
// server's service-time estimates.
package obs

import (
	"slices"
	"sync"
)

// Rank is the index of the q-quantile (0..1) in a sorted sample of
// n > 0 values: int(q*(n-1)), clamped to [0, n-1].
func Rank(q float64, n int) int {
	i := int(q * float64(n-1))
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// Window keeps the most recent samples up to its capacity. It is safe for
// concurrent use.
type Window struct {
	mu   sync.Mutex
	buf  []int64
	next int   // write cursor
	n    int   // retained samples, at most len(buf)
	seen int64 // lifetime samples
}

// NewWindow returns an empty window retaining up to capacity samples.
func NewWindow(capacity int) *Window {
	return &Window{buf: make([]int64, capacity)}
}

// Record adds one sample, displacing the oldest once the window is
// full.
func (w *Window) Record(ns int64) {
	w.mu.Lock()
	w.buf[w.next] = ns
	w.next = (w.next + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.seen++
	w.mu.Unlock()
}

// Snapshot is a sorted copy of a window's retained samples plus the
// window's lifetime sample count.
type Snapshot struct {
	Sorted []int64
	Seen   int64
}

// Snapshot copies and sorts the retained samples.
func (w *Window) Snapshot() Snapshot {
	w.mu.Lock()
	s := Snapshot{Sorted: append([]int64(nil), w.buf[:w.n]...), Seen: w.seen}
	w.mu.Unlock()
	slices.Sort(s.Sorted)
	return s
}

// Quantile returns the q-quantile of the snapshot by Rank, or 0 when
// it holds no samples.
func (s Snapshot) Quantile(q float64) int64 {
	if len(s.Sorted) == 0 {
		return 0
	}
	return s.Sorted[Rank(q, len(s.Sorted))]
}
