package obs

import (
	"sync"
	"testing"
)

// TestWindowQuantiles records a fixed scrambled sample set and checks
// the quantiles, retained counts and lifetime counts. The expected
// values are what the per-package rings this window replaced (the
// front's 64-sample shard ring and the engine's 256-sample
// instantiation ring) returned for the same input.
func TestWindowQuantiles(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		n        int // samples recorded
		retained int
		want     map[float64]int64
	}{
		{"empty", 64, 0, 0, map[float64]int64{0: 0, 0.5: 0, 0.99: 0, 1: 0}},
		{"partial", 64, 10, 10, map[float64]int64{
			0: 1000, 0.5: 112000, 0.9: 260000, 0.95: 260000, 0.99: 260000, 1: 297000,
		}},
		{"front wrapped", 64, 300, 64, map[float64]int64{
			0: 5000, 0.5: 144000, 0.9: 264000, 0.95: 276000, 0.99: 288000, 1: 292000,
		}},
		{"engine wrapped", 256, 300, 256, map[float64]int64{
			0: 2000, 0.5: 152000, 0.9: 269000, 0.99: 296000, 1: 300000,
		}},
	}
	for _, c := range cases {
		w := NewWindow(c.capacity)
		for i := 0; i < c.n; i++ {
			w.Record(int64(((i*37)%300 + 1) * 1000))
		}
		s := w.Snapshot()
		if len(s.Sorted) != c.retained || s.Seen != int64(c.n) {
			t.Fatalf("%s: retained %d seen %d, want %d and %d", c.name, len(s.Sorted), s.Seen, c.retained, c.n)
		}
		for q, want := range c.want {
			if got := s.Quantile(q); got != want {
				t.Errorf("%s: Quantile(%v) = %d, want %d", c.name, q, got, want)
			}
		}
	}
}

func TestWindowKeepsNewest(t *testing.T) {
	w := NewWindow(4)
	for i := int64(1); i <= 10; i++ {
		w.Record(i)
	}
	s := w.Snapshot()
	want := []int64{7, 8, 9, 10}
	if len(s.Sorted) != len(want) {
		t.Fatalf("retained %v, want %v", s.Sorted, want)
	}
	for i := range want {
		if s.Sorted[i] != want[i] {
			t.Fatalf("retained %v, want %v", s.Sorted, want)
		}
	}
}

func TestRankClamps(t *testing.T) {
	for _, c := range []struct {
		q    float64
		n    int
		want int
	}{{-1, 5, 0}, {0, 5, 0}, {0.5, 5, 2}, {0.9, 10, 8}, {1, 5, 4}, {2, 5, 4}} {
		if got := Rank(c.q, c.n); got != c.want {
			t.Errorf("Rank(%v, %d) = %d, want %d", c.q, c.n, got, c.want)
		}
	}
}

func TestWindowConcurrent(t *testing.T) {
	w := NewWindow(16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				w.Record(int64(i))
				_ = w.Snapshot().Quantile(0.9)
			}
		}()
	}
	wg.Wait()
	if s := w.Snapshot(); s.Seen != 4000 || len(s.Sorted) != 16 {
		t.Fatalf("seen %d retained %d, want 4000 and 16", s.Seen, len(s.Sorted))
	}
}
