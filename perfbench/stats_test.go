package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // ranks 991..1000 lie beyond
		{999, 0.99, 990, false}, // only 9 beyond
		{200, 0.95, 190, true},
		{199, 0.95, 190, false},
		{10, 0.5, 5, false},
		{1, 0.5, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestPercentileLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestGeomean(t *testing.T) {
	g, err := geomean([]float64{1, 100})
	if err != nil || math.Abs(g-10) > 1e-9 {
		t.Fatalf("geomean(1, 100) = %v, %v; want 10", g, err)
	}
	g, err = geomean([]float64{2, 8, 4})
	if err != nil || math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean(2, 8, 4) = %v, %v; want 4", g, err)
	}
	if _, err := geomean([]float64{3, 0}); err == nil {
		t.Fatal("geomean accepted a zero")
	}
	if _, err := geomean(nil); err == nil {
		t.Fatal("geomean accepted no values")
	}
}
