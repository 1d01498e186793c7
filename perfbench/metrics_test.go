package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		wantQ  float64
		wantV  float64
		beyond int
	}{
		// 100 samples: p99 would leave one sample above it, so p90 is the
		// highest percentile reported, and it is not the maximum.
		{n: 100, q: 0.99, wantQ: 0.9, wantV: 90, beyond: 10},
		{n: 1000, q: 0.99, wantQ: 0.99, wantV: 990, beyond: 10},
		{n: 999, q: 0.99, wantQ: 0.95, wantV: 950, beyond: 49},
		{n: 200, q: 0.5, wantQ: 0.5, wantV: 100, beyond: 100},
		{n: 5, q: 0.99, wantQ: 0.5, wantV: 3, beyond: 2},
	} {
		d := newDist(seq(tc.n))
		q, v := d.tail(tc.q)
		if q != tc.wantQ || v != tc.wantV {
			t.Errorf("n=%d tail(%g) = p%g %g, want p%g %g", tc.n, tc.q, q*100, v, tc.wantQ*100, tc.wantV)
		}
		if _, beyond := d.at(q); beyond != tc.beyond {
			t.Errorf("n=%d p%g has %d samples beyond, want %d", tc.n, q*100, beyond, tc.beyond)
		}
	}
	if q, v := newDist(nil).tail(0.99); v != 0 || q != 0.5 {
		t.Errorf("empty sample: p%g %g", q*100, v)
	}
}
