package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 99, 990, true},  // rank 990, ten samples beyond
		{999, 99, 0, false},    // rank 990, nine beyond
		{1010, 99, 1000, true}, // rank ceil(999.9) = 1000
		{200, 95, 190, true},   // p95 needs 200 samples
		{199, 95, 0, false},
		{20, 50, 10, true},
		{19, 50, 0, false},
		{0, 50, 0, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %t; want %g, %t", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileCountsInfAsAMiss(t *testing.T) {
	xs := seq(1000)
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	if v, ok := percentile(xs, 99); !ok || !math.IsInf(v, 1) {
		t.Errorf("p99 with 11 misses in 1000 = %g, %t; want +Inf", v, ok)
	}
}

func TestTailFallsBackToMax(t *testing.T) {
	if got := tail([]float64{3, 9, 1}, 99); got != 9 {
		t.Errorf("tail of three samples = %g, want the largest, 9", got)
	}
	if got := tail(seq(1000), 99); got != 990 {
		t.Errorf("tail of 1..1000 = %g, want p99 990", got)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{7, 2}, 2},
		{[]float64{3, 1, 2}, 2},
		{nil, 0},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}

func TestMaxRateInterpolates(t *testing.T) {
	ladder := []rung{{Rate: 40, P99: 20}, {Rate: 50, P99: 25}, {Rate: 62, P99: 100}}
	got := maxRate(ladder, 50)
	// log-linear between (50, 25 ms) and (62, 100 ms): 50 ms is halfway.
	if math.Abs(got-56) > 1e-9 {
		t.Errorf("maxRate = %g, want 56", got)
	}
}

func TestMaxRateStopsAtTheFirstFailingRung(t *testing.T) {
	// The 50 req/s rung fails; the 62 req/s rung passing again does not
	// extend the search.
	ladder := []rung{{Rate: 40, P99: 20}, {Rate: 50, P99: 100}, {Rate: 62, P99: 30}}
	want := 40 + 10*(math.Log(50)-math.Log(20))/(math.Log(100)-math.Log(20))
	if got := maxRate(ladder, 50); math.Abs(got-want) > 1e-9 {
		t.Errorf("maxRate = %g, want %g", got, want)
	}
}

func TestMaxRateGrowingBacklogFails(t *testing.T) {
	// The 62 req/s rung meets the limit but its queue grows: it fails and,
	// with no p99 crossing to interpolate, the last passing rate stands.
	ladder := []rung{{Rate: 40, P99: 20}, {Rate: 50, P99: 30}, {Rate: 62, P99: 45, Growing: true}}
	if got := maxRate(ladder, 50); got != 50 {
		t.Errorf("maxRate = %g, want 50", got)
	}
}

func TestMaxRateEdges(t *testing.T) {
	if got := maxRate([]rung{{Rate: 40, P99: 10}, {Rate: 50, P99: 20}}, 50); got != 50 {
		t.Errorf("all rungs pass: maxRate = %g, want the last rate 50", got)
	}
	if got := maxRate([]rung{{Rate: 40, P99: 100}}, 50); math.Abs(got-20) > 1e-9 {
		t.Errorf("first rung at twice the limit: maxRate = %g, want 20", got)
	}
	// Rejections make a rung's p99 a miss, read as missMs.
	want := 40 + 10*(math.Log(50)-math.Log(20))/(math.Log(missMs)-math.Log(20))
	if got := maxRate([]rung{{Rate: 40, P99: 20}, {Rate: 50, P99: math.Inf(1)}}, 50); math.Abs(got-want) > 1e-9 {
		t.Errorf("rejections on the failing rung: maxRate = %g, want %g", got, want)
	}
}

func TestGrowing(t *testing.T) {
	flat := []int{3, 5, 2, 4, 6, 3, 2, 5, 4}
	if growing(flat, 4) {
		t.Errorf("growing(%v) = true for a level series", flat)
	}
	climb := []int{1, 2, 2, 8, 12, 20, 30, 45, 64}
	if !growing(climb, 4) {
		t.Errorf("growing(%v) = false for a climbing series", climb)
	}
	if growing([]int{0, 64}, 4) {
		t.Error("growing with fewer than three samples = true")
	}
}

func TestQuotaKeepsProportions(t *testing.T) {
	got := quota([]float64{3, 1, 1}, 10)
	counts := make([]int, 3)
	for _, k := range got {
		counts[k]++
	}
	if len(got) != 10 || counts[0] != 6 || counts[1] != 2 || counts[2] != 2 {
		t.Errorf("quota(3:1:1, 10) counts %v, want [6 2 2]", counts)
	}
	got = quota(zipfWeights(32), 751)
	if len(got) != 751 {
		t.Errorf("quota over 32 Zipf keys gave %d of 751", len(got))
	}
}
