package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: with fewer, the "percentile" is really one or two outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs:
// the smallest sample with at least p% of the samples at or below it. ok is
// false when fewer than minBeyond samples lie beyond that rank, so p99 needs
// at least 1,000 samples and p95 at least 200.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	s := sorted(xs)
	return s[rank-1], true
}

// median is the nearest-rank 50th percentile without the minBeyond rule:
// the middle of what was measured, however few samples that is.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[(len(s)+1)/2-1]
}

// tail is the p-th percentile when enough samples lie beyond it, and the
// largest sample otherwise. A run with a handful of operations (two graphs
// per scale iteration) still reports its slowest one as its tail.
func tail(xs []float64, p float64) float64 {
	if v, ok := percentile(xs, p); ok {
		return v
	}
	return maxOf(xs)
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rung is one rate of the serving ladder as the rate search sees it.
type rung struct {
	Rate float64 // offered requests per second
	// P99 is the rung's p99 latency in ms over every attempted request,
	// with rejected, shed and failed requests counted as +Inf.
	P99 float64
	// Growing marks a rung whose queue depth rose across it: the service
	// did not keep up even if this rung's p99 still looked fine.
	Growing bool
}

// maxRate is the offered rate at which p99 crosses limitMs. It walks the
// ladder to the first failing rung, whose p99 is over the limit (a miss,
// +Inf, reads as missMs) or whose backlog grows, and interpolates between
// it and the last passing rung, linearly in rate against log p99. A rung
// that fails only on a growing backlog gives the last passing rate. When
// the first rung fails, its rate scaled by limit/p99 is the answer (half
// its rate on a growing backlog); when none fails, the last rate is a
// lower bound and is returned as is.
func maxRate(ladder []rung, limitMs float64) float64 {
	logP99 := func(r rung) float64 { return math.Log(math.Max(math.Min(r.P99, missMs), 1e-3)) }
	for i, r := range ladder {
		p99 := math.Min(r.P99, missMs)
		if !r.Growing && p99 <= limitMs {
			continue
		}
		if i == 0 {
			if p99 <= limitMs {
				return r.Rate / 2
			}
			return r.Rate * limitMs / p99
		}
		if p99 <= limitMs {
			return ladder[i-1].Rate
		}
		lo, hi := logP99(ladder[i-1]), logP99(r)
		f := (math.Log(limitMs) - lo) / (hi - lo)
		return ladder[i-1].Rate + f*(r.Rate-ladder[i-1].Rate)
	}
	if len(ladder) == 0 {
		return 0
	}
	return ladder[len(ladder)-1].Rate
}

// growing reports whether a queue-depth series rose across a rung: the
// median of its last third exceeds the median of its first third by more
// than slack jobs. Depth samples of a keeping-up service hover around a
// level; an overloaded one climbs until admission rejects.
func growing(depths []int, slack int) bool {
	n := len(depths) / 3
	if n == 0 {
		return false
	}
	first := make([]float64, n)
	last := make([]float64, n)
	for i := 0; i < n; i++ {
		first[i] = float64(depths[i])
		last[i] = float64(depths[len(depths)-n+i])
	}
	return median(last) > median(first)+float64(slack)
}
