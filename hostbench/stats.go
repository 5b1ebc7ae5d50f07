package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the middle two for
// an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailCandidates are the percentiles the tail is reported at, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie above a reported tail.
const minBeyond = 10

// tail picks the highest candidate percentile of xs with at least
// minBeyond samples beyond it, and returns its Harrell–Davis estimate,
// the percentile and how many samples lie beyond its nearest rank.
//
// A single order statistic of a few dozen cell runs swings with the one
// run that lands on its rank; the Harrell–Davis estimate weighs every
// sample by how likely it is to be that order statistic, so it moves far
// less between runs of the same code.
func tail(xs []float64) (value, pct float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	pct, rank := tailRank(len(xs))
	return harrellDavis(xs, pct/100), pct, len(xs) - rank
}

// harrellDavis returns the Harrell–Davis estimate of the p-quantile of
// xs: the sorted samples weighted by the Beta(p(n+1), (1-p)(n+1))
// probability of each rank's slice of (0, 1).
func harrellDavis(xs []float64, p float64) float64 {
	s := sorted(xs)
	n := float64(len(s))
	a, b := p*(n+1), (1-p)*(n+1)
	var sum, prev float64
	for i, x := range s {
		cum := betaInc(a, b, float64(i+1)/n)
		sum += (cum - prev) * x
		prev = cum
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b), by its
// continued fraction (Numerical Recipes §6.4).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates betaInc's continued fraction by the modified Lentz
// method.
func betaCF(a, b, x float64) float64 {
	const eps, tiny = 1e-15, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10000; m++ {
		aa := m * (b - m) * x / ((a - 1 + 2*m) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 1 + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// tailRank picks the tail percentile for n samples by the nearest-rank
// rule: the p-th percentile of n samples is the ceil(p/100*n)-th
// smallest, and the samples beyond it are the rest. With too few
// samples for any candidate it falls back to the median's rank, with
// fewer than minBeyond beyond.
func tailRank(n int) (pct float64, rank int) {
	for _, p := range tailCandidates {
		rank = nearestRank(p, n)
		if n-rank >= minBeyond {
			return p, rank
		}
	}
	return 50, nearestRank(50, n)
}

func nearestRank(p float64, n int) int {
	// Round before the ceiling so 0.95*20 counts as 19, not 19.000000000000004.
	r := int(math.Ceil(math.Round(p/100*float64(n)*1e9) / 1e9))
	return max(r, 1)
}

// geomean returns the geometric mean of positive xs. It sums in sorted
// order, so the result does not depend on the order of xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range sorted(xs) {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
