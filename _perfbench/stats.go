package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile of xs by linear interpolation between
// closest ranks (the "exclusive" rule of Python's statistics.quantiles
// would need n+1 ranks; this inclusive rule is defined for every n >= 1).
// It returns NaN for an empty sample and does not modify xs.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// orZero maps NaN (an empty sample) to 0, so a layer the workload never
// calls reports 0 instead of an unencodable NaN.
func orZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
