package stats

import (
	"fmt"
	"math"
)

// tTable holds the two-sided 95% Student-t quantiles for 1..30 degrees
// of freedom; beyond 30 degrees TQuantile uses the normal quantile (the
// classic sampled-simulation regime: SMARTS sizes its interval count so
// the CLT applies).
var tTable = [30]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TQuantile returns the two-sided 95% Student-t critical value for
// df >= 1 degrees of freedom.
func TQuantile(df int) float64 {
	if df <= len(tTable) {
		return tTable[df-1]
	}
	return 1.960
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MeanCI returns the sample mean of xs and the half-width of its
// two-sided 95% Student-t confidence interval. A single sample yields a
// zero half-width — there is no variance estimate — and an empty slice
// is an error.
func MeanCI(xs []float64) (mean, half float64, err error) {
	if len(xs) == 0 {
		return 0, 0, fmt.Errorf("stats: no samples")
	}
	mean = Mean(xs)
	if len(xs) == 1 {
		return mean, 0, nil
	}
	ss := 0.0
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(len(xs)-1))
	return mean, TQuantile(len(xs)-1) * sd / math.Sqrt(float64(len(xs))), nil
}
