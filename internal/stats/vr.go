package stats

// Variance-reduction estimators for replicated simulations: the
// paired-difference confidence interval for common-random-number
// comparisons, small-sample honest through Student's t critical values.

import "math"

// PairedDiff returns the mean of the paired differences x[i]−y[i] and the
// 95% confidence half-width of that mean, computed from the differences
// themselves. When x and y are positively correlated — replicas of adjacent
// sweep points driven by common random numbers — the difference variance is
// far below the sum of the marginal variances, so this interval is much
// tighter than the one an unpaired comparison gives. It panics if the
// slices' lengths differ; the half-width is +Inf below two pairs.
func PairedDiff(x, y []float64) (mean, halfWidth float64) {
	if len(x) != len(y) {
		panic("stats: PairedDiff slices have different lengths")
	}
	var w Welford
	for i := range x {
		w.Add(x[i] - y[i])
	}
	n := int(w.Count())
	if n < 2 {
		return w.Mean(), math.Inf(1)
	}
	return w.Mean(), tCrit95(n-1) * w.StdDev() / math.Sqrt(float64(n))
}
