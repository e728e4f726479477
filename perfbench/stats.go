package main

import (
	"math"
	"sort"
)

// tailBeyond is the number of samples the reported tail percentile must
// leave beyond it: a percentile with fewer samples above it is a single
// outlier's value, not a property of the distribution.
const tailBeyond = 10

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank q-quantile (0 < q ≤ 1) of xs; 0 for no data.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// median is the middle value of xs (mean of the two middle values for an
// even count); 0 for no data.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest percentile, capped at p99, that leaves
// at least tailBeyond samples above it, together with the quantile used and
// the sample count. With n samples that is q = min(0.99, (n−10)/n); with ten
// samples or fewer no percentile qualifies and the median is returned with
// q = 0.5.
func tailPercentile(xs []float64) (value, q float64, n int) {
	n = len(xs)
	if n <= tailBeyond {
		return median(xs), 0.5, n
	}
	q = math.Min(0.99, float64(n-tailBeyond)/float64(n))
	// Nearest rank at (n−10)/n is index n−11, exactly ten samples beyond;
	// at p99 the rank is ceil(0.99·n), which leaves ≥ 10 beyond once n ≥ 1000.
	return percentile(xs, q), q, n
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the spread
// rule the benchmark's steadiness is judged by. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	m := len(s) + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// iqrShare is (Q3 − Q1) ÷ median: the run-to-run spread measure.
func iqrShare(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// maxMinShare is (max − min) ÷ median.
func maxMinShare(xs []float64) float64 {
	med := median(xs)
	if med == 0 || len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return (s[len(s)-1] - s[0]) / math.Abs(med)
}
