package ledger

import (
	"math"
	"sort"
)

// Median returns the middle value (mean of the two middle values for an
// even count), or NaN for no values.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := sorted(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100), or
// NaN for no values.
func Percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := sorted(vs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// Min returns the smallest value, or NaN for no values.
func Min(vs []float64) float64 { return Percentile(vs, 0) }

// Max returns the largest value, or NaN for no values.
func Max(vs []float64) float64 { return Percentile(vs, 100) }

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}
