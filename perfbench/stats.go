package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile for
// it to count as measured rather than as the largest few samples.
const minBeyond = 10

// Dist summarises one timing: its median and one named tail percentile.
type Dist struct {
	N     int
	P50   float64
	Tail  float64 // value at the tail quantile; meaningless unless Valid
	Valid bool    // at least minBeyond samples lie above the tail quantile
}

// nearestRank returns the 1-based nearest-rank index of quantile q in n
// sorted samples.
func nearestRank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// supports reports whether n samples leave at least minBeyond samples above
// quantile q.
func supports(q float64, n int) bool {
	return n > 0 && n-nearestRank(q, n) >= minBeyond
}

// Summarize applies the percentile rule to vals: the median plus the tail
// quantile tailQ, the tail marked valid only when enough samples lie beyond
// it. vals is not modified.
func Summarize(vals []float64, tailQ float64) Dist {
	d := Dist{N: len(vals)}
	if len(vals) == 0 {
		return d
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	d.P50 = s[nearestRank(0.5, len(s))-1]
	d.Tail = s[nearestRank(tailQ, len(s))-1]
	d.Valid = supports(tailQ, len(s))
	return d
}

// median returns the middle value of vals (mean of the two middle values for
// an even count); 0 for no values.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailName renders a tail quantile as the suffix used in metric names.
func tailName(q float64) string { return fmt.Sprintf("p%g", math.Round(q*1000)/10) }
