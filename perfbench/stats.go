package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile for it to be
// reported as measured rather than as an extrapolation.
const minTail = 10

// samples is a set of timings in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between the closest ranks; NaN for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	xs := append([]float64(nil), s...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// beyond counts the samples strictly above the q-quantile.
func (s samples) beyond(q float64) int {
	v := s.quantile(q)
	n := 0
	for _, x := range s {
		if x > v {
			n++
		}
	}
	return n
}

// resolved reports whether the q-quantile has at least minTail samples
// beyond it.
func (s samples) resolved(q float64) bool { return s.beyond(q) >= minTail }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func medianDuration(ds []time.Duration) time.Duration {
	var s samples
	for _, d := range ds {
		s.add(d)
	}
	return time.Duration(s.quantile(0.5) * float64(time.Millisecond))
}

// ratio divides, returning 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
