package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// millis converts durations to milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// beyond counts the samples strictly greater than v.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// relErr is |got − want| relative to max(1, |want|), the comparison the
// repository's differential tests use.
func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Max(1, math.Abs(want))
}

// vecErr is the largest component error of got against want, relative
// to max(1, ‖want‖∞).
func vecErr(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	var scale, worst float64 = 1, 0
	for _, w := range want {
		scale = math.Max(scale, math.Abs(w))
	}
	for i := range got {
		worst = math.Max(worst, math.Abs(got[i]-want[i]))
	}
	return worst / scale
}
