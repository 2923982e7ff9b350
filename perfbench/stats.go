package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample such that at least p% of the
// samples are less than or equal to it. xs is sorted in place. An empty
// sample reads 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median is the 50th percentile by the nearest-rank rule.
func median(xs []float64) float64 { return percentile(xs, 50) }

// durationsMS converts latencies to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// ratio divides, reading 0 when the denominator is 0 (a layer the
// workload never reached).
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// relClose reports whether got matches want to a relative tolerance tol.
// NaN matches NaN (an empty avg), and zeros match exactly.
func relClose(got, want, tol float64) bool {
	if math.IsNaN(got) || math.IsNaN(want) {
		return math.IsNaN(got) && math.IsNaN(want)
	}
	diff := math.Abs(got - want)
	scale := math.Max(math.Abs(got), math.Abs(want))
	return diff <= tol*scale
}

// sameBits reports bit-identical floats (the count/min/max rule).
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// subWindows splits a phase window into k equal parts by completion time
// and returns each part's latencies in milliseconds. A request finishing
// after the window closes counts in the last part.
func subWindows(os []obs, window time.Duration, k int) [][]float64 {
	parts := make([][]float64, k)
	for _, o := range os {
		i := int(int64(o.done) * int64(k) / int64(window))
		if i >= k {
			i = k - 1
		}
		parts[i] = append(parts[i], float64(o.lat)/float64(time.Millisecond))
	}
	return parts
}

// windowedPercentile is the median over sub-windows of each sub-window's
// p-th latency percentile: a burst of outside load that slows a minority
// of the sub-windows does not move it.
func windowedPercentile(os []obs, window time.Duration, k int, p float64) float64 {
	var vals []float64
	for _, part := range subWindows(os, window, k) {
		if len(part) > 0 {
			vals = append(vals, percentile(part, p))
		}
	}
	return median(vals)
}

// windowedRate is the median over sub-windows of requests completed per
// second.
func windowedRate(os []obs, window time.Duration, k int) float64 {
	secs := window.Seconds() / float64(k)
	vals := make([]float64, k)
	for i, part := range subWindows(os, window, k) {
		vals[i] = float64(len(part)) / secs
	}
	return median(vals)
}
