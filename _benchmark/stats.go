package main

import (
	"math"
	"sort"
)

// median of xs; 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile of sorted, interpolating between neighbours so that a
// percentile of integer nanoseconds does not read the same on every run.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// percentileNs is the percentile of sorted whole nanoseconds, read off as if
// each value v stood for the interval [v-0.5, v+0.5) with its samples spread
// evenly over it. For well separated samples that is the sample itself; for
// the heavy ties of a sub-microsecond timing it is a steady fractional value
// where the plain order statistic would jump between neighbouring integers.
func percentileNs(sorted []int64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	v := sorted[min(int(rank), n-1)]
	first := sort.Search(n, func(i int) bool { return sorted[i] >= v })
	count := sort.Search(n, func(i int) bool { return sorted[i] > v }) - first
	return float64(v) - 0.5 + (rank-float64(first))/float64(count)
}

// topPercentile is the highest of the candidate percentiles that still has at
// least ten samples beyond it, or 0 when not even the first has.
func topPercentile(n int, candidates []float64) float64 {
	best := 0.0
	for _, q := range candidates {
		if float64(n)*(1-q) >= 10-1e-9 && q > best { // tolerance: 100*(1-0.9) is a hair under 10
			best = q
		}
	}
	return best
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

// quartiles are Python's statistics.quantiles(xs, n=4) (exclusive method),
// the rule the acceptance spread is defined by.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	if len(s) == 0 {
		return 0, 0, 0
	}
	return at(1), at(2), at(3)
}

// sample is one reading of the cumulative counters a closed-loop phase is
// cut into slices by.
type sample struct {
	ns        int64 // monotonic time
	published int64
	received  int64
	cpuNs     int64 // process user+system time
}

// goodQuartile is how a run's slices become one number: the level the program
// reaches in its better quarter of them — the 75th percentile of a rate, the
// 25th of a time. The host these numbers were designed on moves, for seconds
// to minutes at a time, between speeds 30% and more apart (README, "Why the
// good quartile"), and most of what disturbs a slice makes it worse. The
// median follows whichever state held most of the run and so reads two ways
// from run to run; the good quartile reads the undisturbed state whenever a
// quarter of the run saw it. The good decile, tried first, is the second or
// third best of 20 slices and read the lucky ones: on `fanout` it spread 21%
// over eight runs whose good quartile spread 9%.
func goodQuartile(xs []float64, higherIsBetter bool) float64 {
	if higherIsBetter {
		return percentile(sortedCopy(xs), 0.75)
	}
	return percentile(sortedCopy(xs), 0.25)
}

// sliceRates collects, slice by slice, what the saturation metrics are read
// from: deliveries per second, events per second and process CPU microseconds
// per published event.
type sliceRates struct{ deliveries, events, cpu []float64 }

// add appends the slices between consecutive samples of one segment.
func (r *sliceRates) add(s []sample) {
	for i := 1; i < len(s); i++ {
		dt := float64(s[i].ns-s[i-1].ns) / 1e9
		pub := float64(s[i].published - s[i-1].published)
		if dt <= 0 || pub <= 0 {
			continue
		}
		r.deliveries = append(r.deliveries, float64(s[i].received-s[i-1].received)/dt)
		r.events = append(r.events, pub/dt)
		r.cpu = append(r.cpu, float64(s[i].cpuNs-s[i-1].cpuNs)/1e3/pub)
	}
}

// good is the good quartile of each.
func (r *sliceRates) good() (deliveriesPerS, eventsPerS, cpuUsPerEvent float64) {
	return goodQuartile(r.deliveries, true), goodQuartile(r.events, true), goodQuartile(r.cpu, false)
}

func meanNs(ns []int64) float64 {
	var s float64
	for _, v := range ns {
		s += float64(v)
	}
	return s / float64(max(len(ns), 1))
}

func sortNs(ns []int64) { sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] }) }
