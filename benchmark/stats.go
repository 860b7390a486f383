package main

import (
	"sort"
	"syscall"
)

// slices is how many equal parts every measured window is cut into.
// Each timing metric is computed per slice and reported as the median
// of the slices (see sliceFigure). Five slices of a 12 s window hold
// more than a thousand ops on the slowest workload (swmr-mem-degraded,
// ≈ 450 ops/s; kv-tcp-open's r1 step, 4 s at 2500 ops/s), so every
// slice's p99 has at least ten samples beyond it.
const slices = 5

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// an ascending slice, 0 when it is empty.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v (mean of the middle pair for even lengths), 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of v by the exclusive
// method — what Python's statistics.quantiles(v, n=4) returns, which
// is how the acceptance runs judge spread. It needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		return median(v), median(v)
	}
	at := func(k int) float64 {
		j, delta := k*(n+1)/4, float64(k*(n+1)%4)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// iqrShare is (Q3-Q1)/median: the relative spread printed beside every
// summarised figure.
func iqrShare(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / m
}

// latSample is one completed op: when it counts (ns since the run's
// base — the return instant in a closed loop, the intended send
// instant in an open one) and its latency in ns.
type latSample struct {
	at, lat int64
}

// sliceStat is what one slice of a window measured.
type sliceStat struct {
	n        int
	p50, p99 float64 // µs
	perSec   float64 // completed ops per second
}

// sliceStats cuts [bounds[0], bounds[len-1]) at the given boundaries
// and summarises the samples falling in each part; samples outside
// (warm-up, drain) are ignored.
func sliceStats(samples []latSample, bounds []int64) []sliceStat {
	parts := make([][]int64, len(bounds)-1)
	for _, s := range samples {
		i := sort.Search(len(bounds), func(i int) bool { return bounds[i] > s.at }) - 1
		if i >= 0 && i < len(parts) {
			parts[i] = append(parts[i], s.lat)
		}
	}
	out := make([]sliceStat, len(parts))
	for i, lats := range parts {
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		out[i] = sliceStat{
			n:      len(lats),
			p50:    float64(percentile(lats, 50)) / 1e3,
			p99:    float64(percentile(lats, 99)) / 1e3,
			perSec: float64(len(lats)) / (float64(bounds[i+1]-bounds[i]) / 1e9),
		}
	}
	return out
}

// figure is a reported value with, where it summarises several
// measurements (slices of a window, repeated set-ups), their relative
// spread and the number of samples under them.
type figure struct {
	value, spread float64
	samples       int
	parts         []float64
	// quiet is the better quartile of a window's slices (0 elsewhere):
	// a noise diagnostic printed beside the value, never reported.
	quiet float64
}

// medianFigure summarises repeated measurements by their median.
func medianFigure(parts []float64, samples int) figure {
	return figure{value: median(parts), spread: iqrShare(parts), samples: samples, parts: parts}
}

// sliceFigure summarises a window's slices by their median, which is
// the reported value: a regression that touches half the window moves
// it. Beside it goes the slices' BETTER quartile — the upper one where
// more is better, the lower one otherwise — as a noise diagnostic. In
// this sandbox disturbances are one-sided (a vCPU loses up to half its
// speed for seconds at a time; a disturbed slice can only be slower),
// so a value well off its quiet level says the run was disturbed, not
// that the program changed.
func sliceFigure(slices []float64, samples int, higherIsBetter bool) figure {
	f := medianFigure(slices, samples)
	q1, q3 := quartiles(slices)
	f.quiet = q1
	if higherIsBetter {
		f.quiet = q3
	}
	return f
}

// cpuReading is the process's CPU time so far, in µs.
type cpuReading struct{ user, sys float64 }

func readCPU() cpuReading {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuReading{}
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return cpuReading{user: tv(ru.Utime), sys: tv(ru.Stime)}
}
