package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	var v []int64
	for i := int64(1); i <= 100; i++ {
		v = append(v, i)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7, 8, 9}, 50); got != 8 {
		t.Errorf("p50 of {7,8,9} = %d, want 8", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %d, want 0", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if !near(q1, 1.5) || !near(q3, 4.5) {
		t.Errorf("quartiles of 1..5 = %v, %v; want 1.5, 4.5", q1, q3)
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5}); !near(got, 1.0) {
		t.Errorf("iqrShare of 1..5 = %v, want 1", got)
	}
}

// TestSliceEstimators: four quiet slices and one disturbed one — the
// reported figure is the median of the slices, the quiet level, not
// the mean; samples outside the window are not counted.
func TestSliceEstimators(t *testing.T) {
	const second = int64(1e9)
	bounds := []int64{0, second, 2 * second, 3 * second, 4 * second, 5 * second}
	var samples []latSample
	for s := int64(0); s < 5; s++ {
		lat := int64(100e3) // 100 µs
		n := int64(1000)
		if s == 2 {
			lat, n = 900e3, 100 // the disturbed slice: slow and few
		}
		for i := int64(0); i < n; i++ {
			samples = append(samples, latSample{at: s*second + i*second/n, lat: lat})
		}
	}
	samples = append(samples, latSample{at: -5, lat: 1}, latSample{at: 5 * second, lat: 1}) // outside: ignored
	w := &window{samples: samples, bounds: bounds, cpu: []cpuReading{{0, 0}, {600, 400}, {1200, 800}, {1800, 1200}, {2400, 1600}, {3000, 2000}}}
	tm := w.timings()
	if tm.n != 4100 {
		t.Fatalf("counted %d samples inside the window, want 4100", tm.n)
	}
	rep := newReport()
	rep.setTimings(tm)
	if u, k := rep.cpuPerOp[0].value, rep.cpuPerOp[1].value; !near(u, 0.6) || !near(k, 0.4) {
		t.Errorf("CPU per op: user %v kernel %v, want 0.6 and 0.4", u, k)
	}
	for name, want := range map[string]float64{"p50_us": 100, "p99_us": 100, "throughput_ops_s": 1000} {
		if got := rep.metrics[name]; !near(got.value, want) || !near(got.quiet, want) {
			t.Errorf("%s = %v (quiet quartile %v), want %v", name, got.value, got.quiet, want)
		}
	}
}

// TestSliceFigureFollowsHalfTheWindow: a slow-down that covers three
// of five slices moves the reported median; the quiet quartile beside
// it stays on the undisturbed level, in both directions.
func TestSliceFigureFollowsHalfTheWindow(t *testing.T) {
	lat := sliceFigure([]float64{300, 100, 290, 100, 310}, 5, false)
	if !near(lat.value, 290) || !near(lat.quiet, 100) {
		t.Errorf("latency: value %v quiet %v, want 290 and 100", lat.value, lat.quiet)
	}
	thr := sliceFigure([]float64{14, 22, 14, 22, 15}, 5, true)
	if !near(thr.value, 15) || !near(thr.quiet, 22) {
		t.Errorf("throughput: value %v quiet %v, want 15 and 22", thr.value, thr.quiet)
	}
	if m := medianFigure([]float64{3, 1, 2}, 3); !near(m.value, 2) {
		t.Errorf("median figure of {3,1,2} = %v, want 2", m.value)
	}
}

// TestRuntimeCostCountsWindowOpsOnly: a closed loop with a warm-up as
// long as its window, whose step allocates exactly one object of a
// fixed size. The loop runs through the warm-up too, so dividing the
// window's allocation delta by every op the loop made would halve the
// figure; per op completed inside the window it is one object.
func TestRuntimeCostCountsWindowOpsOnly(t *testing.T) {
	const size = 4096
	var sink []byte
	clk := newClock()
	w := runClosed(clk, []loopFn{stepLoop(clk, func() {
		sink = make([]byte, size)
		time.Sleep(100 * time.Microsecond)
	})}, 300*time.Millisecond, 300*time.Millisecond)
	_ = sink
	c := w.runtimeCost()
	if all := float64(len(w.samples)); c.ops < 0.3*all || c.ops > 0.7*all {
		t.Fatalf("%v of the loop's %v ops counted inside a window that is half its run", c.ops, all)
	}
	rep := newReport()
	rep.runtimeMetrics(c)
	// The harness's own allocations (sample buffer growth, timers) come
	// on top, so only a band is asserted: well above the halved figure.
	if got := rep.value("go.alloc_bytes_per_op"); got < 0.9*size || got > 1.5*size {
		t.Errorf("go.alloc_bytes_per_op = %.0f, want about %d (one allocation per op inside the window)", got, size)
	}
	if got := rep.value("go.allocs_per_op"); got < 0.9 || got > 1.5 {
		t.Errorf("go.allocs_per_op = %.2f, want about 1", got)
	}
}

func TestBudgetTilesTheMedianOp(t *testing.T) {
	// 101 ops of latency 100..200 µs, each split 30/70 between two
	// stages: the band around the median must reproduce the split and
	// sum to the p50.
	var lat []int64
	var perOp [][]int64
	for i := int64(0); i <= 100; i++ {
		l := (100 + i) * 1000
		lat = append(lat, l)
		perOp = append(perOp, []int64{l * 3 / 10, l - l*3/10})
	}
	b := newBudget([]string{"a", "b"}, lat, perOp)
	if !near(b.p50, 150) {
		t.Fatalf("p50 = %v, want 150", b.p50)
	}
	if b.residual > 0.01 {
		t.Errorf("residual %.4f, want < 1%%", b.residual)
	}
	if got := b.share("a"); math.Abs(got-0.3) > 0.01 {
		t.Errorf("stage a takes %.3f of the median op, want 0.30", got)
	}
}
