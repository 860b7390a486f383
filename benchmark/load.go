package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the one monotonic time base of a run: every sample, slice
// boundary and trace stamp is ns since base.
type clock struct{ base time.Time }

func newClock() clock { return clock{base: time.Now()} }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

func (c clock) sleepUntil(at int64) {
	if d := at - c.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// window is what a measured window recorded: the samples, the slice
// boundaries actually hit, process CPU at each boundary, and the Go
// runtime's counters at both ends.
type window struct {
	samples  []latSample
	bounds   []int64
	cpu      []cpuReading
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	lag      []int64 // open loop only: how late each op was dispatched
	overdue  int64   // open loop only: ops dropped or not done 1s after the window
	attempts int64   // open loop only: ops scheduled
}

func (w *window) seconds() float64 {
	return float64(w.bounds[len(w.bounds)-1]-w.bounds[0]) / 1e9
}

// timings are the timing metrics every workload reports, one value
// per slice, plus the number of ops completed inside the window.
// userPerOp and sysPerOp are the process's user and kernel CPU.
type timings struct {
	perSec, p50, p99, userPerOp, sysPerOp []float64
	n                                     int
}

// timings reduces the window to its per-slice series.
func (w *window) timings() timings {
	var t timings
	for i, s := range sliceStats(w.samples, w.bounds) {
		t.n += s.n
		t.perSec = append(t.perSec, s.perSec)
		t.p50 = append(t.p50, s.p50)
		t.p99 = append(t.p99, s.p99)
		if s.n > 0 {
			t.userPerOp = append(t.userPerOp, (w.cpu[i+1].user-w.cpu[i].user)/float64(s.n))
			t.sysPerOp = append(t.sysPerOp, (w.cpu[i+1].sys-w.cpu[i].sys)/float64(s.n))
		}
	}
	return t
}

// join appends another window's slices.
func (t timings) join(o timings) timings {
	return timings{
		perSec: append(t.perSec, o.perSec...), p50: append(t.p50, o.p50...), p99: append(t.p99, o.p99...),
		userPerOp: append(t.userPerOp, o.userPerOp...), sysPerOp: append(t.sysPerOp, o.sysPerOp...), n: t.n + o.n,
	}
}

// p50Reported is the window's p50 as reported: the median of slices.
func (t timings) p50Reported() float64 { return median(t.p50) }

// runtimeCost is what the Go runtime and the kernel did over measured
// windows, with the ops completed inside them — the only ops the
// deltas may be divided by: the loops run through the warm-up too.
type runtimeCost struct {
	mallocs, allocBytes, gcPauseNs, userUs, sysUs, ops float64
}

func (w *window) runtimeCost() runtimeCost {
	return runtimeCost{
		mallocs:    float64(w.mem1.Mallocs - w.mem0.Mallocs),
		allocBytes: float64(w.mem1.TotalAlloc - w.mem0.TotalAlloc),
		gcPauseNs:  float64(w.mem1.PauseTotalNs - w.mem0.PauseTotalNs),
		userUs:     w.cpu[len(w.cpu)-1].user - w.cpu[0].user,
		sysUs:      w.cpu[len(w.cpu)-1].sys - w.cpu[0].sys,
		ops:        float64(w.timings().n),
	}
}

func (c runtimeCost) add(o runtimeCost) runtimeCost {
	return runtimeCost{c.mallocs + o.mallocs, c.allocBytes + o.allocBytes, c.gcPauseNs + o.gcPauseNs, c.userUs + o.userUs, c.sysUs + o.sysUs, c.ops + o.ops}
}

// loopFn is one closed-loop client: it issues ops back to back until
// stop is set and returns what it measured.
type loopFn func(stop *atomic.Bool) []latSample

// stepLoop is the plain closed loop: call step, time it, repeat.
func stepLoop(clk clock, step func()) loopFn {
	return func(stop *atomic.Bool) []latSample {
		buf := make([]latSample, 0, 1<<14)
		for !stop.Load() {
			t0 := clk.now()
			step()
			t1 := clk.now()
			buf = append(buf, latSample{at: t1, lat: t1 - t0})
		}
		return buf
	}
}

// runClosed runs every loop in its own goroutine (a closed loop: a
// client sends its next op when the last returned) for warm + dur.
// Only the dur part is measured, cut into the standard number of
// slices. Every goroutine it starts has exited when it returns.
func runClosed(clk clock, loops []loopFn, warm, dur time.Duration) *window {
	return runClosedSlices(clk, loops, warm, dur, slices)
}

// runClosedSlices is runClosed with an explicit slice count.
func runClosedSlices(clk clock, loops []loopFn, warm, dur time.Duration, slices int) *window {
	var stop atomic.Bool
	var wg sync.WaitGroup
	perClient := make([][]latSample, len(loops))
	for i, loop := range loops {
		wg.Add(1)
		go func(i int, loop loopFn) {
			defer wg.Done()
			perClient[i] = loop(&stop)
		}(i, loop)
	}
	w := &window{}
	time.Sleep(warm)
	runtime.ReadMemStats(&w.mem0)
	start := clk.now()
	for i := 0; i <= slices; i++ {
		clk.sleepUntil(start + int64(dur)*int64(i)/int64(slices))
		w.bounds = append(w.bounds, clk.now())
		w.cpu = append(w.cpu, readCPU())
	}
	runtime.ReadMemStats(&w.mem1)
	stop.Store(true)
	wg.Wait()
	for _, buf := range perClient {
		w.samples = append(w.samples, buf...)
	}
	return w
}

// openOp is one scheduled arrival of an open-loop step.
type openOp struct {
	at time.Duration // intended send offset from the step's start
	op kvOp
}

// openBacklog bounds the dispatcher→client queue. An open loop's queue
// may grow, but a backlog this deep at the frozen rates means the
// system has collapsed: the op is counted as failed instead of letting
// the dispatcher block (which would turn the loop closed).
const openBacklog = 1 << 15

// openDrain is how long after a step's last arrival an op may still
// finish; later is a failure.
const openDrain = time.Second

// runOpen dispatches ops on their schedule from one goroutine to a
// pool of parked clients, whatever the system's state (an open loop),
// and times each op from its INTENDED send instant: a stall charges
// every op that was due during it, not just the one in flight. do
// performs one op on client i and reports success. Every goroutine
// started has exited on return.
func runOpen(clk clock, clients int, do func(ctx context.Context, i int, op kvOp) bool, ops []openOp, dur time.Duration) *window {
	type item struct {
		due int64
		op  kvOp
	}
	w := &window{attempts: int64(len(ops)), lag: make([]int64, 0, len(ops))}
	work := make(chan item, openBacklog)
	var wg sync.WaitGroup
	var overdue atomic.Int64
	perClient := make([][]latSample, clients)

	runtime.ReadMemStats(&w.mem0)
	start := clk.now()
	deadline := start + int64(dur+openDrain)
	ctx, cancel := context.WithDeadline(context.Background(), clk.base.Add(time.Duration(deadline)))
	defer cancel()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var buf []latSample
			for it := range work {
				if clk.now() >= deadline || !do(ctx, i, it.op) {
					overdue.Add(1)
					continue
				}
				buf = append(buf, latSample{at: it.due, lat: clk.now() - it.due})
			}
			perClient[i] = buf
		}(i)
	}

	boundary := func() {
		w.bounds = append(w.bounds, start+int64(dur)*int64(len(w.bounds))/slices)
		w.cpu = append(w.cpu, readCPU())
	}
	boundary()
	for _, o := range ops {
		due := start + int64(o.at)
		for len(w.bounds) <= slices && due >= start+int64(dur)*int64(len(w.bounds))/slices {
			boundary()
		}
		// Plain sleep, never a yield-spin: a dispatcher that stays
		// runnable keeps the Go scheduler from ever reaching its
		// network poll, and the system under test then sees its
		// sockets only every few ms. The price is the sleep's
		// overshoot (tens of µs), which is part of every latency here
		// — they count from the intended instant — and is reported as
		// bench.gen_lag_p99_us.
		clk.sleepUntil(due)
		w.lag = append(w.lag, clk.now()-due)
		select {
		case work <- item{due: due, op: o.op}:
		default:
			overdue.Add(1)
		}
	}
	clk.sleepUntil(start + int64(dur))
	for len(w.bounds) <= slices {
		boundary()
	}
	close(work)
	wg.Wait()
	runtime.ReadMemStats(&w.mem1)
	w.overdue = overdue.Load()
	for _, buf := range perClient {
		w.samples = append(w.samples, buf...)
	}
	return w
}
