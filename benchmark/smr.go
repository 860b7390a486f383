package main

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// smr-mem-w16: one driver keeps a sliding window of 16 log slots in
// flight over sim.NewSMRCluster — it appends the next command when the
// oldest slot's Wait returns — so op latency is Append → in-order Wait
// return.

const (
	smrWindow      = 16
	smrCommandSize = 64
	smrWaitTimeout = 10 * time.Second
)

// smrStages tile an op from outside the smr package.
var smrStages = []string{"smr.append_call", "smr.inorder_wait", "smr.wait_call"}

// smrDriver is the single client of the log.
type smrDriver struct {
	e   *env
	cl  *sim.SMRCluster
	seq int

	// instrumented adds the per-layer pass's stamps and samples.
	instrumented bool
	lat          []int64
	perOp        [][]int64
	appendCall   []int64
	occupancy    []int64

	attempted, failed int64
	problem           string
}

type smrSlot struct {
	slot                  int
	cmd                   string
	appendAt, appendedAt  int64
	waitStartAt, waitedAt int64
}

func (d *smrDriver) command() string {
	d.seq++
	return d.e.values.value("smr", 0, d.seq, smrCommandSize)
}

// check verifies the slot returned the command proposed for it.
func (d *smrDriver) check(s smrSlot, got string, ok bool) bool {
	d.attempted++
	if ok && d.e.breakCheck.CompareAndSwap(true, false) {
		got = ""
	}
	if ok && got == s.cmd {
		return true
	}
	d.failed++
	if d.problem == "" {
		d.problem = fmt.Sprintf("slot %d: decided=%v, returned %d bytes that are not the proposed command", s.slot, ok, len(got))
	}
	return false
}

// loop is the sliding-window closed loop.
func (d *smrDriver) loop(stop *atomic.Bool) []latSample {
	clk := d.e.clk
	var out []latSample
	var inflight []smrSlot
	for !stop.Load() {
		for len(inflight) < smrWindow {
			s := smrSlot{cmd: d.command(), appendAt: clk.now()}
			s.slot = d.cl.Append(s.cmd)
			s.appendedAt = clk.now()
			inflight = append(inflight, s)
		}
		s := inflight[0]
		inflight = inflight[1:]
		if d.instrumented {
			// How many of the slots in flight are still undecided:
			// the window's real occupancy.
			undecided := int64(1)
			for _, o := range inflight {
				if _, ok := d.cl.Log.Get(o.slot); !ok {
					undecided++
				}
			}
			d.occupancy = append(d.occupancy, undecided)
		}
		s.waitStartAt = clk.now()
		got, ok := d.cl.Wait(s.slot, smrWaitTimeout)
		s.waitedAt = clk.now()
		if !d.check(s, got, ok) {
			continue
		}
		out = append(out, latSample{at: s.waitedAt, lat: s.waitedAt - s.appendAt})
		if d.instrumented {
			d.lat = append(d.lat, s.waitedAt-s.appendAt)
			d.perOp = append(d.perOp, []int64{s.appendedAt - s.appendAt, s.waitStartAt - s.appendedAt, s.waitedAt - s.waitStartAt})
			d.appendCall = append(d.appendCall, s.appendedAt-s.appendAt)
		}
	}
	// Drain: every appended slot is waited for, so the cluster is
	// quiescent when it is stopped.
	for _, s := range inflight {
		got, ok := d.cl.Wait(s.slot, smrWaitTimeout)
		d.check(s, got, ok)
	}
	return out
}

func startSMR(e *env) (*smrDriver, error) {
	cl, err := sim.NewSMRCluster(e.rqs, sim.SMROptions{})
	if err != nil {
		return nil, err
	}
	d := &smrDriver{e: e, cl: cl}
	if _, _, ok := cl.Decide("warm", smrWaitTimeout); !ok {
		cl.Stop()
		return nil, fmt.Errorf("smr: warm-up decision did not commit")
	}
	return d, nil
}

func (d *smrDriver) stop() { d.cl.Stop() }

func (d *smrDriver) finish(rep *report) {
	rep.attempted += d.attempted
	rep.failed += d.failed
	if d.problem != "" {
		rep.problems = append(rep.problems, d.problem)
	}
}

func smrE2E(e *env) (*report, error) {
	rep := newReport()
	d, setup, err := repeatSetup(func() (*smrDriver, error) { return startSMR(e) }, (*smrDriver).stop)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	rep.set("setup_s", setup)
	rep.setTimings(runClosed(e.clk, []loopFn{d.loop}, e.warm, e.dur).timings())
	d.finish(rep)
	return rep, nil
}

func smrLayers(e *env) (*report, error) {
	rep := newReport()
	rep.zeroLayers()

	t0 := time.Now()
	d, err := startSMR(e)
	if err != nil {
		return nil, err
	}
	rep.set("sim.cluster_build_ms", plain(float64(time.Since(t0))/1e6))
	win := runClosed(e.clk, []loopFn{d.loop}, e.warm, e.dur*45/100)
	rep.runtimeMetrics(win.runtimeCost())
	rep.set("smr.allocs_per_decision", plain(rep.value("go.allocs_per_op")))
	// One slot at a time on the same cluster: the message-delay floor
	// of a decision, with no pipelining to hide it.
	rep.set("consensus.decide_w1_us", plain(p50Of(3*probeFor, func() {
		s := smrSlot{cmd: d.command()}
		var got string
		var ok bool
		s.slot, got, ok = d.cl.Decide(s.cmd, smrWaitTimeout)
		d.check(s, got, ok)
	})/1e3))
	d.finish(rep)
	d.stop()

	probeCore(e.rqs, rep)
	rep.set("transport.mem_rtt_ns", plain(probeMemRTT()))
	rep.set("bench.harness_ns_per_op", plain(probeHarness(e.clk)))

	// Instrumented pass: the same loop with stage stamps and occupancy
	// sampling (the SMR cluster builds its own ports, so there is no
	// tracePort here; the stages are the driver's own call boundaries).
	t, err := startSMR(e)
	if err != nil {
		return nil, err
	}
	t.instrumented = true
	twin := runClosed(e.clk, []loopFn{t.loop}, e.warm, e.dur*45/100)
	t.finish(rep)
	t.stop()
	rep.traceOverhead(win.timings().p50Reported(), twin.timings().p50Reported())
	sort.Slice(t.appendCall, func(i, j int) bool { return t.appendCall[i] < t.appendCall[j] })
	rep.set("smr.append_call_us", plain(float64(percentile(t.appendCall, 50))/1e3))
	var occ int64
	for _, o := range t.occupancy {
		occ += o
	}
	if len(t.occupancy) > 0 {
		rep.set("smr.window_occupancy_mean", plain(float64(occ)/float64(len(t.occupancy))))
	}
	rep.budget = newBudget(smrStages, t.lat, t.perOp)
	rep.budgetNote = "; smr.inorder_wait is time queued behind older slots of the window"
	rep.set("bench.budget_residual_share", plain(100*rep.budget.residual))
	return rep, nil
}
