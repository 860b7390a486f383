package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/histcheck"
)

// swmr-mem-degraded: the paper's SWMR register (Figures 5–7) with one
// writer and one reader, each in a closed loop, and server 5 down from
// before the first op, so no class-1 quorum ever answers and every
// write pays the class-2 path under the 2Δ timer.
//
// The register is rebuilt for every slice of the window: each slice is
// a replicate that starts from an empty history. The servers keep the
// full history and every read ack carries it (the paper's footnote 4),
// so in one long-lived register CPU per op grows without bound — 0.7 ms
// in the first 1.2 s, 4.4 ms in the tenth — and no slice would be
// comparable with the next, nor the workload any longer about the
// timer path it exists to measure.

const swmrValueSize = 128

// swmrWorker is the writer or the reader with its check state. It
// outlives the deployments it is pointed at.
type swmrWorker struct {
	e      *env
	d      *swmrDeployment
	writer bool
	ct     *clientTrace // nil untraced
	seq    int
	round  string // names the current deployment in values and history
	hist   []histcheck.Op

	attempted, failed int64
	problem           string
}

func (w *swmrWorker) step() {
	w.attempted++
	inv := time.Now()
	if w.ct != nil {
		name := "read"
		if w.writer {
			name = "write"
		}
		w.ct.begin(name)
	}
	var ts int64
	var ok bool
	kind := histcheck.Read
	if w.writer {
		w.seq++
		kind = histcheck.Write
		res := w.d.writer.Write(w.e.values.value(w.round, 0, w.seq, swmrValueSize))
		ts, ok = res.TS, res.Rounds >= 1
	} else {
		res := w.d.reader.Read()
		// Every register is written once before its loops start, so a
		// read can never legitimately see ⊥.
		ts, ok = res.TS, res.TS > 0 && w.e.values.check(w.round, res.Val, swmrValueSize)
		if w.e.breakCheck.CompareAndSwap(true, false) {
			ok = !ok
		}
	}
	if w.ct != nil {
		w.ct.end()
	}
	if !ok {
		w.failed++
		if w.problem == "" {
			w.problem = fmt.Sprintf("swmr %v returned ts %d with a value nobody wrote", kind, ts)
		}
		return
	}
	// Key = the deployment: each register's history is checked on its own.
	w.hist = append(w.hist, histcheck.Op{Kind: kind, Client: fmt.Sprint(w.writer), Key: w.round, TS: ts, Inv: inv, Resp: time.Now()})
}

// swmrRun is the workload's state across its successive deployments.
type swmrRun struct {
	e       *env
	tracer  *tracer        // nil untraced
	traces  []*clientTrace // writer, reader
	workers []*swmrWorker
	d       *swmrDeployment
	builds  int
}

func newSWMRRun(e *env, traced bool) *swmrRun {
	r := &swmrRun{e: e, workers: []*swmrWorker{{e: e, writer: true}, {e: e}}}
	if traced {
		r.tracer = newTracer(e.clk, e.rqs, e.rqs.N()+2, true)
		for i, w := range r.workers {
			w.ct = &clientTrace{t: r.tracer, id: core.ProcessID(e.rqs.N() + i)}
			r.traces = append(r.traces, w.ct)
		}
	}
	return r
}

// build starts a fresh register (stopping the current one) and writes
// it once, so reads have a value.
func (r *swmrRun) build() error {
	r.stopDeployment()
	if r.tracer != nil {
		d, err := buildSWMRTraced(r.e.rqs, r.tracer, r.traces)
		if err != nil {
			return err
		}
		r.d = d
	} else {
		r.d = buildSWMRSim(r.e.rqs)
	}
	r.builds++
	for _, w := range r.workers {
		w.d, w.round = r.d, fmt.Sprintf("swmr%d", r.builds)
	}
	r.workers[0].step()
	return nil
}

func (r *swmrRun) stopDeployment() {
	if r.d != nil {
		r.d.stop()
		r.d = nil
	}
}

// stop ends the last deployment and the tracer's forwarders.
func (r *swmrRun) stop() {
	r.stopDeployment()
	if r.tracer != nil {
		r.tracer.stop()
		r.tracer = nil
	}
}

// window measures dur as `slices` replicates of dur/slices, each on a
// fresh register, and returns their joined series and the runtime's
// work summed over the replicates' measured parts.
func (r *swmrRun) window(dur time.Duration) (timings, runtimeCost, error) {
	var all timings
	var cost runtimeCost
	for i := 0; i < slices; i++ {
		if r.d == nil || i > 0 {
			if err := r.build(); err != nil {
				return all, cost, err
			}
		}
		loops := []loopFn{stepLoop(r.e.clk, r.workers[0].step), stepLoop(r.e.clk, r.workers[1].step)}
		w := runClosedSlices(r.e.clk, loops, r.e.warm/slices, dur/slices, 1)
		all = all.join(w.timings())
		cost = cost.add(w.runtimeCost())
	}
	r.stopDeployment()
	return all, cost, nil
}

// finish sums the workers into rep and checks the FULL history of
// every register — the fault is live for the whole run.
func (r *swmrRun) finish(rep *report) {
	var hist []histcheck.Op
	for _, w := range r.workers {
		rep.attempted += w.attempted
		rep.failed += w.failed
		hist = append(hist, w.hist...)
		if w.problem != "" {
			rep.problems = append(rep.problems, w.problem)
		}
	}
	if v := histcheck.CheckPerKey(hist); v != nil {
		rep.fail("history of %d ops: %v", len(hist), v)
	}
}

func swmrE2E(e *env) (*report, error) {
	rep := newReport()
	run := newSWMRRun(e, false)
	defer run.stop()
	_, setup, err := repeatSetup(func() (*swmrRun, error) { return run, run.build() }, (*swmrRun).stopDeployment)
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setup)
	t, _, err := run.window(e.dur)
	if err != nil {
		return nil, err
	}
	rep.setTimings(t)
	run.finish(rep)
	return rep, nil
}

func swmrLayers(e *env) (*report, error) {
	rep := newReport()
	rep.zeroLayers()

	run := newSWMRRun(e, false)
	defer run.stop()
	t0 := time.Now()
	if err := run.build(); err != nil {
		return nil, err
	}
	rep.set("sim.cluster_build_ms", plain(float64(time.Since(t0))/1e6))
	t, cost, err := run.window(e.dur * 45 / 100)
	if err != nil {
		return nil, err
	}
	rep.runtimeMetrics(cost)
	run.finish(rep)

	probeCore(e.rqs, rep)
	memRTT := probeMemRTT()
	rep.set("transport.mem_rtt_ns", plain(memRTT))
	rep.set("storage.server_probe_us", plain(probeServer(swmrValueSize, true, memRTT)))
	rep.set("bench.harness_ns_per_op", plain(probeHarness(e.clk)))

	trun := newSWMRRun(e, true)
	defer trun.stop()
	tt, _, err := trun.window(e.dur * 45 / 100)
	if err != nil {
		return nil, err
	}
	tr := trun.tracer
	trun.stop()
	trun.finish(rep)
	st := tr.analyse(trun.traces)
	rep.storageTrace(st, t.p50Reported(), tt.p50Reported())
	rep.budget = st.budget
	rep.budgetNote = fmt.Sprintf("; client.finish holds the 2Δ = %v timer wait of every round", swmrTimeout)
	if e.spans != "" {
		if err := tr.writeSpans(e.spans, e.workload, trun.traces); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
