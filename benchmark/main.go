// Command benchmark is this repository's yardstick: six named
// workloads over deployments built in-process from the public
// constructors, end-to-end metrics measured untraced, and an
// outside-in per-layer budget measured in a separate traced pass. See
// README.md in this directory and BENCHMARK.json at the repository
// root.
//
//	benchmark -workload kv-tcp-read -seed 1 -seconds 12 -trace 0   one pass, as the driver runs it
//	benchmark -seed 1                                              all workloads, both passes
//	benchmark -aa 2 -seed 1                                        A/A: the suite twice, spreads vs bounds
//	benchmark -workload kv-tcp-read -trace spans.jsonl             per-layer pass, spans kept
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// runSeconds is the measured window of a pass, BENCHMARK.json's
// run_seconds.
const runSeconds = 12

// watchdog bounds one pass: a hung protocol wait must surface as a
// failed run, not as a benchmark that never exits.
const watchdog = 150 * time.Second

// env is what one pass of one workload runs under.
type env struct {
	workload  string
	seed      int64
	dur, warm time.Duration
	rqs       *core.RQS
	table     []string
	values    *valueGen
	clk       clock
	spans     string
	// breakCheck is the test hook behind -break-check: the first
	// checked Get flips its verdict, which must fail the run.
	breakCheck *atomic.Bool
	temps      *tempDirs
}

func (e *env) makeTemp() (string, error) { return e.temps.make() }
func (e *env) removeTemp(dir string)     { e.temps.remove(dir) }

// tempDirs owns the data dirs of durable deployments: created inside
// the working directory's build dir (the benchmark writes nowhere
// else) and removed on every exit path, signals included.
type tempDirs struct {
	mu   sync.Mutex
	live map[string]bool
}

const tempRoot = ".bench_build"

func (t *tempDirs) make() (string, error) {
	if err := os.MkdirAll(tempRoot, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(tempRoot, "data-")
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	t.live[dir] = true
	t.mu.Unlock()
	return dir, nil
}

func (t *tempDirs) remove(dir string) {
	os.RemoveAll(dir)
	t.mu.Lock()
	delete(t.live, dir)
	t.mu.Unlock()
}

func (t *tempDirs) removeAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for dir := range t.live {
		os.RemoveAll(dir)
	}
}

// report is what one pass produced.
type report struct {
	metrics           map[string]figure
	attempted, failed int64
	problems          []string
	budget            *budget
	budgetNote        string
	// cpuPerOp is the end-to-end window's user and kernel CPU per op:
	// printed for information, reported by the per-layer pass.
	cpuPerOp [2]figure
}

func newReport() *report { return &report{metrics: make(map[string]figure)} }

func plain(v float64) figure { return figure{value: v} }

// set records a metric; its name must be one spec.go publishes.
func (r *report) set(name string, f figure) {
	if !inSpec(name) {
		panic("benchmark: metric " + name + " is not in spec.go")
	}
	r.metrics[name] = f
}

func (r *report) value(name string) float64 { return r.metrics[name].value }

// fail counts one failed output check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setTimings reports the three timing metrics.
func (r *report) setTimings(t timings) {
	r.set("throughput_ops_s", sliceFigure(t.perSec, t.n, true))
	r.set("p50_us", sliceFigure(t.p50, t.n, false))
	r.set("p99_us", sliceFigure(t.p99, t.n, false))
	r.cpuPerOp = [2]figure{sliceFigure(t.userPerOp, t.n, false), sliceFigure(t.sysPerOp, t.n, false)}
}

// zeroLayers starts a per-layer report with every metric at 0: a
// layer the workload does not exercise stays there.
func (r *report) zeroLayers() {
	for _, m := range perLayer {
		r.set(m.name, plain(0))
	}
}

// runtimeMetrics reports the Go runtime's and the kernel's work per op
// completed inside the measured windows.
func (r *report) runtimeMetrics(c runtimeCost) {
	if c.ops == 0 {
		return
	}
	r.set("go.allocs_per_op", plain(c.mallocs/c.ops))
	r.set("go.alloc_bytes_per_op", plain(c.allocBytes/c.ops))
	r.set("go.gc_pause_us_per_kop", plain(c.gcPauseNs/1e3/(c.ops/1000)))
	r.set("cpu_us_per_op", plain((c.userUs+c.sysUs)/c.ops))
	r.set("go.sys_cpu_us_per_op", plain(c.sysUs/c.ops))
}

// storageTrace reports a traced storage pass.
func (r *report) storageTrace(st *storageTrace, untracedP50, tracedP50 float64) {
	for name, v := range st.metrics {
		r.set(name, plain(v))
	}
	r.traceOverhead(untracedP50, tracedP50)
	if st.ops == 0 || st.unchained > st.ops/10 {
		r.fail("trace: %d of %d ops had no complete blocking chain", st.unchained, st.ops)
	}
}

func (r *report) traceOverhead(untracedP50, tracedP50 float64) {
	if untracedP50 > 0 {
		r.set("bench.trace_overhead_share", plain(100*(tracedP50-untracedP50)/untracedP50))
	}
}

// repeatSetup builds the deployment several times — at least five,
// and for about a second while set-up is cheap, since a millisecond
// build is mostly scheduler noise — stopping all but the last, and
// returns the last with the median set-up time: set-up is a metric of
// its own, so that work moved out of the measured window shows.
func repeatSetup[T any](build func() (T, error), stop func(T)) (T, figure, error) {
	var times []float64
	var total time.Duration
	for {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return v, figure{}, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
		if len(times) >= 5 && (total > time.Second || len(times) >= 1000) {
			return v, medianFigure(times, len(times)), nil
		}
		stop(v)
	}
}

// workload is one named traffic mix with its two passes.
type workload struct {
	name, why string
	e2e       func(*env) (*report, error)
	layers    func(*env) (*report, error)
}

func workloads() []workload {
	read := opMix{get: 95, put: 5, zipfGets: true}
	kv := func(name, why string, s *kvSpec) workload {
		return workload{name: name, why: why, e2e: s.e2e, layers: s.layers}
	}
	return []workload{
		kv("kv-tcp-read", "loopback TCP KV, closed loop C=8, 95% zipf Get / 5% Put, 128 B: codec, session link and burst drain do the work; wal, auth, consensus do none",
			&kvSpec{tcp: true, clients: 8, mix: read, valueSize: 128, preload: true}),
		kv("kv-tcp-open", "same deployment and mix, open loop: seeded Poisson arrivals at a frozen 2500 ops/s timed from the intended send, the unloaded TCP latency; the per-layer pass sweeps three rates",
			&kvSpec{tcp: true, clients: 32, mix: read, valueSize: 128, preload: true, open: true}),
		kv("kv-tcp-durable-put", "TCP KV with WAL and fdatasync on, C=8, 100% Put of 1 KiB, restart from disk and read back: wal group commit dominates",
			&kvSpec{tcp: true, durable: true, clients: 8, mix: opMix{put: 100}, valueSize: 1024}),
		kv("kv-mem-auth-c1", "in-memory KV with HMAC-signed tags, one client, Get/Put/CAS 45/45/10: pure processor time in core+auth+storage, no transport",
			&kvSpec{auth: true, clients: 1, mix: opMix{get: 45, put: 45}, valueSize: 128, preload: true}),
		{name: "smr-mem-w16", why: "pipelined SMR log, 16 slots in flight, 64 B commands: all work is in consensus+smr, storage and wal do nothing",
			e2e: smrE2E, layers: smrLayers},
		{name: "swmr-mem-degraded", why: "the paper's SWMR register with server 5 crashed so every op takes the class-2 path under a 2 ms timer: the graceful-degradation promise",
			e2e: swmrE2E, layers: swmrLayers},
	}
}

// result is the line the driver reads: exactly these keys.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) result(list []metricSpec) result {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]resultItem)}
	for _, m := range list {
		res.Metrics[m.name] = resultItem{Value: r.metrics[m.name].value, Unit: m.unit}
	}
	return res
}

func (r *report) print(title string, list []metricSpec) {
	fmt.Printf("%s\n", title)
	for _, m := range list {
		v := r.metrics[m.name]
		line := fmt.Sprintf("  %-34s %14.4f %-6s", m.name, v.value, m.unit)
		if v.samples > 0 {
			line += fmt.Sprintf(" spread %5.1f%%  n=%d", 100*v.spread, v.samples)
		}
		if m.bound > 0 {
			line += fmt.Sprintf("  bound %.0f%%", 100*m.bound)
		}
		fmt.Println(line)
		printParts(v)
	}
	for i, name := range []string{"(user CPU per op)", "(kernel CPU per op)"} {
		if v := r.cpuPerOp[i]; len(v.parts) > 0 {
			fmt.Printf("  %-34s %14.4f us\n", name, v.value)
			printParts(v)
		}
	}
	if r.budget != nil {
		r.budget.print(r.budgetNote)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("  attempted %d  failed %d  failed_share %.6f\n", r.attempted, r.failed, share)
	for i, p := range r.problems {
		if i == 5 {
			fmt.Printf("  ... %d more\n", len(r.problems)-i)
			break
		}
		fmt.Printf("  FAILED CHECK: %s\n", p)
	}
}

// printParts prints what a summarised figure was made of: the slices
// of the window (or the repeated set-ups) and, for slices, their
// better quartile.
func printParts(v figure) {
	if len(v.parts) == 0 {
		return
	}
	parts, more := v.parts, ""
	if len(parts) > 15 {
		parts, more = parts[:15], fmt.Sprintf(" … %d more", len(v.parts)-15)
	}
	line := fmt.Sprintf("      parts %.4g%s", parts, more)
	if v.quiet != 0 {
		line += fmt.Sprintf("  quiet quartile %.4g", v.quiet)
	}
	fmt.Println(line)
}

// runPass runs one pass of one workload and prints it; the JSON line
// comes last.
func runPass(w workload, traced bool, cfg config, temps *tempDirs) (*report, error) {
	e := &env{
		workload: w.name, seed: cfg.seed, dur: cfg.dur, warm: cfg.warm,
		rqs: core.Example7RQS(), table: sim.KeyTable(keyTableSize), values: newValueGen(cfg.seed),
		clk: newClock(), spans: cfg.spans, breakCheck: &atomic.Bool{}, temps: temps,
	}
	e.breakCheck.Store(cfg.breakCheck)
	pass, list, title := w.e2e, endToEnd, "end-to-end (untraced)"
	if traced {
		pass, list, title = w.layers, perLayer, "per-layer (counters, probes, traced pass)"
	}
	timer := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "benchmark: %s did not finish within %v\n", w.name, watchdog)
		temps.removeAll()
		os.Exit(3)
	})
	defer timer.Stop()
	rep, err := pass(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if rep.attempted == 0 {
		return nil, fmt.Errorf("%s: no operation was attempted", w.name)
	}
	if traced {
		rep.set("bench.failed_share", plain(100*float64(rep.failed)/float64(rep.attempted)))
	}
	rep.print(fmt.Sprintf("== %s  seed %d  window %v  %s", w.name, cfg.seed, cfg.dur, title), list)
	line, err := json.Marshal(rep.result(list))
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return rep, nil
}

type config struct {
	seed       int64
	dur, warm  time.Duration
	spans      string
	breakCheck bool
}

func main() {
	var (
		names = flag.String("workload", "", "comma-separated workloads to run (default: all six)")
		seed  = flag.Int64("seed", 1, "seed of the input generators")
		// The driver of BENCHMARK.json passes -seconds on every run. Run
		// length is fixed by the benchmark, so it is not a setting: any
		// value but runSeconds is refused.
		seconds    = flag.Int("seconds", runSeconds, "measured window per pass; must be BENCHMARK.json's run_seconds")
		trace      = flag.String("trace", "", "0: end-to-end pass only; 1: per-layer pass only; FILE: per-layer pass only, spans appended to FILE as JSON lines (default: both passes)")
		short      = flag.Bool("short", false, "1 s windows: a smoke run, not a measurement")
		aa         = flag.Int("aa", 0, "A/A mode: run the end-to-end suite N times and compare")
		breakCheck = flag.Bool("break-check", false, "test hook: flip one expected value; the run must fail")
	)
	flag.Parse()
	if *seconds != runSeconds {
		fmt.Fprintf(os.Stderr, "benchmark: -seconds %d: the measured window is fixed at %d s (-short: 1 s)\n", *seconds, runSeconds)
		os.Exit(2)
	}

	// Fixed conditions, whatever the host: two Ps for all servers and
	// clients together.
	runtime.GOMAXPROCS(2)
	warmCPU()
	cfg := config{seed: *seed, dur: runSeconds * time.Second, warm: time.Second, breakCheck: *breakCheck}
	if *short {
		cfg.dur, cfg.warm = time.Second, 200*time.Millisecond
	}
	passes := []bool{false, true}
	switch *trace {
	case "":
	case "0":
		passes = []bool{false}
	default:
		passes = []bool{true}
		if *trace != "1" {
			cfg.spans = *trace
		}
	}

	var selected []workload
	for _, w := range workloads() {
		if *names == "" || contains(strings.Split(*names, ","), w.name) {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || (*names != "" && len(selected) != len(strings.Split(*names, ","))) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload in %q\n", *names)
		os.Exit(2)
	}

	temps := &tempDirs{live: make(map[string]bool)}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		temps.removeAll()
		os.Exit(130)
	}()

	fmt.Printf("# rqs benchmark: GOMAXPROCS=2 (host has %d CPUs), %s, all servers and clients in one process, quorum system Example7 (n=6), no message delay injected, unique values, keys from sim.KeyTable(%d), fdatasync on where durable\n",
		runtime.NumCPU(), runtime.Version(), keyTableSize)

	code := 0
	if *aa > 0 {
		if !runAA(selected, *aa, cfg, temps) {
			code = 1
		}
	} else {
		for _, w := range selected {
			for _, traced := range passes {
				rep, err := runPass(w, traced, cfg, temps)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					temps.removeAll()
					os.Exit(1)
				}
				if rep.failed > 0 {
					code = 1
				}
			}
		}
	}
	temps.removeAll()
	os.Exit(code)
}

// warmCPU spins both Ps until a fixed unit of work stops getting
// faster. A sandbox vCPU that has been idle runs at about half speed
// for its first second under load; without this, set-up — and on short
// runs the first slices — would measure that ramp instead of the
// program.
func warmCPU() {
	unit := func() time.Duration {
		x := uint64(1)
		t0 := time.Now()
		for i := 0; i < 1<<20; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		probeSink.Add(int64(x & 1))
		return time.Since(t0)
	}
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			best, steady := unit(), 0
			for t0 := time.Now(); steady < 100 && time.Since(t0) < 3*time.Second; {
				if d := unit(); d < best*95/100 {
					best, steady = d, 0
				} else {
					steady++
				}
			}
		}()
	}
	wg.Wait()
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// runAA runs the end-to-end suite n times back to back and prints, per
// (metric, workload), min/median/max and the relative spread
// (max−min)/median, against the metric's bound. It reports false when
// a run failed or a spread exceeded its bound; setup_s is shown but
// not judged on spread (the acceptance rule exempts it too).
func runAA(selected []workload, n int, cfg config, temps *tempDirs) bool {
	values := make(map[string][]float64)
	ok := true
	for i := 0; i < n; i++ {
		for _, w := range selected {
			rep, err := runPass(w, false, cfg, temps)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return false
			}
			ok = ok && rep.failed == 0
			for _, m := range endToEnd {
				key := w.name + " " + m.name
				values[key] = append(values[key], rep.value(m.name))
			}
		}
	}
	fmt.Printf("\n== A/A: %d runs of the same code, seed %d, window %v\n", n, cfg.seed, cfg.dur)
	fmt.Printf("%-20s %-18s %12s %12s %12s %8s %6s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, w := range selected {
		for _, m := range endToEnd {
			v := sortedCopy(values[w.name+" "+m.name])
			spread := 0.0
			if med := median(v); med != 0 {
				spread = (v[len(v)-1] - v[0]) / med
			}
			verdict := ""
			if spread > m.bound && m.name != "setup_s" {
				verdict, ok = "  UNRESOLVED: spread exceeds bound", false
			}
			fmt.Printf("%-20s %-18s %12.4g %12.4g %12.4g %7.1f%% %5.0f%%%s\n",
				w.name, m.name, v[0], median(v), v[len(v)-1], 100*spread, 100*m.bound, verdict)
		}
	}
	return ok
}
