package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The smoke tests run the command itself: the test binary re-executes
// as the benchmark when childEnv is set.
const childEnv = "RQS_BENCHMARK_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runChild(t *testing.T, args ...string) (stdout string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		return out.String(), ee.ExitCode()
	}
	if err != nil {
		t.Fatalf("running the benchmark: %v\n%s", err, errOut.String())
	}
	return out.String(), 0
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestSpecMatchesBenchmarkJSON: the names, units, bounds and
// directions fixed in spec.go and main.go are the ones BENCHMARK.json
// publishes.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the command's default window is %d", b.RunSeconds, runSeconds)
	}
	ws := workloads()
	if len(ws) != len(b.Workloads) {
		t.Fatalf("%d workloads in the command, %d in BENCHMARK.json", len(ws), len(b.Workloads))
	}
	for i, w := range ws {
		if w.name != b.Workloads[i].Name || w.why != b.Workloads[i].Why {
			t.Errorf("workload %d: command has %q (%q), BENCHMARK.json %q (%q)", i, w.name, w.why, b.Workloads[i].Name, b.Workloads[i].Why)
		}
	}
	same := func(kind string, spec []metricSpec, js []jsonMetric) {
		if len(spec) != len(js) {
			t.Fatalf("%s: %d metrics in spec.go, %d in BENCHMARK.json", kind, len(spec), len(js))
		}
		for i, m := range spec {
			better := "lower"
			if m.higher {
				better = "higher"
			}
			if j := js[i]; m.name != j.Name || m.unit != j.Unit || m.bound != j.Bound || better != j.Better {
				t.Errorf("%s %d: spec.go has %+v, BENCHMARK.json %+v", kind, i, m, j)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
}

// TestShortRunEmitsEverythingOnce runs every workload with 1 s windows
// and asserts only structure: each workload prints one end-to-end and
// one per-layer result, each carrying exactly the metrics BENCHMARK.json
// names with their units, and nothing failed. No timing is asserted.
func TestShortRunEmitsEverythingOnce(t *testing.T) {
	b := loadBenchmarkJSON(t)
	out, exit := runChild(t, "-short", "-seed", "3")
	if exit != 0 {
		t.Fatalf("exit code %d\n%s", exit, out)
	}
	type pass struct{ results []result }
	seen := make(map[string]*pass) // "workload/end-to-end" or "workload/per-layer"
	var current string
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "== ") {
			current = strings.Fields(line)[1] + "/end-to-end"
			if strings.Contains(line, "per-layer") {
				current = strings.Fields(line)[1] + "/per-layer"
			}
			continue
		}
		if strings.HasPrefix(line, "{") {
			var r result
			dec := json.NewDecoder(strings.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&r); err != nil {
				t.Fatalf("result line of %s: %v", current, err)
			}
			if seen[current] == nil {
				seen[current] = &pass{}
			}
			seen[current].results = append(seen[current].results, r)
		}
	}
	check := func(key string, want []jsonMetric) {
		p := seen[key]
		if p == nil || len(p.results) != 1 {
			t.Errorf("%s: want exactly one result line, got %v", key, p)
			return
		}
		r := p.results[0]
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", key, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(want) {
			t.Errorf("%s: %d metrics, want %d", key, len(r.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := r.Metrics[m.Name]
			if !ok {
				t.Errorf("%s: metric %s missing", key, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s: %s has unit %q, want %q", key, m.Name, got.Unit, m.Unit)
			}
		}
		for _, m := range b.EndToEnd {
			if v, ok := r.Metrics[m.Name]; ok && v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", key, m.Name, v.Value)
			}
		}
	}
	for _, w := range b.Workloads {
		check(w.Name+"/end-to-end", b.EndToEnd)
		check(w.Name+"/per-layer", b.PerLayer)
	}
	if len(seen) != 2*len(b.Workloads) {
		t.Errorf("%d passes printed, want %d", len(seen), 2*len(b.Workloads))
	}
}

// TestBrokenCheckFailsTheRun: with one expected value flipped behind
// the test hook, the command must count a failure and exit non-zero.
func TestBrokenCheckFailsTheRun(t *testing.T) {
	for _, w := range []string{"kv-mem-auth-c1", "smr-mem-w16", "swmr-mem-degraded"} {
		out, exit := runChild(t, "-short", "-trace", "0", "-workload", w, "-break-check")
		if exit == 0 {
			t.Errorf("%s: exit code 0 with a broken check", w)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatalf("%s: last line is not a result: %v", w, err)
		}
		if r.Correct || r.Failed < 1 {
			t.Errorf("%s: correct=%v failed=%d with a broken check", w, r.Correct, r.Failed)
		}
	}
}

// TestSecondsIsNotASetting: the driver passes -seconds, but run length
// is fixed by the benchmark; any other value is refused.
func TestSecondsIsNotASetting(t *testing.T) {
	if _, exit := runChild(t, "-short", "-seconds", "5", "-workload", "kv-mem-auth-c1"); exit != 2 {
		t.Errorf("exit code %d for -seconds 5, want 2", exit)
	}
}

// TestTraceFileKeepsSpans: -trace FILE runs the per-layer pass alone
// and writes its spans as JSON lines, every span under a written op.
func TestTraceFileKeepsSpans(t *testing.T) {
	file := filepath.Join(t.TempDir(), "spans.jsonl")
	out, exit := runChild(t, "-short", "-workload", "kv-mem-auth-c1", "-trace", file)
	if exit != 0 {
		t.Fatalf("exit code %d\n%s", exit, out)
	}
	if strings.Contains(out, "end-to-end (untraced)") || !strings.Contains(out, "per-layer") {
		t.Errorf("-trace FILE must run the per-layer pass only:\n%s", out)
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]bool)
	var spans []span
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		ids[s.ID] = true
		spans = append(spans, s)
	}
	if len(spans) < 100 {
		t.Fatalf("%d spans written, want the whole traced pass", len(spans))
	}
	for _, s := range spans {
		if s.End < s.Start || !ids[s.Op] {
			t.Fatalf("span %+v: negative, or its op was never written", s)
		}
	}
}
