// Command rqs-bench regenerates the experiment tables E1-E12 of
// EXPERIMENTS.md: the paper's figures, best-case latency claims, and
// lower-bound schedules, each as an executable experiment.
//
// Usage:
//
//	rqs-bench                           # run everything
//	rqs-bench -e E5,E7                  # run selected experiments
//	rqs-bench -list                     # list available experiments
//	rqs-bench -json BENCH_RESULTS.json  # machine-readable perf suite
//	rqs-bench -check BENCH_RESULTS.json # fail on >25% hot-path regressions
//	rqs-bench -load                     # many-client load matrix, both transports
//
// Any mode accepts -cpuprofile/-memprofile to write pprof profiles, so
// a perf-gate regression in CI can be diagnosed from artifacts instead
// of reproduced locally.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/expt"
)

func main() {
	// Durable load points block in fdatasync. With a single P the
	// runtime cannot hand the P off until sysmon retakes it (20µs-10ms
	// adaptive), so every disk flush stalls the whole scheduler; a
	// second P keeps the protocol running while a flush is in flight.
	// Measured on a 1-CPU host: ~4× durable-write throughput.
	if runtime.GOMAXPROCS(0) < 2 {
		runtime.GOMAXPROCS(2)
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rqs-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rqs-bench", flag.ContinueOnError)
	var (
		exps      = fs.String("e", "all", "comma-separated experiment ids (E1..E12) or 'all'")
		list      = fs.Bool("list", false, "list experiments and exit")
		jsonPath  = fs.String("json", "", "run the perf suite and write BENCH_RESULTS-style JSON to this path ('-' for stdout)")
		checkPath = fs.String("check", "", "run the perf suite and fail on regressions against this baseline JSON (the committed BENCH_RESULTS.json)")
		tolerance = fs.Float64("tolerance", 0.25, "allowed ns/op regression fraction for -check (0.25 = 25%)")
		load      = fs.Bool("load", false, "run the many-client closed-loop load matrix (C ∈ {1,8,64}, both transports) and print ops/sec")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU pprof profile of the run to this path")
		memProf   = fs.String("memprofile", "", "write a heap pprof profile at the end of the run to this path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rqs-bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush recently-freed objects out of the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rqs-bench: memprofile:", err)
			}
		}()
	}
	if *jsonPath != "" {
		return writeBenchJSON(*jsonPath)
	}
	if *checkPath != "" {
		return checkBench(*checkPath, *tolerance)
	}
	if *load {
		return runLoadMatrix()
	}

	order := make([]string, 0, len(expt.Experiments))
	for id := range expt.Experiments {
		order = append(order, id)
	}
	sort.Slice(order, func(i, j int) bool {
		return atoi(order[i][1:]) < atoi(order[j][1:])
	})

	if *list {
		fmt.Println(strings.Join(order, " "))
		fmt.Println("E11 is the throughput suite: run `go test -bench=E11 -benchmem .`")
		return nil
	}

	selected := order
	if *exps != "all" {
		selected = nil
		for _, id := range strings.Split(*exps, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if _, ok := expt.Experiments[id]; !ok {
				return fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			selected = append(selected, id)
		}
	}
	for _, id := range selected {
		fmt.Println(expt.Experiments[id]().Format())
	}
	return nil
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}
