package rqs

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/sim"
)

// One benchmark per experiment of EXPERIMENTS.md. Each E-bench runs the
// full experiment (schedule, protocol run, or computation) per iteration;
// the E11 benches measure steady-state protocol throughput.

func BenchmarkE1Fig1Violation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, results := expt.E1Fig1(); results[0].Violation == "" {
			b.Fatal("greedy algorithm unexpectedly atomic")
		}
	}
}

func BenchmarkE2Fig2Intersections(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.E2Fig2()
	}
}

func BenchmarkE3Fig3Verify(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.E3Fig3()
	}
}

func BenchmarkE4Fig4Executions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.E4Fig4()
	}
}

func BenchmarkE5StorageLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.E5StorageLatency()
	}
}

func BenchmarkE6Theorem3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, outcomes := expt.E6Theorem3(); outcomes[0].Violation == "" {
			b.Fatal("broken system unexpectedly atomic")
		}
	}
}

func BenchmarkE7ConsensusLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.E7ConsensusLatency()
	}
}

func BenchmarkE8Theorem6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, outcomes := expt.E8Theorem6(); !outcomes[0].AgreementViolated {
			b.Fatal("broken system unexpectedly safe")
		}
	}
}

func BenchmarkE9MinimalN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.E9MinimalN()
	}
}

func BenchmarkE10ViewChange(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.E10ViewChange()
	}
}

func BenchmarkE11ThroughputStorageWrite(b *testing.B) {
	c := NewStorage(Example7RQS(), StorageOptions{Timeout: 500 * time.Microsecond})
	defer c.Stop()
	w := c.Writer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Write("v")
	}
}

func BenchmarkE11ThroughputStorageRead(b *testing.B) {
	c := NewStorage(Example7RQS(), StorageOptions{Timeout: 500 * time.Microsecond})
	defer c.Stop()
	c.Writer().Write("v")
	r := c.Reader()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Read()
	}
}

func BenchmarkE11ThroughputStorageReadN8(b *testing.B) {
	system, err := NewThresholdRQS(ThresholdParams{N: 8, T: 3, R: 2, Q: 1, K: 1})
	if err != nil {
		b.Fatal(err)
	}
	c := NewStorage(system, StorageOptions{Timeout: 500 * time.Microsecond})
	defer c.Stop()
	c.Writer().Write("v")
	r := c.Reader()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Read()
	}
}

func BenchmarkE11ThroughputConsensusDecision(b *testing.B) {
	// Consensus is single-shot: each iteration builds a lockstep cluster
	// (key generation included) and decides — throughput includes
	// deployment cost.
	// BenchmarkSMRPipelined shows what pipelining slots over one shared
	// deployment saves relative to this.
	for i := 0; i < b.N; i++ {
		c, err := NewConsensus(Example7RQS(), ConsensusOptions{Learners: 1})
		if err != nil {
			b.Fatal(err)
		}
		c.Proposers[0].Propose("v")
		if len(c.Run()) > 0 {
			b.Fatal("no decision")
		}
	}
}

func BenchmarkE11ThroughputMWMRWrite(b *testing.B) {
	c := NewStorage(Example7RQS(), StorageOptions{Timeout: 500 * time.Microsecond})
	defer c.Stop()
	w := c.KVClient()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Put("", "v")
	}
}

func BenchmarkE11ThroughputMWMRRead(b *testing.B) {
	c := NewStorage(Example7RQS(), StorageOptions{Timeout: 500 * time.Microsecond})
	defer c.Stop()
	c.KVClient().Put("", "v")
	r := c.KVClient()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Get("")
	}
}

// The many-client load benchmarks run C closed-loop clients against
// one deployment through sim.RunManyClients (the same harness behind
// `rqs-bench -load` and the perf gate's load/* entries): ns/op
// aggregates across clients, so ops/sec = 1e9 / ns_per_op. This is
// the throughput number the single-client E11 benches cannot produce:
// it includes the server-side contention that batching amortizes.

// BenchmarkStorageManyClients is C concurrent SWMR readers (each on its
// own client port) against one storage deployment — the read-mostly
// many-user regime of the ROADMAP north star.
func BenchmarkStorageManyClients(b *testing.B) {
	for _, c := range sim.LoadConcurrencies {
		b.Run(fmt.Sprintf("c%d", c), func(b *testing.B) {
			cl := NewStorage(Example7RQS(), StorageOptions{Timeout: 500 * time.Microsecond, Clients: c + 1})
			defer cl.Stop()
			cl.Writer().Write("v")
			sim.RunManyClients(b, c, func() func() error {
				r := cl.Reader()
				return func() error { r.Read(); return nil }
			})
		})
	}
}

// BenchmarkMWMRManyWriters is C concurrent multi-writer clients
// contending on the MWMR register (tags keep them ordered).
func BenchmarkMWMRManyWriters(b *testing.B) {
	for _, c := range sim.LoadConcurrencies {
		b.Run(fmt.Sprintf("c%d", c), func(b *testing.B) {
			cl := NewStorage(Example7RQS(), StorageOptions{Timeout: 500 * time.Microsecond, Clients: c})
			defer cl.Stop()
			sim.RunManyClients(b, c, func() func() error {
				kv := cl.KVClient()
				return func() error { _, err := kv.Put("", "v"); return err }
			})
		})
	}
}

// BenchmarkKVManyClients is C concurrent KV clients over a
// two-shard-group keyed deployment: uniform Puts and zipfian (s=1.2)
// Gets over a 1k-key table (the perf gate's load/kv-* entries run the
// 10k-key variant). Matches the CI bench-smoke pattern so every PR
// exercises one kv load cell.
func BenchmarkKVManyClients(b *testing.B) {
	table := sim.KeyTable(1024)
	for _, c := range sim.LoadConcurrencies {
		b.Run(fmt.Sprintf("put/c%d", c), func(b *testing.B) {
			cl := NewKV(Example7RQS(), KVOptions{Groups: 2, Clients: c})
			defer cl.Stop()
			var seed int64
			sim.RunManyClients(b, c, func() func() error {
				seed++
				kv := cl.Client()
				keys := sim.NewUniformKeys(seed, table)
				return func() error { _, err := kv.Put(keys(), "v"); return err }
			})
		})
		b.Run(fmt.Sprintf("get-zipf/c%d", c), func(b *testing.B) {
			cl := NewKV(Example7RQS(), KVOptions{Groups: 2, Clients: c + 1})
			defer cl.Stop()
			pre := cl.Client()
			for _, key := range table {
				if _, err := pre.Put(key, "v"); err != nil {
					b.Fatal(err)
				}
			}
			var seed int64
			sim.RunManyClients(b, c, func() func() error {
				seed++
				kv := cl.Client()
				keys := sim.NewZipfKeys(seed, 1.2, table)
				return func() error { _, _, err := kv.Get(keys()); return err }
			})
		})
	}
}

// BenchmarkTCPStorageManyClients is BenchmarkStorageManyClients over
// real loopback TCP in shared-session mode: all C logical clients are
// colocated on one client host, so the socket count per process pair
// stays O(1) while throughput scales with C. The perf gate's load/tcp-*
// entries enforce the C=64 and C=256 points; the C=256 swarm is the
// fan-in regime the per-link credit windows exist for, so it runs here
// too (beyond the standard concurrency ladder).
func BenchmarkTCPStorageManyClients(b *testing.B) {
	for _, c := range append(append([]int{}, sim.LoadConcurrencies...), 256) {
		b.Run(fmt.Sprintf("c%d", c), func(b *testing.B) {
			cl, err := sim.NewTCPStorageCluster(Example7RQS(), sim.StorageOptions{Clients: c + 1})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Stop()
			cl.Writer().Write("v")
			sim.RunManyClients(b, c, func() func() error {
				r := cl.Reader()
				return func() error { r.Read(); return nil }
			})
		})
	}
}

// BenchmarkSMRPipelinedManyClients is C concurrent clients deciding
// commands through one shared pipelined SMR deployment (Append is safe
// for concurrent use; slots commit independently).
func BenchmarkSMRPipelinedManyClients(b *testing.B) {
	for _, c := range sim.LoadConcurrencies {
		b.Run(fmt.Sprintf("c%d", c), func(b *testing.B) {
			cl, err := NewSMR(Example7RQS(), SMROptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Stop()
			if _, _, ok := cl.Decide("warm", 10*time.Second); !ok {
				b.Fatal("warm-up decision failed")
			}
			sim.RunManyClients(b, c, func() func() error {
				return func() error {
					if _, _, ok := cl.Decide("cmd", 10*time.Second); !ok {
						return fmt.Errorf("decision did not commit")
					}
					return nil
				}
			})
		})
	}
}

// BenchmarkSMRPipelined measures per-decision cost when many log slots
// share one consensus deployment (one key generation, one cluster),
// against the per-slot-setup baseline that stands a full cluster up
// for every decision (the E11 consensus bench). ns/op is ns/decision
// and allocs/op allocations per decision in every case; the window is
// how many proposals are in flight at once over the shared deployment.
func BenchmarkSMRPipelined(b *testing.B) {
	for _, window := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("pipelined/window-%d", window), func(b *testing.B) {
			b.ReportAllocs()
			c, err := NewSMR(Example7RQS(), SMROptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Stop()
			// Warm the per-role hosts before timing.
			if _, _, ok := c.Decide("warm", 10*time.Second); !ok {
				b.Fatal("warm-up decision failed")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i += window {
				n := window
				if rem := b.N - i; rem < n {
					n = rem
				}
				slots := make([]int, n)
				for j := 0; j < n; j++ {
					slots[j] = c.Append("cmd")
				}
				for _, s := range slots {
					if _, ok := c.Wait(s, 10*time.Second); !ok {
						b.Fatalf("slot %d did not commit", s)
					}
				}
			}
		})
	}
	b.Run("per-slot-setup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := NewConsensus(Example7RQS(), ConsensusOptions{Learners: 1})
			if err != nil {
				b.Fatal(err)
			}
			c.Proposers[0].Propose("v")
			if len(c.Run()) > 0 {
				b.Fatal("no decision")
			}
		}
	})
}

func BenchmarkE12Availability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.E12Availability()
	}
}

// Micro-benchmarks of the core primitives.

func BenchmarkCoreVerifyExample7(b *testing.B) {
	r := Example7RQS()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreVerifyThreshold8(b *testing.B) {
	r, err := NewThresholdRQS(ThresholdParams{N: 8, T: 3, R: 2, Q: 1, K: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoreContainedQuorum(b *testing.B) {
	r, err := NewThresholdRQS(ThresholdParams{N: 8, T: 3, R: 2, Q: 1, K: 1})
	if err != nil {
		b.Fatal(err)
	}
	responded := core.NewSet(0, 1, 2, 3, 4, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := r.ContainedQuorum(responded, Class2); !ok {
			b.Fatal("no quorum")
		}
	}
}

// Guard against accidental API breakage of the facade used above.
var _ = sim.StorageOptions{}

// Ablation benches: the design choices DESIGN.md calls out.

// BenchmarkA1QC2Ablation measures the class-2 read scenario (1-round
// write through the class-1 quorum, then s6 gone) with and without the
// paper's class-2-quorum-id scheme: 2 rounds with it, 3 without.
func BenchmarkA1QC2Ablation(b *testing.B) {
	run := func(b *testing.B, disable bool, wantRounds int) {
		for i := 0; i < b.N; i++ {
			c := NewStorage(Example7RQS(), StorageOptions{Timeout: 500 * time.Microsecond, Clients: 2})
			w := c.Writer()
			r := c.ReaderOpts(ReaderOptions{DisableQC2: disable})
			w.Write("v")
			c.CrashServers(NewSet(5))
			if res := r.Read(); res.Rounds != wantRounds {
				c.Stop()
				b.Fatalf("rounds = %d, want %d", res.Rounds, wantRounds)
			}
			c.Stop()
		}
	}
	b.Run("with-qc2-scheme", func(b *testing.B) { run(b, false, 2) })
	b.Run("ablated", func(b *testing.B) { run(b, true, 3) })
}

// BenchmarkA2RegularVsAtomicReads compares the cost of the two read
// semantics of Section 6 in steady state.
func BenchmarkA2RegularVsAtomicReads(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts ReaderOptions
	}{
		{"atomic", ReaderOptions{}},
		{"regular", ReaderOptions{Semantics: RegularReads}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			c := NewStorage(Example7RQS(), StorageOptions{Timeout: 500 * time.Microsecond, Clients: 2})
			defer c.Stop()
			c.Writer().Write("v")
			r := c.ReaderOpts(mode.opts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Read()
			}
		})
	}
}

// BenchmarkA3SMRLogThroughput commits slots through the smr layer.
func BenchmarkA3SMRLogThroughput(b *testing.B) {
	system := Example7RQS()
	nA := system.N()
	topo := consensus.Topology{
		Acceptors: system.Universe(),
		Proposers: []ProcessID{nA},
		Learners:  NewSet(nA + 1),
	}
	ring, signers, err := consensus.GenKeys(system.Universe())
	if err != nil {
		b.Fatal(err)
	}
	net := NewNetwork(nA + 2)
	var replicas []*LogReplica
	for _, id := range system.Universe().Members() {
		replicas = append(replicas, NewLogReplica(system, topo, net.Port(id), ring, signers[id]))
	}
	prop := NewLogProposer(topo, net.Port(nA))
	logHost := NewLog(system, topo, net.Port(nA+1), 0)
	defer func() {
		net.Close()
		for _, r := range replicas {
			r.Stop()
		}
		prop.Stop()
		logHost.Stop()
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prop.Propose(i, "cmd")
		if _, ok := logHost.Wait(i, 10*time.Second); !ok {
			b.Fatalf("slot %d did not commit", i)
		}
	}
}
