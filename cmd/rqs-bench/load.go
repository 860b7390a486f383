package main

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/sim"
)

// rqs-bench -load: the closed-loop many-client load harness. It runs
// C ∈ {1, 8, 64} concurrent clients against one deployment on both
// transports and reports ops/sec and allocs/op — the throughput axis
// the single-client experiment tables cannot show. The in-memory
// mid/high-concurrency points also run inside the perf suite
// (`-json` / `-check`) as load/* entries, so regressions against the
// committed BENCH_RESULTS.json fail CI like latency regressions do.

// memStorageLoad is a many-client workload over the in-memory
// transport: read selects C SWMR readers (after one seed write),
// otherwise C MWMR writers.
func memStorageLoad(r *core.RQS, c int, read bool) func(b *testing.B) {
	return func(b *testing.B) {
		cl := sim.NewStorageCluster(r, sim.StorageOptions{Timeout: 500 * time.Microsecond, Clients: c + 1})
		defer cl.Stop()
		if read {
			cl.Writer().Write("v")
		}
		sim.RunManyClients(b, c, func() func() error {
			if read {
				rd := cl.Reader()
				return func() error { rd.Read(); return nil }
			}
			kv := cl.KVClient()
			return func() error { _, err := kv.Put("", "v"); return err }
		})
	}
}

// memStorageAuthLoad is the mwmr-write load point with authenticated
// tags: every write pays one writer signature over 〈ts, writer, key,
// value-digest〉 plus quorum-many countersignature verifications on the
// acks, and the read phase before it verifies each server's
// countersigned tag. The HMAC point is the deployment default priced
// by the load/mwmr-write-auth-c64 gate (bounded against the unsigned
// write number); the ed25519 point prices the transferable-signature
// mode for the PERF.md overhead table.
func memStorageAuthLoad(r *core.RQS, c int, mode auth.Mode) func(b *testing.B) {
	return func(b *testing.B) {
		dep := sim.AuthDeployment(mode, r, c+1)
		cl := sim.NewStorageCluster(r, sim.StorageOptions{
			Timeout: 500 * time.Microsecond, Clients: c + 1, Auth: dep,
		})
		defer cl.Stop()
		sim.RunManyClients(b, c, func() func() error {
			kv := cl.KVClient()
			return func() error { _, err := kv.Put("", "v"); return err }
		})
	}
}

// memStorageDurableLoad is the mwmr-write load point over durable
// servers: every server burst pays one batched WAL append + fdatasync
// before its acks leave (group commit riding the burst drain), so the
// fsync cost amortizes over up to 64 concurrent writes. noSync drops
// the fdatasync while keeping the log writes — the pair prices the
// fsync tax separately from the serialization/IO overhead.
func memStorageDurableLoad(r *core.RQS, c int, noSync bool) func(b *testing.B) {
	return func(b *testing.B) {
		dir, err := os.MkdirTemp("", "rqs-bench-wal-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		cl := sim.NewStorageCluster(r, sim.StorageOptions{
			Timeout: 500 * time.Microsecond, Clients: c + 1,
			DataDir: dir, WALNoSync: noSync,
		})
		defer cl.Stop()
		sim.RunManyClients(b, c, func() func() error {
			kv := cl.KVClient()
			return func() error { _, err := kv.Put("", "v"); return err }
		})
	}
}

// kvLoadKeys is the keyspace size of the kv load points: large enough
// that the per-key register map and its sharding actually matter,
// small enough that preloading stays a fraction of the measured run.
const kvLoadKeys = 10000

// kvLoad is C concurrent KV clients over a two-shard-group in-memory
// deployment. Writes draw keys uniformly over the 10k-key table; reads
// draw them zipfian (s=1.2) over the same table, preloaded with one
// Put per key — the skewed-read regime where the head keys resolve on
// the one-round fast path while the tail still exercises the lazily
// created register states.
func kvLoad(r *core.RQS, c int, read bool) func(b *testing.B) {
	return func(b *testing.B) {
		cl := sim.NewKVCluster(r, sim.KVOptions{Groups: 2, Clients: c + 1})
		defer cl.Stop()
		table := sim.KeyTable(kvLoadKeys)
		if read {
			pre := cl.Client()
			for _, key := range table {
				if _, err := pre.Put(key, "v"); err != nil {
					b.Fatal(err)
				}
			}
		}
		var seed int64
		sim.RunManyClients(b, c, func() func() error {
			seed++
			kv := cl.Client()
			if read {
				keys := sim.NewZipfKeys(seed, 1.2, table)
				return func() error { _, _, err := kv.Get(keys()); return err }
			}
			keys := sim.NewUniformKeys(seed, table)
			return func() error { _, err := kv.Put(keys(), "v"); return err }
		})
	}
}

// smrLoad is C concurrent clients deciding commands through one shared
// pipelined SMR deployment.
func smrLoad(r *core.RQS, c int) func(b *testing.B) {
	return func(b *testing.B) {
		cl, err := sim.NewSMRCluster(r, sim.SMROptions{})
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
	}
}

// tcpStorageLoad is memStorageLoad over real TCP sockets, in
// shared-session mode: all C logical clients are colocated on ONE
// client host (one socket per server, O(1) per process pair), the
// deployment shape the session layer was built for.
func tcpStorageLoad(r *core.RQS, c int, read bool) func(b *testing.B) {
	return func(b *testing.B) {
		cl, err := sim.NewTCPStorageCluster(r, sim.StorageOptions{Clients: c + 1})
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Stop()
		if read {
			cl.Writer().Write("v")
		}
		sim.RunManyClients(b, c, func() func() error {
			if read {
				rd := cl.Reader()
				return func() error { rd.Read(); return nil }
			}
			kv := cl.KVClient()
			return func() error { _, err := kv.Put("", "v"); return err }
		})
	}
}

// runLoadMatrix executes the full load matrix and prints one row per
// (transport, workload, C) point.
func runLoadMatrix() error {
	example7 := core.Example7RQS()
	type point struct {
		transport, workload string
		c                   int
		fn                  func(b *testing.B)
	}
	var points []point
	for _, c := range sim.LoadConcurrencies {
		points = append(points,
			point{"memory", "storage-read", c, memStorageLoad(example7, c, true)},
			point{"memory", "mwmr-write", c, memStorageLoad(example7, c, false)},
			point{"memory", "mwmr-write-hmac", c, memStorageAuthLoad(example7, c, auth.ModeHMAC)},
			point{"memory", "mwmr-write-ed25519", c, memStorageAuthLoad(example7, c, auth.ModeEd25519)},
			point{"memory", "durable-write", c, memStorageDurableLoad(example7, c, false)},
			point{"memory", "durable-nosync", c, memStorageDurableLoad(example7, c, true)},
			point{"memory", "smr-decide", c, smrLoad(example7, c)},
			point{"memory", "kv-put", c, kvLoad(example7, c, false)},
			point{"memory", "kv-get-zipf", c, kvLoad(example7, c, true)},
			point{"tcp", "storage-read", c, tcpStorageLoad(example7, c, true)},
			point{"tcp", "mwmr-write", c, tcpStorageLoad(example7, c, false)},
		)
	}
	// The C=256 fan-in swarm runs beyond the standard ladder on the TCP
	// read path only: 256 colocated logical clients against one shared
	// session per server is the regime the per-link credit windows and
	// the arena-backed burst receive are built for (also gated as
	// load/tcp-storage-read-c256 in the perf suite).
	points = append(points, point{"tcp", "storage-read", 256, tcpStorageLoad(example7, 256, true)})
	fmt.Printf("%-8s %-14s %4s %12s %12s %10s\n", "transport", "workload", "C", "ops/sec", "ns/op", "allocs/op")
	for _, p := range points {
		r := testing.Benchmark(p.fn)
		if r.N == 0 {
			return fmt.Errorf("load point %s/%s/c%d failed", p.transport, p.workload, p.c)
		}
		nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
		fmt.Printf("%-8s %-14s %4d %12.0f %12.0f %10d\n",
			p.transport, p.workload, p.c, 1e9/nsPerOp, nsPerOp, r.AllocsPerOp())
	}
	return nil
}
