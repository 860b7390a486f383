package sim

import (
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// BenchmarkDurableWriteC64 is the durable mwmr-write load point in
// benchmark form, so the group-commit amortization (fsyncs per op,
// appends per fsync) and the op-latency distribution can be profiled
// directly with go test -bench.
func BenchmarkDurableWriteC64(b *testing.B) {
	dir, err := os.MkdirTemp("", "rqs-bench-wal-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cl := NewStorageCluster(core.Example7RQS(), StorageOptions{
		Clients: 65,
		DataDir: dir,
	})
	defer cl.Stop()
	var mu sync.Mutex
	var lats []time.Duration
	RunManyClients(b, 64, func() func() error {
		kv := cl.KVClient()
		return func() error {
			t0 := time.Now()
			kv.Put("", "v")
			d := time.Since(t0)
			mu.Lock()
			lats = append(lats, d)
			mu.Unlock()
			return nil
		}
	})
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if n := len(lats); n > 0 {
		b.Logf("op latency p50=%v p90=%v p99=%v max=%v", lats[n/2], lats[n*9/10], lats[n*99/100], lats[n-1])
	}
	var appends, syncs, fsyncs, fsyncNs int64
	for _, s := range cl.Servers {
		if st, ok := s.WALStats(); ok {
			appends += st.Appends
			syncs += st.Syncs
			fsyncs += st.Fsyncs
			fsyncNs += st.FsyncNanos
		}
	}
	if fsyncs > 0 {
		b.ReportMetric(float64(fsyncNs)/float64(fsyncs)/1e3, "µs/fsync")
		b.ReportMetric(float64(fsyncs)/float64(b.N), "fsyncs/op")
		b.ReportMetric(float64(appends)/float64(fsyncs), "appends/fsync")
	}
	b.ReportMetric(float64(syncs)/float64(b.N), "syncs/op")
}
