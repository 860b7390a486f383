//go:build !race

package storage_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestClientOpAllocs bounds the allocations of one client operation on
// in-memory Example 7 with every server up: the request, the servers'
// handling and acks, and the client's steps. AllocsPerRun counts every
// goroutine's mallocs, so the servers are inside the bound too. The
// race detector allocates on its own, hence the build tag.
func TestClientOpAllocs(t *testing.T) {
	kc := sim.NewKVCluster(core.Example7RQS(), sim.KVOptions{Groups: 1, Clients: 1})
	defer kc.Stop()
	kv := kc.Client()
	// An hour-long 2Δ: with every server acking, rounds end early and
	// the bound never depends on the timer.
	c := sim.NewStorageCluster(core.Example7RQS(), sim.StorageOptions{Timeout: time.Hour, Clients: 2})
	defer c.Stop()
	w, r := c.Writer(), c.Reader()
	if _, err := kv.Put("", "v"); err != nil {
		t.Fatal(err)
	}
	w.Write("v")
	for _, tc := range []struct {
		name string
		max  float64
		op   func()
	}{
		{"KV Get", 7, func() { kv.Get("") }},
		{"KV Put", 14, func() { kv.Put("", "v") }},
		{"SWMR Write", 13, func() { w.Write("v") }},
		{"SWMR Read", 9, func() { r.Read() }},
	} {
		if got := testing.AllocsPerRun(200, tc.op); got > tc.max {
			t.Errorf("%s: %.1f allocs/op, want ≤ %.0f", tc.name, got, tc.max)
		} else {
			t.Logf("%s: %.1f allocs/op", tc.name, got)
		}
	}
}
