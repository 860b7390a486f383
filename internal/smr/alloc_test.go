//go:build !race

package smr

import (
	"runtime"
	"testing"

	"repro/internal/core"
)

// TestPipelinedDecisionAllocs pins the per-decision allocation cost of
// the pipelined log: 2,000 decisions at 16 slots in flight over the
// Example 7 deployment must average fewer than 50 heap allocations
// each, counting every host (seven replicas, the proposer host and the
// log host) and the driver's own Append/Wait calls. Measured: 32–37 at
// -cpu 1,2,4,8 on a 2-CPU host, go1.24, most of them boxing outgoing
// consensus messages into interface values; 87–99 while every slot built a fresh acceptor,
// learner and slot state. The race detector allocates on its own
// account, hence the build tag.
func TestPipelinedDecisionAllocs(t *testing.T) {
	const (
		decisions = 2000
		window    = 16
		maxAllocs = 50
	)
	d := deploy(t, core.Example7RQS())
	defer d.stop()
	d.decideInWindows(t, 4*window, window) // let every host's maps and buffers reach steady state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d.decideInWindows(t, decisions, window)
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / decisions
	t.Logf("%.1f allocations per decision", per)
	if per >= maxAllocs {
		t.Fatalf("%.1f allocations per decision, want < %d", per, maxAllocs)
	}
}
