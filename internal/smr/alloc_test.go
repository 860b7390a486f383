//go:build !race

package smr

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// TestPipelinedDecisionAllocs pins the per-decision allocation cost of
// the pipelined log: 2,000 decisions at 16 slots in flight over the
// Example 7 deployment must average fewer than 250 heap allocations
// each, counting every host (seven replicas, the proposer host and the
// log host) and the driver's own Append/Wait calls. The race detector
// allocates on its own account, hence the build tag.
func TestPipelinedDecisionAllocs(t *testing.T) {
	const (
		decisions = 2000
		window    = 16
		maxAllocs = 250
	)
	d := deploy(t, core.Example7RQS())
	defer d.stop()
	run := func(n int) {
		slots := make([]int, window)
		for done := 0; done < n; done += window {
			for i := range slots {
				slots[i] = d.prop.Append("cmd")
			}
			for _, s := range slots {
				if _, ok := d.log.Wait(s, 10*time.Second); !ok {
					t.Fatalf("slot %d did not commit", s)
				}
			}
		}
	}
	run(4 * window) // let every host's maps and buffers reach steady state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(decisions)
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / decisions
	t.Logf("%.1f allocations per decision", per)
	if per >= maxAllocs {
		t.Fatalf("%.1f allocations per decision, want < %d", per, maxAllocs)
	}
}
