//go:build !race

package smr

import (
	"runtime"
	"testing"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/transport"
)

// TestPipelinedDecisionAllocs pins the per-decision allocation cost of
// the pipelined log: 2,000 decisions at 16 slots in flight over the
// Example 7 deployment must average fewer than 36 heap allocations
// each, counting every host (seven replicas, the proposer host and the
// log host) and the driver's own Append/Wait calls. Measured: 24.6–32.2
// over 60 runs at -cpu 1,2,4,8 on a 2-CPU host, go1.24, most of them
// boxing outgoing consensus messages into interface values; 32–37 while
// each Propose built its own outbox, 87–99 while every slot built a
// fresh acceptor, learner and slot state. The race detector allocates
// on its own account, hence the build tag.
func TestPipelinedDecisionAllocs(t *testing.T) {
	const (
		decisions = 2000
		window    = 16
		maxAllocs = 36
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

// TestProposeAllocs pins what one Proposer.Propose costs: boxing the
// prepare, the batch's message slice and the batch itself. The outbox
// comes from the proposer's pool, so its buffers do not grow per call.
// Measured: 3 on go1.24; 8 while every call built its own outbox.
func TestProposeAllocs(t *testing.T) {
	const maxAllocs = 4
	rqs := core.Example7RQS()
	nA := rqs.N()
	topo := consensus.Topology{Acceptors: rqs.Universe(), Proposers: []core.ProcessID{nA}, Learners: core.NewSet(nA + 1)}
	net := transport.NewNetwork(nA + 2)
	p := NewProposer(topo, net.Port(nA))
	defer p.Stop()
	defer net.Close()
	slot := 0
	per := testing.AllocsPerRun(1000, func() { p.Propose(slot, "cmd"); slot++ })
	t.Logf("%.1f allocations per Propose", per)
	if per > maxAllocs {
		t.Fatalf("%.1f allocations per Propose, want ≤ %d", per, maxAllocs)
	}
}
