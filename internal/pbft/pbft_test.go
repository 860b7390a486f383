package pbft

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/transport"
)

// learned is one learner's outcome under the lockstep driver.
type learned struct {
	v      Value
	delays int // the round it learned in; 0 if it never learned
}

// run delivers everything c's actors send under ls and returns what each
// learner learned, and in which round.
func run(ls *sim.Lockstep, c *Cluster) []learned {
	out := make([]learned, len(c.Learners))
	ls.Run(func(env transport.Envelope) {
		if v, ok := c.Deliver(env); ok {
			out[env.To-c.Topo.Leader-1] = learned{v, ls.Round()}
		}
	})
	return out
}

func TestBaselineAlwaysFourDelays(t *testing.T) {
	for _, n := range []int{4, 7} {
		for seed := int64(1); seed <= 20; seed++ {
			ls := &sim.Lockstep{Seed: seed}
			c := NewCluster(n, 2, ls.Port)
			c.Propose("v")
			for i, got := range run(ls, c) {
				if got != (learned{"v", 4}) {
					t.Errorf("n=%d seed=%d learner %d: %+v, want v at 4 delays", n, seed, i, got)
				}
			}
		}
	}
}

func TestBaselineToleratesCrashes(t *testing.T) {
	// n = 3t+1 = 7 tolerates t = 2 crashed acceptors, still 4 delays.
	ls := &sim.Lockstep{Crashed: core.NewSet(5, 6), Seed: 1}
	c := NewCluster(7, 1, ls.Port)
	c.Propose("v")
	if got := run(ls, c)[0]; got != (learned{"v", 4}) {
		t.Errorf("learned %+v, want v at 4 delays", got)
	}
}

func TestBaselineQuorum(t *testing.T) {
	tests := []struct{ n, want int }{{4, 3}, {7, 5}, {10, 7}}
	for _, tt := range tests {
		topo := Topology{Acceptors: core.FullSet(tt.n)}
		if got := topo.Quorum(); got != tt.want {
			t.Errorf("Quorum(n=%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestBaselineIgnoresForeignLeader(t *testing.T) {
	ls := &sim.Lockstep{Seed: 1}
	c := NewCluster(4, 1, ls.Port)
	// A non-leader process sends a pre-prepare: acceptors must ignore it.
	imposter := c.Topo.Learners.Min()
	Propose(Topology{Acceptors: c.Topo.Acceptors, Leader: imposter}, ls.Port(imposter), "evil")
	if got := run(ls, c)[0]; got.delays != 0 {
		t.Fatalf("learned %+v from an imposter", got)
	}
	c.Propose("good")
	if got := run(ls, c)[0]; got.v != "good" {
		t.Fatalf("got %+v, want good", got)
	}
}
