package consensus_test

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/transport"
)

// TestEquivocatingLeader makes Leader(1) Byzantine on Example 7: an
// adversary wrapper on its port follows each prepare of one view that
// it sends to acceptors 1, 3 and 5 with a second prepare for "two",
// carrying the same proof. Under the seeded lockstep order some of
// them receive "one" first and some "two".
//
//   - view 1: every view-0 prepare is lost, as in
//     TestViewChangeAfterInitialLeaderMute, so Leader(1) is elected and
//     its VProof has no candidate. Choose admits either value, and only
//     Figure 15's line-31 guard (one prepare per view) keeps an acceptor
//     from echoing both.
//   - view 0: the two prepares split the acceptors between values.
//
// Over seeds 1-20, every learner must learn, all the same value, and no
// honest acceptor may send update1 for two values in one view.
func TestEquivocatingLeader(t *testing.T) {
	for _, tc := range []struct {
		name string
		view int
	}{{"view-1", 1}, {"view-0", consensus.InitView}} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				c := cluster(t, core.Example7RQS(), seed)
				leader := c.Topo.Leader(1)
				port := adversary.EquivocatePrepare(c.Net.Port(leader), tc.view, core.NewSet(1, 3, 5), "two")
				c.Proposers[1] = consensus.NewProposer(c.RQS, c.Topo, port, c.Ring)
				type echo struct{ from, view int }
				echoed := make(map[echo]consensus.Value)
				c.Net.Drop = func(env transport.Envelope) bool {
					switch m := env.Payload.(type) {
					case consensus.PrepareMsg:
						return tc.view != consensus.InitView && m.View == consensus.InitView
					case consensus.UpdateMsg:
						k := echo{env.From, m.View}
						if v, ok := echoed[k]; m.Step == 1 && ok && v != m.V {
							t.Fatalf("seed %d: acceptor %d sent update1 for %q and %q in view %d", seed, env.From, v, m.V, m.View)
						} else if m.Step == 1 {
							echoed[k] = m.V
						}
					}
					return false
				}
				c.Proposers[0].Propose("zero")
				c.Proposers[1].Propose("one")
				run(t, c, seed)
				for i, l := range c.Learned {
					if l.V != c.Learned[0].V {
						t.Fatalf("seed %d: learner %d learned %q, learner 0 %q", seed, i, l.V, c.Learned[0].V)
					}
				}
			}
		})
	}
}
