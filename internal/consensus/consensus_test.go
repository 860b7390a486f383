package consensus_test

import (
	"testing"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/transport"
)

func threshold8(t *testing.T) *core.RQS {
	t.Helper()
	r, err := core.NewThresholdRQS(core.ThresholdParams{N: 8, T: 3, R: 2, Q: 1, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// cluster builds a lockstep deployment over rqs (two proposers, three
// learners) with the given delivery-order seed.
func cluster(t *testing.T, rqs *core.RQS, seed int64) *sim.ConsensusCluster {
	t.Helper()
	c, err := sim.NewConsensusCluster(rqs, sim.ConsensusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.Net.Seed = seed
	return c
}

// run runs c to quiescence and fails the test unless every learner
// learned.
func run(t *testing.T, c *sim.ConsensusCluster, seed int64) {
	t.Helper()
	if unlearned := c.Run(); len(unlearned) > 0 {
		t.Fatalf("seed %d: learners %v never learned (learned %+v)", seed, unlearned, c.Learned)
	}
}

// lockstepFast runs one initial-view instance under sim.Lockstep with
// the given acceptors crashed, for in-round delivery orders seeded 1-20,
// and requires every learner to learn x through the rule of step m in
// m+1 message delays (Definition 4). It returns the last run's
// acceptors.
func lockstepFast(t *testing.T, rqs *core.RQS, crash core.Set, m int) []*consensus.Acceptor {
	t.Helper()
	var acceptors []*consensus.Acceptor
	for seed := int64(1); seed <= 20; seed++ {
		c := cluster(t, rqs, seed)
		c.Net.Crashed = crash
		c.Proposers[0].Propose("x")
		run(t, c, seed)
		for i, l := range c.Learned {
			if l.V != "x" || l.Step != m || l.Delays != m+1 {
				t.Fatalf("seed %d learner %d: %+v, want x by step %d in %d delays", seed, i, l, m, m+1)
			}
		}
		acceptors = c.Acceptors
	}
	return acceptors
}

func TestBestCaseTwoDelaysClass1(t *testing.T) {
	lockstepFast(t, core.Example7RQS(), core.EmptySet, 1)
}

func TestBestCaseLatenciesByClass(t *testing.T) {
	// Definition 4 / the (m, QCm)-fast claim: learners learn in m+1
	// message delays when a class-m quorum of correct acceptors is
	// available.
	tests := []struct {
		name  string
		crash core.Set
		class int
	}{
		{"class1 all alive", core.EmptySet, 1},
		{"class2 two crashed", core.NewSet(6, 7), 2},
		{"class3 three crashed", core.NewSet(5, 6, 7), 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			lockstepFast(t, threshold8(t), tt.crash, tt.class)
		})
	}
}

func TestAcceptorsAlsoDecide(t *testing.T) {
	for i, a := range lockstepFast(t, core.Example7RQS(), core.EmptySet, 1) {
		if v, ok := a.Decided(); !ok || v != "x" {
			t.Errorf("acceptor %d decided (%q, %v), want (x, true)", i, v, ok)
		}
	}
}

func TestLockstepLearnerWithoutUpdatesLearnsFromDecisions(t *testing.T) {
	// Every update to the last learner is dropped: it learns from the
	// acceptors' decisions (step 0), one delay after they decide in 2.
	for seed := int64(1); seed <= 20; seed++ {
		c := cluster(t, core.Example7RQS(), seed)
		late := c.Topo.Learners.Members()[2]
		c.Net.Drop = func(env transport.Envelope) bool {
			_, isUpd := env.Payload.(consensus.UpdateMsg)
			return isUpd && env.To == late
		}
		c.Proposers[0].Propose("x")
		run(t, c, seed)
		if got := c.Learned[2]; got.V != "x" || got.Step != 0 || got.Delays != 3 {
			t.Fatalf("seed %d: late learner %+v, want x from decisions in 3 delays", seed, got)
		}
	}
}

func TestLateLearnerCatchesUpViaDecisionPull(t *testing.T) {
	// Every update to learner 2 and every decision sent to it before it
	// pulls are dropped: it must learn through decision pulls (Figure 15
	// lines 60 and 101-103), and only after its first pull.
	for seed := int64(1); seed <= 20; seed++ {
		c := cluster(t, core.Example7RQS(), seed)
		late := c.Topo.Learners.Members()[2]
		pulled := false
		c.Net.Drop = func(env transport.Envelope) bool {
			switch env.Payload.(type) {
			case consensus.DecisionPullMsg:
				pulled = pulled || env.From == late
			case consensus.UpdateMsg:
				return env.To == late
			case consensus.DecisionMsg:
				return env.To == late && !pulled
			}
			return false
		}
		c.Proposers[0].Propose("v")
		run(t, c, seed)
		if got := c.Learned[2]; !pulled || got.V != "v" || got.Step != 0 {
			t.Fatalf("seed %d: late learner %+v (pulled %v), want v from pulled decisions", seed, got, pulled)
		}
	}
}

// proposeBoth has proposer 0 propose "zero" and proposer 1 "one", runs
// c, and requires every learner to learn the same proposed value, which
// it returns.
func proposeBoth(t *testing.T, c *sim.ConsensusCluster, seed int64) consensus.Value {
	t.Helper()
	c.Proposers[0].Propose("zero")
	c.Proposers[1].Propose("one")
	run(t, c, seed)
	v := c.Learned[0].V
	for i, l := range c.Learned {
		if l.V != v || (v != "zero" && v != "one") {
			t.Fatalf("seed %d learner %d learned %q; learner 0 learned %q", seed, i, l.V, v)
		}
	}
	return v
}

func TestViewChangeAfterInitialLeaderMute(t *testing.T) {
	// Every view-0 prepare is lost; only the syncs arrive, arming the
	// acceptors' 5Δ suspect timers. Leader(1) is elected after 5 rounds
	// and decides its own value in view 1 after its consult phase: every
	// learner learns it at the same round on every seed.
	round := 0
	for seed := int64(1); seed <= 20; seed++ {
		c := cluster(t, core.Example7RQS(), seed)
		c.Net.Drop = func(env transport.Envelope) bool {
			m, ok := env.Payload.(consensus.PrepareMsg)
			return ok && m.View == consensus.InitView
		}
		if v := proposeBoth(t, c, seed); v != "one" {
			t.Fatalf("seed %d: learned %q, want Leader(1)'s value one", seed, v)
		}
		if round == 0 {
			round = c.Learned[0].Delays
		}
		for i, l := range c.Learned {
			if l.View != 1 || l.Delays != round {
				t.Fatalf("seed %d learner %d: %+v, want view 1 at round %d", seed, i, l, round)
			}
		}
	}
}

func TestCrossViewAgreement(t *testing.T) {
	t.Run("view-0 fast learn", func(t *testing.T) {
		// Example 7: acceptors 0-5, class-1 quorum {1,3,4,5}, class-2
		// quorums {0,1,2,3,4} and {0,1,2,3,5}. Proposer 0 prepares "a"
		// in view 0 and learner 0 learns it on the fast path; proposer
		// 1's view-0 prepare of "b" is lost. Drops keep every acceptor
		// from deciding: update1 from acceptor 5 (no class-1 quorum),
		// update2 from acceptor 4 (no complete Q2) and every update3
		// never reach an acceptor, so each holds only update1/update2
		// state for "a". The other learners see nothing of view 0.
		// Proposer 1, elected for view 1, must gather countersignatures
		// for that state in its consult phase, and choose() must hand it
		// "a", not its own "b".
		for seed := int64(1); seed <= 20; seed++ {
			c := cluster(t, core.Example7RQS(), seed)
			p1, l0 := c.Topo.Proposers[1], c.Topo.Learners.Members()[0]
			c.Net.Drop = func(env transport.Envelope) bool {
				switch m := env.Payload.(type) {
				case consensus.PrepareMsg:
					return env.From == p1 && m.View == consensus.InitView
				case consensus.UpdateMsg:
					if m.View != consensus.InitView {
						return false
					}
					if !c.Topo.Acceptors.Contains(env.To) {
						return env.To != l0
					}
					return m.Step == 1 && env.From == 5 || m.Step == 2 && env.From == 4 || m.Step == 3
				}
				return false
			}
			c.Proposers[0].Propose("a")
			c.Proposers[1].Propose("b")
			run(t, c, seed)
			for i, l := range c.Learned {
				wantView := 1
				if i == 0 {
					wantView = 0
				}
				if l.V != "a" || l.Step == 0 || l.View != wantView {
					t.Fatalf("seed %d learner %d: %+v, want a through updates of view %d", seed, i, l, wantView)
				}
			}
		}
	})
	t.Run("contention in view 0", func(t *testing.T) {
		// Two proposers prepare different values in view 0; depending
		// on the delivery order the split decides in view 0 or needs a
		// view change, and every learner must learn the same value
		// either way.
		for seed := int64(1); seed <= 20; seed++ {
			proposeBoth(t, cluster(t, core.Example7RQS(), seed), seed)
		}
	})
}

func TestSequentialProposalAfterCrash(t *testing.T) {
	// Crash one acceptor before proposing: class-2 path, still one
	// view, all learners agree.
	lockstepFast(t, core.Example7RQS(), core.NewSet(5), 2) // s6: leaves Q2 = {s1..s5} correct
}
