package consensus_test

import (
	"testing"
	"time"

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

// waitAll waits for every learner of a wall-clock cluster to learn want.
func waitAll(t *testing.T, c *sim.ConsensusCluster, want consensus.Value) {
	t.Helper()
	for i, l := range c.Learners {
		res, ok := l.Wait(5 * time.Second)
		if !ok {
			t.Fatalf("learner %d did not learn", i)
		}
		if res.V != want {
			t.Fatalf("learner %d learned %q, want %q", i, res.V, want)
		}
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
		learns, as, err := sim.LockstepConsensus(rqs, 3, &sim.Lockstep{Crashed: crash, Seed: seed}, "x")
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range learns {
			if l.V != "x" || l.Step != m || l.Delays != m+1 {
				t.Fatalf("seed %d learner %d: %+v, want x by step %d in %d delays", seed, i, l, m, m+1)
			}
		}
		acceptors = as
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
	rqs := core.Example7RQS()
	late := rqs.N() + 3
	drop := func(env transport.Envelope) bool {
		_, isUpd := env.Payload.(consensus.UpdateMsg)
		return isUpd && env.To == late
	}
	for seed := int64(1); seed <= 20; seed++ {
		learns, _, err := sim.LockstepConsensus(rqs, 3, &sim.Lockstep{Drop: drop, Seed: seed}, "x")
		if err != nil {
			t.Fatal(err)
		}
		if got := learns[2]; got.V != "x" || got.Step != 0 || got.Delays != 3 {
			t.Fatalf("seed %d: late learner %+v, want x from decisions in 3 delays", seed, got)
		}
	}
}

func TestContentionResolvedByViewChange(t *testing.T) {
	// Two proposers propose different values concurrently in view 0 —
	// the split prevents a view-0 decision in general, and the Election
	// module must converge to a single learned value. Agreement between
	// all learners is the assertion.
	c, err := sim.NewConsensusCluster(core.Example7RQS(), sim.ConsensusOptions{
		Election:  consensus.ElectionConfig{Enabled: true, InitTimeout: 40 * time.Millisecond},
		PullEvery: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Proposers[0].Propose("zero")
	c.Proposers[1].Propose("one")

	var learned consensus.Value
	for i, l := range c.Learners {
		res, ok := l.Wait(10 * time.Second)
		if !ok {
			t.Fatalf("learner %d did not learn under contention", i)
		}
		if res.V != "zero" && res.V != "one" {
			t.Fatalf("learner %d learned %q: validity violated", i, res.V)
		}
		if learned == consensus.None {
			learned = res.V
		} else if res.V != learned {
			t.Fatalf("agreement violated: %q vs %q", res.V, learned)
		}
	}
}

func TestViewChangeAfterInitialLeaderMute(t *testing.T) {
	// The initial proposer's prepares are all lost; only its sync gets
	// through, arming the election timers. The elected view-1 leader
	// (proposer 1) finishes the job with its own value.
	c, err := sim.NewConsensusCluster(core.Example7RQS(), sim.ConsensusOptions{
		Election:  consensus.ElectionConfig{Enabled: true, InitTimeout: 30 * time.Millisecond},
		PullEvery: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	p0 := c.Topo.Proposers[0]
	c.Net.SetFilter(func(env transport.Envelope) transport.Verdict {
		if env.From == p0 {
			if _, isPrepare := env.Payload.(consensus.PrepareMsg); isPrepare {
				return transport.Drop
			}
		}
		return transport.Deliver
	})
	c.Proposers[0].Propose("lost")
	c.Proposers[1].Propose("backup")
	waitAll(t, c, "backup")
}

func TestLateLearnerCatchesUpViaDecisionPull(t *testing.T) {
	// All update messages to learner 2 are dropped; it must still learn
	// through decision-pull gossip (Figure 15 lines 101-103).
	c, err := sim.NewConsensusCluster(core.Example7RQS(), sim.ConsensusOptions{
		PullEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	lateLearner := c.Topo.Learners.Members()[2]
	c.Net.SetFilter(func(env transport.Envelope) transport.Verdict {
		if env.To == lateLearner {
			if _, isUpd := env.Payload.(consensus.UpdateMsg); isUpd {
				return transport.Drop
			}
		}
		return transport.Deliver
	})
	c.Proposers[0].Propose("v")
	for i, l := range c.Learners {
		res, ok := l.Wait(5 * time.Second)
		if !ok {
			t.Fatalf("learner %d did not learn", i)
		}
		if res.V != "v" {
			t.Fatalf("learner %d learned %q", i, res.V)
		}
		if i == 2 && res.Step != 0 {
			t.Errorf("late learner should learn via decisions (step 0), got step %d", res.Step)
		}
	}
}

func TestSequentialProposalAfterCrash(t *testing.T) {
	// Crash one acceptor before proposing: class-2 path, still one
	// view, all learners agree.
	lockstepFast(t, core.Example7RQS(), core.NewSet(5), 2) // s6: leaves Q2 = {s1..s5} correct
}
