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

// hopDelay is the uniform link delay of the latency tests. It makes a
// run synchronous, so a message's arrival order follows its hop depth;
// on an instant network a descheduled acceptor can hold back the last
// update1 of the class-1 quorum until a deeper decision rule has fired.
const hopDelay = 10 * time.Millisecond

func waitAll(t *testing.T, c *sim.ConsensusCluster, want consensus.Value, wantHops int) {
	t.Helper()
	for i, l := range c.Learners {
		res, ok := l.Wait(5 * time.Second)
		if !ok {
			t.Fatalf("learner %d did not learn", i)
		}
		if res.V != want {
			t.Fatalf("learner %d learned %q, want %q", i, res.V, want)
		}
		if wantHops > 0 && res.Hops != wantHops {
			t.Errorf("learner %d learned in %d message delays, want %d", i, res.Hops, wantHops)
		}
	}
}

func TestBestCaseTwoDelaysClass1(t *testing.T) {
	c, err := sim.NewConsensusCluster(core.Example7RQS(), sim.ConsensusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Net.SetDelay(hopDelay)
	c.Proposers[0].Propose("v")
	waitAll(t, c, "v", 2)
}

func TestBestCaseLatenciesByClass(t *testing.T) {
	// Definition 4 / the (m, QCm)-fast claim: learners learn in m+1
	// message delays when a class-m quorum of correct acceptors is
	// available.
	tests := []struct {
		name     string
		crash    core.Set
		wantHops int
	}{
		{"class1 all alive", core.EmptySet, 2},
		{"class2 two crashed", core.NewSet(6, 7), 3},
		{"class3 three crashed", core.NewSet(5, 6, 7), 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c, err := sim.NewConsensusCluster(threshold8(t), sim.ConsensusOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			c.Net.SetDelay(hopDelay)
			c.CrashAcceptors(tt.crash)
			c.Proposers[0].Propose("x")
			waitAll(t, c, "x", tt.wantHops)
		})
	}
}

func TestAcceptorsAlsoDecide(t *testing.T) {
	c, err := sim.NewConsensusCluster(core.Example7RQS(), sim.ConsensusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.Proposers[0].Propose("v")
	waitAll(t, c, "v", 0)
	// Learners race slightly ahead of acceptors on the same update
	// stream; let the acceptors drain their inboxes before stopping.
	time.Sleep(200 * time.Millisecond)
	c.Stop()
	for i, a := range c.Acceptors {
		if v, ok := a.Decided(); !ok || v != "v" {
			t.Errorf("acceptor %d decided (%q, %v), want (v, true)", i, v, ok)
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
	waitAll(t, c, "backup", 0)
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
		if i == 2 && res.Hops != -1 {
			t.Errorf("late learner should learn via decisions (hops -1), got %d", res.Hops)
		}
	}
}

func TestSequentialProposalAfterCrash(t *testing.T) {
	// Crash two acceptors before proposing: class-2 path, still one
	// view, all learners agree.
	c, err := sim.NewConsensusCluster(core.Example7RQS(), sim.ConsensusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.CrashAcceptors(core.NewSet(5)) // s6: leaves Q2 = {s1..s5} correct
	c.Proposers[0].Propose("v")
	waitAll(t, c, "v", 3)
}
