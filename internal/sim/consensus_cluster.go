package sim

import (
	"fmt"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/transport"
)

// pullRounds is how often, in rounds, an unlearned learner pulls
// decisions (Figure 15 line 60's preset time).
const pullRounds = 8

// ConsensusCluster is a single-shot consensus deployment under a
// Lockstep driver: acceptors on IDs 0..nA-1 (the RQS universe), then
// proposers, then learners, every role a step function. Propose on a
// proposer queues its first messages; Run delivers them round by round.
// Each acceptor's suspect timer runs in rounds (5Δ = 5 rounds, doubling
// on each expiry, Figure 14), and each unlearned learner pulls decisions
// every pullRounds rounds, so view changes happen at the same round on
// every run of a seed.
type ConsensusCluster struct {
	RQS *core.RQS
	// Net is the driver; set its scenario inputs (Crashed, Drop, Seed)
	// before Run.
	Net       *Lockstep
	Topo      consensus.Topology
	Ring      *consensus.Keyring
	Acceptors []*consensus.Acceptor
	Proposers []*consensus.Proposer
	Learners  []*consensus.Learner
	// Learned is each learner's outcome, in topology order.
	Learned []LockstepLearn

	suspect []*lockstepTimer // by acceptor: its armed suspect timer
}

// LockstepLearn is one learner's outcome. Delays is the round it
// learned in — the message delays since the proposal — and 0 while it
// has not learned.
type LockstepLearn struct {
	consensus.Learn
	Delays int
}

// ConsensusOptions configures NewConsensusCluster.
type ConsensusOptions struct {
	// Proposers and Learners count the respective roles (defaults 2, 3:
	// the minimums the optimality theorems assume).
	Proposers int
	Learners  int
}

// NewConsensusCluster builds acceptors, proposers and learners over rqs
// on a fresh Lockstep.
func NewConsensusCluster(rqs *core.RQS, opts ConsensusOptions) (*ConsensusCluster, error) {
	if opts.Proposers <= 0 {
		opts.Proposers = 2
	}
	if opts.Learners <= 0 {
		opts.Learners = 3
	}
	nA := rqs.N()
	topo := consensus.Topology{Acceptors: rqs.Universe()}
	for i := 0; i < opts.Proposers; i++ {
		topo.Proposers = append(topo.Proposers, nA+i)
	}
	for i := 0; i < opts.Learners; i++ {
		topo.Learners = topo.Learners.Add(nA + opts.Proposers + i)
	}
	ring, signers, err := consensus.GenKeys(rqs.Universe())
	if err != nil {
		return nil, fmt.Errorf("consensus cluster: %w", err)
	}
	ls := &Lockstep{}
	c := &ConsensusCluster{
		RQS: rqs, Net: ls, Topo: topo, Ring: ring,
		Learned: make([]LockstepLearn, opts.Learners),
		suspect: make([]*lockstepTimer, nA),
	}
	for _, id := range rqs.Universe().Members() {
		c.Acceptors = append(c.Acceptors, consensus.NewAcceptor(rqs, topo, ls.Port(id), ring, signers[id]))
	}
	for _, id := range topo.Proposers {
		c.Proposers = append(c.Proposers, consensus.NewProposer(rqs, topo, ls.Port(id), ring))
	}
	for i, id := range topo.Learners.Members() {
		c.Learners = append(c.Learners, consensus.NewLearner(rqs, topo, ls.Port(id)))
		c.pull(i)
	}
	return c, nil
}

// Run delivers rounds until the deployment is quiescent, or for at most
// maxRounds rounds, and returns the learners (indexes into Learners)
// that have not learned.
func (c *ConsensusCluster) Run() (unlearned []int) {
	c.Net.Run(c.deliver)
	for i, l := range c.Learned {
		if l.Delays == 0 {
			unlearned = append(unlearned, i)
		}
	}
	return unlearned
}

func (c *ConsensusCluster) deliver(env transport.Envelope) {
	nA, nP := len(c.Acceptors), len(c.Proposers)
	switch id := env.To; {
	case id < nA:
		c.setSuspect(id, c.Acceptors[id].HandleEnvelope(env))
	case id < nA+nP:
		c.Proposers[id-nA].HandleEnvelope(env)
	default:
		i := id - nA - nP
		if res, ok := c.Learners[i].HandleEnvelope(env); ok {
			c.Learned[i] = LockstepLearn{Learn: res, Delays: c.Net.Round()}
		}
	}
}

// setSuspect applies what acceptor id's step asked of its suspect timer.
func (c *ConsensusCluster) setSuspect(id core.ProcessID, t consensus.Timer) {
	if t.Stop || t.Arm > 0 {
		c.Net.cancel(c.suspect[id])
		c.suspect[id] = nil
	}
	if t.Arm > 0 {
		c.suspect[id] = c.Net.after(t.Arm, func() {
			c.suspect[id] = nil
			c.setSuspect(id, c.Acceptors[id].Expire())
		})
	}
}

// pull arms learner i's next decision pull.
func (c *ConsensusCluster) pull(i int) {
	c.Net.after(pullRounds, func() {
		if c.Learned[i].Delays == 0 {
			c.Learners[i].Pull()
			c.pull(i)
		}
	})
}
