package sim

import (
	"fmt"
	"time"

	"repro/internal/adversary"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/smr"
	"repro/internal/transport"
)

// SMRCluster is a running pipelined state-machine-replication
// deployment: every log slot shares one consensus cluster — one key
// generation, one network, one process per role — with per-slot
// protocol instances demultiplexed by slot id (internal/smr). Acceptor
// replicas sit on IDs 0..n-1 (the RQS universe), the proposer host on
// n, the log/learner host on n+1.
type SMRCluster struct {
	RQS      *core.RQS
	Net      *transport.Network
	Topo     consensus.Topology
	Ring     *consensus.Keyring
	Replicas []*smr.Replica
	Prop     *smr.Proposer
	Log      *smr.Log
}

// SMROptions configures NewSMRCluster.
type SMROptions struct {
	// PullEvery is the log host's pull tick (default 20ms; < 0
	// disables it). Each tick pulls decisions for slots the log host
	// joined late, so it catches up from decided acceptors. The tick
	// only schedules pulls: the replicas retire slots below the
	// learned prefix, which the log host announces as it grows, with
	// the tick on or off.
	PullEvery time.Duration
	// Byzantine optionally makes individual acceptor replicas
	// Byzantine: each wraps its replica's port (internal/adversary).
	Byzantine map[core.ProcessID]adversary.Wrap
}

// NewSMRCluster starts the shared deployment. The whole cluster —
// regardless of how many slots it will decide — performs exactly one
// key generation; TestSMRClusterSingleKeyGeneration pins that.
func NewSMRCluster(rqs *core.RQS, opts SMROptions) (*SMRCluster, error) {
	if opts.PullEvery == 0 {
		opts.PullEvery = 20 * time.Millisecond
	} else if opts.PullEvery < 0 {
		opts.PullEvery = 0
	}
	nA := rqs.N()
	topo := consensus.Topology{
		Acceptors: rqs.Universe(),
		Proposers: []core.ProcessID{nA},
		Learners:  core.NewSet(nA + 1),
	}
	ring, signers, err := consensus.GenKeys(rqs.Universe())
	if err != nil {
		return nil, fmt.Errorf("smr cluster: %w", err)
	}
	net := transport.NewNetwork(nA + 2)
	c := &SMRCluster{RQS: rqs, Net: net, Topo: topo, Ring: ring}
	for _, id := range rqs.Universe().Members() {
		c.Replicas = append(c.Replicas, smr.NewReplica(
			rqs, topo, byzantine(opts.Byzantine, id, net.Port(id)), ring, signers[id]))
	}
	c.Prop = smr.NewProposer(topo, net.Port(nA))
	c.Log = smr.NewLog(rqs, topo, net.Port(nA+1), opts.PullEvery)
	return c, nil
}

// Append allocates the next log slot, proposes cmd into it, and
// returns the slot (slots commit independently, possibly out of order).
func (c *SMRCluster) Append(cmd consensus.Value) int {
	return c.Prop.Append(cmd)
}

// Propose submits a command for an explicit slot.
func (c *SMRCluster) Propose(slot int, cmd consensus.Value) {
	c.Prop.Propose(slot, cmd)
}

// Wait blocks until the slot commits or the timeout elapses.
func (c *SMRCluster) Wait(slot int, timeout time.Duration) (consensus.Value, bool) {
	return c.Log.Wait(slot, timeout)
}

// Decide appends cmd and waits for its slot to commit — one amortized
// consensus decision over the shared deployment.
func (c *SMRCluster) Decide(cmd consensus.Value, timeout time.Duration) (int, consensus.Value, bool) {
	slot := c.Append(cmd)
	v, ok := c.Wait(slot, timeout)
	return slot, v, ok
}

// SetInjector installs a fault injector on the cluster's network
// (nil removes it).
func (c *SMRCluster) SetInjector(inj transport.Injector) {
	c.Net.SetInjector(inj)
}

// CrashAcceptors crashes the given acceptors at the network boundary.
func (c *SMRCluster) CrashAcceptors(set core.Set) {
	for _, id := range set.Members() {
		c.Net.Crash(id)
	}
}

// Stop shuts the cluster down.
func (c *SMRCluster) Stop() {
	c.Net.Close()
	for _, r := range c.Replicas {
		r.Stop()
	}
	c.Prop.Stop()
	c.Log.Stop()
}
