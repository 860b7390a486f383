package smr

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/transport"
)

// deployment is a full SMR stack over the in-memory network: one replica
// per acceptor, one proposer host, one log host.
type deployment struct {
	net      *transport.Network
	replicas []*Replica
	prop     *Proposer
	log      *Log
}

func deploy(t *testing.T, rqs *core.RQS) *deployment {
	t.Helper()
	nA := rqs.N()
	topo := consensus.Topology{
		Acceptors: rqs.Universe(),
		Proposers: []core.ProcessID{nA},
		Learners:  core.NewSet(nA + 1),
	}
	ring, signers, err := consensus.GenKeys(rqs.Universe())
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewNetwork(nA + 2)
	d := &deployment{net: net}
	for _, id := range rqs.Universe().Members() {
		d.replicas = append(d.replicas, NewReplica(rqs, topo, net.Port(id), ring, signers[id]))
	}
	d.prop = NewProposer(topo, net.Port(nA))
	d.log = NewLog(rqs, topo, net.Port(nA+1), 20*time.Millisecond)
	return d
}

func (d *deployment) stop() {
	d.net.Close()
	for _, r := range d.replicas {
		r.Stop()
	}
	d.prop.Stop()
	d.log.Stop()
}

// decideInWindows appends n commands in rounds of window slots, waiting
// for every slot of a round to commit before the next round starts.
func (d *deployment) decideInWindows(t *testing.T, n, window int) {
	t.Helper()
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

func TestReplicatedLogCommitsInOrderableSlots(t *testing.T) {
	d := deploy(t, core.Example7RQS())
	defer d.stop()

	cmds := []consensus.Value{"a", "b", "c", "d"}
	for slot, cmd := range cmds {
		d.prop.Propose(slot, cmd)
	}
	for slot, want := range cmds {
		got, ok := d.log.Wait(slot, 5*time.Second)
		if !ok {
			t.Fatalf("slot %d did not commit", slot)
		}
		if got != want {
			t.Errorf("slot %d = %q, want %q", slot, got, want)
		}
	}
	prefix := d.log.Prefix()
	if len(prefix) != len(cmds) {
		t.Fatalf("prefix = %v", prefix)
	}
	for i, v := range prefix {
		if v != cmds[i] {
			t.Errorf("prefix[%d] = %q, want %q", i, v, cmds[i])
		}
	}
}

func TestLogGetAndMissingSlot(t *testing.T) {
	d := deploy(t, core.Example7RQS())
	defer d.stop()
	d.prop.Propose(3, "late")
	if _, ok := d.log.Wait(3, 5*time.Second); !ok {
		t.Fatal("slot 3 did not commit")
	}
	if v, ok := d.log.Get(3); !ok || v != "late" {
		t.Errorf("Get(3) = %q, %v", v, ok)
	}
	if _, ok := d.log.Get(0); ok {
		t.Error("Get(0) should miss")
	}
	if p := d.log.Prefix(); len(p) != 0 {
		t.Errorf("gapped prefix = %v, want empty", p)
	}
	if _, ok := d.log.Wait(7, 30*time.Millisecond); ok {
		t.Error("Wait on unproposed slot should time out")
	}
	// A timed-out Wait withdraws its watcher: otherwise every Wait on a
	// slot that never commits would leak a channel.
	d.log.mu.Lock()
	defer d.log.mu.Unlock()
	if n := len(d.log.watchers); n != 0 {
		t.Errorf("%d slots still have watchers after the Wait timed out", n)
	}
}

func TestManySlotsConcurrently(t *testing.T) {
	d := deploy(t, core.Example7RQS())
	defer d.stop()
	const slots = 12
	for s := 0; s < slots; s++ {
		d.prop.Propose(s, fmt.Sprintf("cmd-%d", s))
	}
	for s := 0; s < slots; s++ {
		got, ok := d.log.Wait(s, 10*time.Second)
		if !ok {
			t.Fatalf("slot %d did not commit", s)
		}
		if want := fmt.Sprintf("cmd-%d", s); got != want {
			t.Errorf("slot %d = %q, want %q", s, got, want)
		}
	}
}

// TestLogRetiresLearnedSlots pins the log host's slot retirement: a
// slot's learner is dropped in the same step that records its entry,
// and stragglers for a recorded slot never bring one back, so once
// every slot has committed and the host has drained, no learner is
// left (memory tracks slots in flight, not slots ever decided) while
// Get and Prefix keep serving the entries.
func TestLogRetiresLearnedSlots(t *testing.T) {
	d := deploy(t, core.Example7RQS())
	defer d.stop()
	const slots = 6
	for s := 0; s < slots; s++ {
		d.prop.Propose(s, fmt.Sprintf("cmd-%d", s))
	}
	for s := 0; s < slots; s++ {
		if _, ok := d.log.Wait(s, 10*time.Second); !ok {
			t.Fatalf("slot %d did not commit", s)
		}
	}
	d.stop() // the log host's goroutine has exited: its map is ours to read
	if live := d.log.liveLearners(); live != 0 {
		t.Fatalf("%d learners still live after all %d slots committed", live, slots)
	}
	for s := 0; s < slots; s++ {
		if v, ok := d.log.Get(s); !ok || v != fmt.Sprintf("cmd-%d", s) {
			t.Fatalf("Get(%d) = %q, %v after retirement", s, v, ok)
		}
	}
	if got := len(d.log.Prefix()); got != slots {
		t.Fatalf("prefix length = %d, want %d", got, slots)
	}
}

func TestSlotsSurviveAcceptorCrash(t *testing.T) {
	d := deploy(t, core.Example7RQS())
	defer d.stop()
	d.prop.Propose(0, "before")
	if _, ok := d.log.Wait(0, 5*time.Second); !ok {
		t.Fatal("slot 0 did not commit")
	}
	d.net.Crash(5) // s6: class-2 quorum remains
	d.prop.Propose(1, "after")
	got, ok := d.log.Wait(1, 5*time.Second)
	if !ok || got != "after" {
		t.Fatalf("slot 1 = %q, %v", got, ok)
	}
}

// TestReplicaRetiresBelowLearnersPrefix feeds one replica envelopes
// directly, with two learners in the topology. A single goroutine
// sends them all, so the replica's inbox holds them in send order
// whatever their sender, and the reply to the last one, a pull, shows
// that the replica has handled them all.
func TestReplicaRetiresBelowLearnersPrefix(t *testing.T) {
	rqs := core.Example7RQS()
	nA := rqs.N()
	acceptor, proposer, learnerA, learnerB := core.ProcessID(4), nA, nA+1, nA+2
	topo := consensus.Topology{
		Acceptors: rqs.Universe(),
		Proposers: []core.ProcessID{proposer},
		Learners:  core.NewSet(learnerA, learnerB),
	}
	ring, signers, err := consensus.GenKeys(rqs.Universe())
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewNetwork(nA + 3)
	defer net.Close()
	r := NewReplica(rqs, topo, net.Port(0), ring, signers[0])
	send := func(from core.ProcessID, slot int, m transport.Message) {
		net.Port(from).Send(0, SlotMsg{Slot: slot, Payload: m})
	}
	prefix := func(from core.ProcessID, upto int) {
		net.Port(from).Send(0, PrefixMsg{Upto: upto})
	}

	// Slots 0-3 and 8 decide (one acceptor is a basic set on Example 7,
	// so the replica adopts its decision); slots 4-7 and 9 hold live
	// acceptors.
	for _, slot := range []int{0, 1, 2, 3, 8} {
		send(acceptor, slot, consensus.DecisionMsg{V: "v"})
	}
	for _, slot := range []int{4, 5, 6, 7, 9} {
		send(acceptor, slot, consensus.UpdateMsg{Step: 1, V: "v"})
	}
	// Neither an acceptor nor the proposer host is a learner, and the
	// floor is the smallest prefix over both learners: slot 0 is held.
	prefix(acceptor, 8)
	prefix(proposer, 8)
	prefix(learnerA, 8)
	send(proposer, 0, consensus.DecisionPullMsg{})
	// The floor rises to 6: decided slots 0-3 and live slots 4-5 go.
	prefix(learnerB, 6)
	// A stale prefix from learner A is ignored, so the floor rises to
	// 8, not 5, and live slots 6-7 go too.
	prefix(learnerA, 5)
	prefix(learnerB, 10)
	// Messages below the floor create nothing and get no reply.
	send(acceptor, 3, consensus.UpdateMsg{Step: 1, V: "v"})
	send(acceptor, 7, consensus.DecisionMsg{V: "v"})
	send(proposer, 1, consensus.DecisionPullMsg{})
	send(proposer, 8, consensus.DecisionPullMsg{})

	var replies []received
	for len(replies) < 2 {
		select {
		case env := <-net.Port(proposer).Inbox():
			eachSlotMsg(env, func(slot int, env transport.Envelope) {
				replies = append(replies, received{slot, env.Payload})
			})
		case <-time.After(5 * time.Second):
			t.Fatalf("pull replies %v, want two", replies)
		}
	}
	net.Close()
	r.Stop() // the replica's map is ours to read
	for env := range net.Port(proposer).Inbox() {
		t.Errorf("unexpected reply %+v", env.Payload)
	}
	if want := []received{{0, consensus.DecisionMsg{V: "v"}}, {8, consensus.DecisionMsg{V: "v"}}}; !reflect.DeepEqual(replies, want) {
		t.Errorf("pull replies %v, want %v", replies, want)
	}
	if got, want := r.heldSlots(), []int{8, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("replica holds slots %v, want %v", got, want)
	}
	if live := r.liveAcceptors(); live != 1 {
		t.Errorf("replica holds %d live acceptors, want 1", live)
	}
}

// TestReplicaStateBounded: a replica retires every slot below the log
// host's announced prefix, and the log host announces each time its
// prefix grows by announceEvery slots, so what a replica holds, live or
// decided, stays within two announcements and a window of slots in
// flight rather than the whole log. Before retirement each replica held
// all 20,000 slots.
//
// The bound holds at every point of the run, not only at its end: a
// network filter follows, per replica and in send order, the highest
// slot any message to it names and the last prefix announced to it,
// and the difference, plus one, bounds what the replica may hold once
// it applies the prefix. The slots it holds at the end show that it
// does.
func TestReplicaStateBounded(t *testing.T) {
	const (
		decisions = 20000
		window    = 16
		maxHeld   = 2*announceEvery + window
	)
	d := deploy(t, core.Example7RQS())
	defer d.stop()
	n := len(d.replicas)
	top, floor := make([]int, n), make([]int, n)
	most := 0
	d.net.SetFilter(func(env transport.Envelope) transport.Verdict { // filter calls are serialized
		if env.To >= n {
			return transport.Deliver
		}
		switch m := env.Payload.(type) {
		case PrefixMsg:
			floor[env.To] = max(floor[env.To], m.Upto)
		case SlotMsg:
			top[env.To] = max(top[env.To], m.Slot)
		case SlotBatch:
			for _, sm := range m.Msgs {
				top[env.To] = max(top[env.To], sm.Slot)
			}
		}
		most = max(most, top[env.To]+1-floor[env.To])
		return transport.Deliver
	})
	d.decideInWindows(t, decisions, window)
	d.stop() // the filter has run for the last time, and the windows are ours to read
	if most > maxHeld {
		t.Errorf("a replica may have held %d slots during %d decisions, want ≤ %d", most, decisions, maxHeld)
	}
	for i, r := range d.replicas {
		if held := len(r.heldSlots()); held > maxHeld {
			t.Errorf("replica %d holds %d slots after %d decisions, want ≤ %d", i, held, decisions, maxHeld)
		}
	}
	t.Logf("at most %d slots held per replica", most)
}

// replicaFixture starts replica 0 of Example 7 alone on a network with
// the proposer at n and the learner at n+1; send puts a slot message
// from any process in its inbox.
func replicaFixture(t *testing.T) (*Replica, *transport.Network, func(from core.ProcessID, slot int, m transport.Message)) {
	t.Helper()
	rqs := core.Example7RQS()
	nA := rqs.N()
	topo := consensus.Topology{Acceptors: rqs.Universe(), Proposers: []core.ProcessID{nA}, Learners: core.NewSet(nA + 1)}
	ring, signers, err := consensus.GenKeys(rqs.Universe())
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewNetwork(nA + 3)
	r := NewReplica(rqs, topo, net.Port(0), ring, signers[0])
	return r, net, func(from core.ProcessID, slot int, m transport.Message) {
		net.Port(from).Send(0, SlotMsg{Slot: slot, Payload: m})
	}
}

// TestViewZeroPrepareFromNonProposerOpensNothing: only a proposer may
// prepare, also in the initial view, which has no leader to check. A
// view-0 prepare from an acceptor, the learner or an outsider, and any
// other slot message from the learner or an outsider, must leave the
// replica without slot state and without an update1 echo.
func TestViewZeroPrepareFromNonProposerOpensNothing(t *testing.T) {
	r, net, send := replicaFixture(t)
	n := core.Example7RQS().N()
	forged := consensus.PrepareMsg{V: "forged", View: consensus.InitView}
	send(4, 0, forged)
	send(n+1, 1, forged)
	send(n+2, 2, forged)
	send(n+1, 3, consensus.UpdateMsg{Step: 1, V: "forged"})
	send(n+2, 4, consensus.SyncMsg{})
	net.Close()
	r.Stop() // the replica has drained its inbox: its window is ours to read
	if live := r.liveAcceptors(); live != 0 {
		t.Errorf("replica holds %d acceptors after prepares from non-proposers", live)
	}
	for id := core.ProcessID(0); id < n+3; id++ {
		for env := range net.Port(id).Inbox() {
			t.Errorf("replica sent %+v to %d", env.Payload, id)
		}
	}
}

// TestForgedFarSlotLeavesWindowUnchanged: a message for a slot
// maxAhead or more above a host's floor is dropped, so a forged slot
// number cannot make the replica's or the log host's window grow
// toward it, nor open an instance there. Nor does the log host open a
// learner for a message from a process that is not an acceptor.
func TestForgedFarSlotLeavesWindowUnchanged(t *testing.T) {
	r, net, send := replicaFixture(t)
	n := core.Example7RQS().N()
	net.Port(n+1).Send(0, PrefixMsg{Upto: 5})
	send(4, 6, consensus.UpdateMsg{Step: 1, V: "v"})
	for _, far := range []int{5 + maxAhead, 5 + 1<<40} {
		send(4, far, consensus.UpdateMsg{Step: 1, V: "v"})
		send(n, far, consensus.PrepareMsg{V: "v", View: consensus.InitView})
		send(n+1, far, consensus.DecisionPullMsg{})
	}
	net.Close()
	r.Stop()
	if got, want := r.heldSlots(), []int{6}; !reflect.DeepEqual(got, want) {
		t.Errorf("replica holds slots %v, want %v", got, want)
	}
	if r.slots.floor != 5 || len(r.slots.s) != 2 {
		t.Errorf("replica window holds slots from %d on, %d long; want from 5, 2 long", r.slots.floor, len(r.slots.s))
	}

	rqs := core.Example7RQS()
	topo := consensus.Topology{Acceptors: rqs.Universe(), Proposers: []core.ProcessID{n}, Learners: core.NewSet(n + 1)}
	lnet := transport.NewNetwork(n + 2)
	l := NewLog(rqs, topo, lnet.Port(n+1), 0)
	for _, from := range rqs.Universe().Members() {
		lnet.Port(from).Send(n+1, SlotMsg{Slot: 1 << 40, Payload: consensus.DecisionMsg{V: "v"}})
	}
	lnet.Port(n).Send(n+1, SlotMsg{Slot: 0, Payload: consensus.DecisionMsg{V: "v"}})
	lnet.Close()
	l.Stop()
	if len(l.learners.s) != 0 || l.liveLearners() != 0 {
		t.Errorf("log host window is %d long with %d learners after a forged far slot", len(l.learners.s), l.liveLearners())
	}
	if _, ok := l.Get(1 << 40); ok {
		t.Error("log recorded a slot 2^40 ahead of its prefix")
	}
}
