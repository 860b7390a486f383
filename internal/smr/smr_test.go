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
// host's announced prefix, so what it holds, live or decided, tracks
// the slots decided within about one pull tick rather than the whole
// log. Before retirement each replica held all 20,000 slots.
func TestReplicaStateBounded(t *testing.T) {
	const (
		decisions = 20000
		window    = 16
		maxHeld   = 2000
	)
	d := deploy(t, core.Example7RQS())
	defer d.stop()
	d.decideInWindows(t, decisions, window)
	d.stop() // every replica has drained its inbox: its map is ours to read
	most := 0
	for i, r := range d.replicas {
		held := len(r.heldSlots())
		most = max(most, held)
		if held > maxHeld {
			t.Errorf("replica %d holds %d slots after %d decisions, want ≤ %d", i, held, decisions, maxHeld)
		}
	}
	t.Logf("at most %d slots held per replica", most)
}
