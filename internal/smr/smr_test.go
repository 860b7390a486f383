package smr

import (
	"fmt"
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
