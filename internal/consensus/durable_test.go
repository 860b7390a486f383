package consensus

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

// sentPort is acceptor 0's port in the durable fixtures: it records
// what leaves, in order.
type sentPort struct{ sent []transport.Envelope }

func (p *sentPort) ID() core.ProcessID { return 0 }
func (p *sentPort) Send(to core.ProcessID, m transport.Message) {
	p.sent = append(p.sent, transport.Envelope{From: 0, To: to, Payload: m})
}
func (p *sentPort) SendHop(to core.ProcessID, m transport.Message, _ int) { p.Send(to, m) }
func (p *sentPort) SendBatch(to core.ProcessID, ms []transport.Message, _ int) {
	for _, m := range ms {
		p.Send(to, m)
	}
}
func (p *sentPort) Broadcast(dst core.Set, m transport.Message, _ int) {
	for _, to := range dst.Members() {
		p.Send(to, m)
	}
}
func (p *sentPort) Inbox() <-chan transport.Envelope { return nil }

// durableAcceptorFixture builds durable acceptor 0 of the Example 7
// universe (acceptors 0-5, proposer 7) over a recording port.
func durableAcceptorFixture(t *testing.T, dir string) (*Acceptor, *sentPort) {
	t.Helper()
	rqs := core.Example7RQS()
	acceptors := rqs.Universe()
	topo := Topology{Acceptors: acceptors, Proposers: []core.ProcessID{7}}
	ring, signers, err := GenKeys(acceptors)
	if err != nil {
		t.Fatal(err)
	}
	port := &sentPort{}
	a, err := NewDurableAcceptor(rqs, topo, port, ring, signers[0], dir)
	if err != nil {
		t.Fatal(err)
	}
	return a, port
}

// TestDurableAcceptorRecoversPromise: a prepared value must survive a
// kill -9 — the recovered acceptor still holds the prep/prepview it
// echoed update1 for, so it can never help a conflicting value decide
// in that view.
func TestDurableAcceptorRecoversPromise(t *testing.T) {
	dir := t.TempDir()
	a, port := durableAcceptorFixture(t, dir)
	a.HandleEnvelope(transport.Envelope{From: 7, To: 0, Payload: PrepareMsg{View: InitView, V: "x"}})
	want := a.PersistentState()
	if want.Prep != "x" || len(want.Prepview) != 1 {
		t.Fatalf("prepare did not take: %#v", want)
	}
	// The promise echo (update1) must have left only after the fsync —
	// and must have left.
	if len(port.sent) == 0 {
		t.Fatal("update1 was never flushed after the commit")
	}
	if u, ok := port.sent[0].Payload.(UpdateMsg); !ok || u.Step != 1 || u.V != "x" {
		t.Fatalf("acceptor 0 sent %#v first, want update1<x>", port.sent[0].Payload)
	}
	a.wal.Close() // kill -9: only the log survives

	a2, _ := durableAcceptorFixture(t, dir)
	defer a2.wal.Close()
	if got := a2.PersistentState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state differs:\n got %#v\nwant %#v", got, want)
	}
}

// TestDurableAcceptorRecoversDecision: a decision reached via a quorum
// of update3 messages survives restart.
func TestDurableAcceptorRecoversDecision(t *testing.T) {
	dir := t.TempDir()
	a, _ := durableAcceptorFixture(t, dir)
	for from := core.ProcessID(0); from < 7; from++ {
		a.HandleEnvelope(transport.Envelope{From: from, To: 0,
			Payload: UpdateMsg{Step: 3, V: "d", View: InitView}})
	}
	if v, ok := a.Decided(); !ok || v != "d" {
		t.Fatalf("fixture did not decide: (%q, %v)", v, ok)
	}
	a.wal.Close()

	a2, _ := durableAcceptorFixture(t, dir)
	defer a2.wal.Close()
	if v, ok := a2.Decided(); !ok || v != "d" {
		t.Fatalf("recovered acceptor lost its decision: (%q, %v)", v, ok)
	}
}

// TestDurableAcceptorMutesOnWALFailure pins the write-ahead rule: when
// the log cannot commit, the event's messages must not leave — a mute
// acceptor is safe, an amnesiac one that spoke is not.
func TestDurableAcceptorMutesOnWALFailure(t *testing.T) {
	dir := t.TempDir()
	a, port := durableAcceptorFixture(t, dir)
	a.wal.Close() // the next Sync fails: disk is gone
	a.HandleEnvelope(transport.Envelope{From: 7, To: 0, Payload: PrepareMsg{View: InitView, V: "x"}})
	if len(port.sent) > 0 {
		t.Fatalf("message %#v escaped a failed commit", port.sent[0].Payload)
	}
	if !a.walFailed {
		t.Fatal("acceptor did not latch the WAL failure")
	}
}
