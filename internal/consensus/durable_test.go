package consensus

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wal"
)

// sentPort is one process's port in the fixtures: it appends what the
// process sends, in order, to *sent, which several ports may share as
// one FIFO network.
type sentPort struct {
	id   core.ProcessID
	sent *[]transport.Envelope
}

func newSentPort(id core.ProcessID) *sentPort {
	return &sentPort{id: id, sent: new([]transport.Envelope)}
}

func (p *sentPort) ID() core.ProcessID { return p.id }
func (p *sentPort) Send(to core.ProcessID, m transport.Message) {
	*p.sent = append(*p.sent, transport.Envelope{From: p.id, To: to, Payload: m})
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
// deployment over a recording port.
func durableAcceptorFixture(t *testing.T, dir string) (*Acceptor, *sentPort) {
	t.Helper()
	rqs, topo, ring, signers := example7(t)
	port := newSentPort(0)
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
	if len(*port.sent) == 0 {
		t.Fatal("update1 was never flushed after the commit")
	}
	if u, ok := (*port.sent)[0].Payload.(UpdateMsg); !ok || u.Step != 1 || u.V != "x" {
		t.Fatalf("acceptor 0 sent %#v first, want update1<x>", (*port.sent)[0].Payload)
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
	if len(*port.sent) > 0 {
		t.Fatalf("message %#v escaped a failed commit", (*port.sent)[0].Payload)
	}
	if !a.walFailed {
		t.Fatal("acceptor did not latch the WAL failure")
	}
}

// TestDurableStateEncodingUnchanged: an acceptor whose views were added
// out of order writes its views sorted, in the same bytes the map-backed
// view sets wrote (golden), and recovers them from the log.
func TestDurableStateEncodingUnchanged(t *testing.T) {
	const golden = "c5e3ccfd0e017803040a0e0178017902040a0302060e0000"
	dir := t.TempDir()
	a, _ := durableAcceptorFixture(t, dir)
	a.view, a.prep, a.update = 7, "x", [2]Value{"x", "y"}
	for _, w := range []int{5, 2, 7, 2} {
		a.prepview.add(w)
	}
	for _, w := range []int{5, 2} {
		a.updateview[0].add(w)
	}
	for _, w := range []int{7, 3, 1} {
		a.updateview[1].add(w)
	}
	a.dirty = true
	a.persistAndFlush()
	a.wal.Close()

	var last []byte
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	keep := func(b []byte) error { last = bytes.Clone(b); return nil }
	if err := l.Replay(keep, keep); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got := hex.EncodeToString(last); got != golden {
		t.Fatalf("WAL record %s, want %s", got, golden)
	}

	a2, _ := durableAcceptorFixture(t, dir)
	defer a2.wal.Close()
	want := AcceptorState{View: 7, Prep: "x", Prepview: []int{2, 5, 7},
		Update: [2]Value{"x", "y"}, Updateview: [2][]int{{2, 5}, {1, 3, 7}}}
	if got := a2.PersistentState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state differs:\n got %#v\nwant %#v", got, want)
	}
}
