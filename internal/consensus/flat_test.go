package consensus

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

// Example 7's quorums: q1 is the class-1 quorum, q2 and q2p the class-2
// ones.
var (
	q1  = core.NewSet(1, 3, 4, 5)
	q2  = core.NewSet(0, 1, 2, 3, 4)
	q2p = core.NewSet(0, 1, 2, 3, 5)
)

// example7 is the Example 7 deployment: acceptors 0-5, proposer 7,
// learner 8.
func example7(t *testing.T) (*core.RQS, Topology, *Keyring, map[core.ProcessID]*Signer) {
	t.Helper()
	rqs := core.Example7RQS()
	topo := Topology{Acceptors: rqs.Universe(), Proposers: []core.ProcessID{7}, Learners: core.NewSet(8)}
	ring, signers, err := GenKeys(rqs.Universe())
	if err != nil {
		t.Fatal(err)
	}
	return rqs, topo, ring, signers
}

// volatileAcceptor0 is acceptor 0 of Example 7 over a recording port.
func volatileAcceptor0(t *testing.T) (*Acceptor, *sentPort, map[core.ProcessID]*Signer) {
	t.Helper()
	rqs, topo, ring, signers := example7(t)
	port := newSentPort(0)
	return NewAcceptor(rqs, topo, port, ring, signers[0]), port, signers
}

// sentUpdates returns the update messages of one step among sent.
func sentUpdates(sent []transport.Envelope, step int) []UpdateMsg {
	var out []UpdateMsg
	for _, env := range sent {
		if u, ok := env.Payload.(UpdateMsg); ok && u.Step == step && env.To == 0 {
			out = append(out, u)
		}
	}
	return out
}

// TestAcceptorViewSetsHoldEachViewOnce: prepview and updateview are sets.
// A view added twice is stored once, in the acceptor and in what it
// persists.
func TestAcceptorViewSetsHoldEachViewOnce(t *testing.T) {
	a, _, _ := volatileAcceptor0(t)
	a.restoreState(AcceptorState{View: 2, Prep: "x", Prepview: []int{2, 0, 2},
		Update: [2]Value{"x", None}, Updateview: [2][]int{{1, 1}}})
	a.prepview.add(0)
	a.applyUpdate(0, "x", 2, q2)
	a.applyUpdate(0, "x", 2, q2)
	a.applyUpdate(0, "x", 1, q2)
	if want := (flatSet[int]{2, 0}); !reflect.DeepEqual(a.prepview, want) {
		t.Errorf("prepview = %v, want %v", a.prepview, want)
	}
	if want := (flatSet[int]{1, 2}); !reflect.DeepEqual(a.updateview[0], want) {
		t.Errorf("updateview[0] = %v, want %v", a.updateview[0], want)
	}
	if want := (flatSet[viewQ]{{2, q2}, {1, q2}}); !reflect.DeepEqual(a.updateQ[0], want) {
		t.Errorf("updateQ[0] = %v, want %v", a.updateQ[0], want)
	}
	st := a.PersistentState()
	if !reflect.DeepEqual(st.Prepview, []int{0, 2}) || !reflect.DeepEqual(st.Updateview[0], []int{1, 2}) {
		t.Errorf("persisted views %v %v, want [0 2] [1 2]", st.Prepview, st.Updateview[0])
	}
}

// TestNewValueResetsStepState: preparing or step-updating a new value
// forgets the old value's views, quorums and proofs (Figure 15 lines 32
// and 34-35); the other step's state is left as it was.
func TestNewValueResetsStepState(t *testing.T) {
	a, _, signers := volatileAcceptor0(t)
	a.HandleEnvelope(transport.Envelope{From: 7, To: 0, Payload: PrepareMsg{V: "x", View: InitView}})
	a.applyUpdate(0, "x", 0, q1)
	a.applyUpdate(0, "x", 0, q2)
	a.updateproof[0] = []SignedUpdate{signers[1].SignUpdate(1, "x", 0)}
	a.applyUpdate(1, "x", 0, q2)

	// A view-1 prepare of y, with a valid proof that carries no
	// candidate, so choose keeps y.
	a.view = 1
	a.HandleEnvelope(transport.Envelope{From: 7, To: 0, Payload: PrepareMsg{V: "y", View: 1, VProof: emptyVProof(signers, 1), Q: q2}})
	if a.prep != "y" || !reflect.DeepEqual(a.prepview, flatSet[int]{1}) {
		t.Fatalf("prep %q views %v, want y [1]", a.prep, a.prepview)
	}
	a.applyUpdate(0, "y", 1, q2p)
	if a.update[0] != "y" || !reflect.DeepEqual(a.updateview[0], flatSet[int]{1}) ||
		!reflect.DeepEqual(a.updateQ[0], flatSet[viewQ]{{1, q2p}}) || len(a.updateproof[0]) != 0 {
		t.Fatalf("step 1 after reset: %q %v %v %v", a.update[0], a.updateview[0], a.updateQ[0], a.updateproof[0])
	}
	if a.update[1] != "x" || !reflect.DeepEqual(a.updateview[1], flatSet[int]{0}) ||
		!reflect.DeepEqual(a.updateQ[1], flatSet[viewQ]{{0, q2}}) {
		t.Fatalf("step 2 was reset too: %q %v %v", a.update[1], a.updateview[1], a.updateQ[1])
	}
	// The same value in a later view keeps the earlier views.
	a.applyUpdate(1, "x", 1, q1)
	if !reflect.DeepEqual(a.updateview[1], flatSet[int]{0, 1}) ||
		!reflect.DeepEqual(a.updateQ[1], flatSet[viewQ]{{0, q2}, {1, q1}}) {
		t.Fatalf("step 2 in view 1: %v %v", a.updateview[1], a.updateQ[1])
	}
}

// emptyVProof is a valid view-w proof over q2 whose acks report nothing
// prepared or updated, so choose keeps whatever value the leader names.
func emptyVProof(signers map[core.ProcessID]*Signer, w int) VProof {
	vp := VProof{}
	for _, id := range q2.Members() {
		body := AckBody{View: w}
		vp[id] = NewViewAck{Acceptor: id, Body: body, Sig: signers[id].SignAckBody(body)}
	}
	return vp
}

// TestAcceptorPreparesOncePerView: line 31 accepts one prepare per view
// (w ∈ Prepview ⇒ w < view). A leader that prepares a second value in a
// view it already prepared in is ignored, both after a new value reset
// prepview to that view alone and after prepview was restored with
// fewer entries than the view number.
func TestAcceptorPreparesOncePerView(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(a *Acceptor, signers map[core.ProcessID]*Signer)
		view  int
	}{
		{"after a reset in view 1", func(a *Acceptor, signers map[core.ProcessID]*Signer) {
			a.HandleEnvelope(transport.Envelope{From: 7, To: 0, Payload: PrepareMsg{V: "x", View: InitView}})
			a.view = 1
			a.HandleEnvelope(transport.Envelope{From: 7, To: 0, Payload: PrepareMsg{V: "y", View: 1, VProof: emptyVProof(signers, 1), Q: q2}})
		}, 1},
		{"after restoring views 2, 5, 7", func(a *Acceptor, _ map[core.ProcessID]*Signer) {
			a.restoreState(AcceptorState{View: 7, Prep: "y", Prepview: []int{2, 5, 7}})
		}, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, port, signers := volatileAcceptor0(t)
			tc.setup(a, signers)
			if a.prep != "y" || !a.prepview.has(tc.view) {
				t.Fatalf("setup: prep %q views %v, want y prepared in view %d", a.prep, a.prepview, tc.view)
			}
			views := append(flatSet[int](nil), a.prepview...)
			*port.sent = (*port.sent)[:0]
			a.HandleEnvelope(transport.Envelope{From: 7, To: 0, Payload: PrepareMsg{V: "z", View: tc.view, VProof: emptyVProof(signers, tc.view), Q: q2}})
			if a.prep != "y" || !reflect.DeepEqual(a.prepview, views) {
				t.Errorf("second prepare in view %d taken: prep %q views %v", tc.view, a.prep, a.prepview)
			}
			if u := sentUpdates(*port.sent, 1); len(u) != 0 {
				t.Errorf("sent update1 %+v for a second prepare in view %d", u, tc.view)
			}
		})
	}
}

// TestUpdate2RecordsDistinctPerQ: update2 copies of one (v, view) that
// name different quorums are counted apart, both by the decision rule
// of line 52 and in the quorums an acceptor sent update2 with.
func TestUpdate2RecordsDistinctPerQ(t *testing.T) {
	rqs := core.Example7RQS()
	d := newDecider(rqs)
	upd := func(from core.ProcessID, q core.Set) bool {
		return d.record(from, UpdateMsg{Step: 2, V: "x", View: 0, Q: q})
	}
	for _, from := range []core.ProcessID{0, 1, 2, 3} {
		if upd(from, q2) {
			t.Fatalf("decided on update2 from %d of q2", from)
		}
	}
	if upd(4, q2p) || upd(5, q2p) {
		t.Fatal("copies naming q2' completed q2")
	}
	if upd(4, core.NewSet(0, 1)) || len(d.upd2.recs) != 2 {
		t.Fatalf("records %+v, want one each for q2 and q2' (an unlisted Q is not recorded)", d.upd2.recs)
	}
	if !upd(4, q2) {
		t.Fatal("update2 from all of q2 naming q2 did not decide")
	}

	// An acceptor whose update1 senders cover every quorum sends update2
	// once per quorum and records each, but one update2 in `old`.
	a, port, _ := volatileAcceptor0(t)
	a.HandleEnvelope(transport.Envelope{From: 7, To: 0, Payload: PrepareMsg{V: "x", View: InitView}})
	for _, from := range []core.ProcessID{1, 3, 4, 5, 0, 2} { // q1, then q2 and q2' at once
		a.HandleEnvelope(transport.Envelope{From: from, To: 0, Payload: UpdateMsg{Step: 1, V: "x", View: 0}})
	}
	var qs []core.Set
	for _, u := range sentUpdates(*port.sent, 2) {
		qs = append(qs, u.Q)
	}
	if want := []core.Set{q1, q2, q2p}; !reflect.DeepEqual(qs, want) {
		t.Errorf("update2 sent with %v, want %v", qs, want)
	}
	if want := (flatSet[viewQ]{{0, q1}, {0, q2}, {0, q2p}}); !reflect.DeepEqual(a.updateQ[0], want) {
		t.Errorf("updateQ[0] = %v, want %v", a.updateQ[0], want)
	}
	if want := (flatSet[stepKey]{{1, "x", 0}, {2, "x", 0}}); !reflect.DeepEqual(a.old, want) {
		t.Errorf("old = %v, want %v", a.old, want)
	}
}

// TestSignReqCountersignsOnlySentSteps: line 29 countersigns exactly the
// update messages recorded in `old`.
func TestSignReqCountersignsOnlySentSteps(t *testing.T) {
	a, port, _ := volatileAcceptor0(t)
	a.HandleEnvelope(transport.Envelope{From: 7, To: 0, Payload: PrepareMsg{V: "x", View: InitView}})
	ask := func(m SignReq) bool {
		*port.sent = (*port.sent)[:0]
		a.HandleEnvelope(transport.Envelope{From: 7, To: 0, Payload: m})
		for _, env := range *port.sent {
			if ack, ok := env.Payload.(SignAck); ok {
				u := ack.Update.Msg
				return env.To == 7 && u.Step == m.Step && u.V == m.V && u.View == m.View && a.ring.VerifyUpdate(ack.Update)
			}
		}
		return false
	}
	if !ask(SignReq{V: "x", View: 0, Step: 1}) {
		t.Error("did not countersign the update1 it sent")
	}
	for _, m := range []SignReq{
		{V: "x", View: 0, Step: 2}, // not sent yet
		{V: "y", View: 0, Step: 1}, // another value
		{V: "x", View: 1, Step: 1}, // another view
		{V: "x", View: 0, Step: 4}, // no such step
	} {
		if ask(m) {
			t.Errorf("countersigned %+v, which it never sent", m)
		}
	}
	for _, from := range q1.Members() {
		a.HandleEnvelope(transport.Envelope{From: from, To: 0, Payload: UpdateMsg{Step: 1, V: "x", View: 0}})
	}
	if !ask(SignReq{V: "x", View: 0, Step: 2}) {
		t.Error("did not countersign the update2 it sent once q1 echoed")
	}
}

// TestEquivocationFloodIsBounded: acceptor 0 is forged and floods every
// honest process, before the proposal, with 1,000 update1, update2,
// update3 and decision messages in view 0, each with its own value, and
// 1,000 more of each in views 1 to 1,000. Every record list stays at most
// |acceptors| long, and the honest acceptors 1-5, which hold q1, still
// decide the proposed value.
func TestEquivocationFloodIsBounded(t *testing.T) {
	const flood = 1000
	rqs, topo, ring, signers := example7(t)
	var net []transport.Envelope
	acc := map[core.ProcessID]*Acceptor{}
	for id := core.ProcessID(1); id < 6; id++ {
		acc[id] = NewAcceptor(rqs, topo, &sentPort{id, &net}, ring, signers[id])
	}
	lr := NewLearner(rqs, topo, &sentPort{8, &net})
	forger := &sentPort{0, &net}
	honest := topo.Learners.Union(rqs.Universe().Remove(0))
	for _, later := range []int{0, 1} {
		for i := 0; i < flood; i++ {
			v, w := fmt.Sprintf("forged-%d", i), later*(i+1)
			for _, m := range []transport.Message{
				UpdateMsg{Step: 1, V: v, View: w},
				UpdateMsg{Step: 2, V: v, View: w, Q: q2},
				UpdateMsg{Step: 3, V: v, View: w},
				DecisionMsg{V: v},
			} {
				transport.Broadcast(forger, honest, m)
			}
		}
	}
	transport.Broadcast(&sentPort{7, &net}, rqs.Universe(), PrepareMsg{V: "x", View: InitView})

	n := rqs.Universe().Count()
	check := func(who string, d decider, lists ...votes) {
		t.Helper()
		for i, l := range append([]votes{d.upd1, d.upd2, d.upd3}, lists...) {
			if len(l.recs) > n {
				t.Fatalf("%s: list %d holds %d records, want ≤ %d", who, i, len(l.recs), n)
			}
		}
	}
	var learned Learn
	for len(net) > 0 {
		env := net[0]
		net = net[1:]
		if a := acc[env.To]; a != nil {
			a.HandleEnvelope(env)
			check(fmt.Sprint("acceptor ", env.To), a.dec, a.upd2From, a.decisionFrom)
		}
		if env.To == 8 {
			check("learner", lr.dec, lr.decisionFrom)
			if l, ok := lr.HandleEnvelope(env); ok {
				learned = l
			}
		}
	}
	for id, a := range acc {
		if v, ok := a.Decided(); !ok || v != "x" {
			t.Errorf("acceptor %d decided (%q, %v), want x", id, v, ok)
		}
	}
	if learned.V != "x" {
		t.Errorf("learner learned %+v, want x", learned)
	}
}

// TestVotesCountSenderInLatestView: a sender's copy for a later view
// moves its vote there, and a copy for an earlier view is dropped, so
// a view-0 quorum that lost a member to view 1 no longer decides.
func TestVotesCountSenderInLatestView(t *testing.T) {
	d := newDecider(core.Example7RQS())
	upd1 := func(from core.ProcessID, w int) bool {
		return d.record(from, UpdateMsg{Step: 1, V: "x", View: w})
	}
	for _, from := range []core.ProcessID{1, 3, 4} {
		upd1(from, 0)
	}
	upd1(1, 1)
	if upd1(5, 0) || upd1(1, 0) {
		t.Fatal("decided in view 0 counting a sender that moved to view 1")
	}
	if r := d.upd1.find(voteKey{v: "x", w: 0}); r == nil || r.seen != core.NewSet(3, 4, 5) {
		t.Fatalf("view-0 record %+v, want senders {3,4,5}", r)
	}
	for _, from := range []core.ProcessID{3, 4} {
		upd1(from, 1)
	}
	if !upd1(5, 1) {
		t.Fatal("q1 in view 1 did not decide")
	}
	if len(d.upd1.recs) != 1 {
		t.Fatalf("records %+v, want only view 1's", d.upd1.recs)
	}
}
