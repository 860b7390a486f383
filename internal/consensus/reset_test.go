package consensus

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

// resetScript generates seeded envelope sequences for acceptor 0 of
// Example 7 (acceptors 0-5, proposer 7, learner 8): update, decision,
// sign_req and sign_ack messages from random acceptors, syncs, pulls,
// prepares from random senders, a valid new_view to view 1, and suspect
// timer expiries (an envelope with no payload). Values are the one
// command "cmd", which every slot of the pipelined tests proposes, or a
// rival; views are 0 or 1.
type resetScript struct {
	signers map[core.ProcessID]*Signer
	newView NewViewMsg
	acks    map[SignReq]map[core.ProcessID]SignedUpdate
}

func newResetScript(t *testing.T, signers map[core.ProcessID]*Signer) *resetScript {
	t.Helper()
	body := ViewChangeBody{NextView: 1}
	var proof []SignedViewChange
	for _, id := range q2.Members() {
		proof = append(proof, SignedViewChange{Acceptor: id, Body: body, Sig: signers[id].Sign(body.signingBody())})
	}
	return &resetScript{signers: signers, newView: NewViewMsg{View: 1, ViewProof: proof},
		acks: make(map[SignReq]map[core.ProcessID]SignedUpdate)}
}

// signAck returns from's countersignature of req, signing each once.
func (s *resetScript) signAck(from core.ProcessID, req SignReq) SignAck {
	if s.acks[req] == nil {
		s.acks[req] = make(map[core.ProcessID]SignedUpdate)
	}
	su, ok := s.acks[req][from]
	if !ok {
		su = s.signers[from].SignUpdate(req.Step, req.V, req.View)
		s.acks[req][from] = su
	}
	return SignAck{Update: su}
}

// sequence returns n seeded envelopes, then inserts two proposer
// prepares in view 0 at random places: the second one must be refused
// (one prepare per view, Figure 15 line 31).
func (s *resetScript) sequence(rng *rand.Rand, n int) []transport.Envelope {
	pick := func(xs ...Value) Value { return xs[rng.Intn(len(xs))] }
	view := func() int { return rng.Intn(6) / 5 } // view 1 one time in six
	acceptor := func() core.ProcessID { return core.ProcessID(rng.Intn(6)) }
	quorums := []core.Set{0, q1, q2, q2p}
	var out []transport.Envelope
	for len(out) < n {
		env := transport.Envelope{From: acceptor(), To: 0}
		switch k := rng.Intn(16); {
		case k < 7:
			env.Payload = UpdateMsg{Step: 1 + k%3, V: pick("cmd", "cmd", "cmd", "alt"), View: view(), Q: quorums[rng.Intn(len(quorums))]}
		case k < 9:
			env.Payload = DecisionMsg{V: pick("cmd", "cmd", "alt")}
		case k == 9:
			env.Payload = SignReq{V: pick("cmd", "alt"), View: view(), Step: 1 + rng.Intn(3)}
		case k == 10:
			env.Payload = s.signAck(env.From, SignReq{V: pick("cmd", "alt"), View: view(), Step: 1 + rng.Intn(2)})
		case k == 11:
			env.From, env.Payload = 7, SyncMsg{}
		case k == 12:
			env.From, env.Payload = 8, DecisionPullMsg{}
		case k == 13:
			env.From = []core.ProcessID{7, acceptor(), 8}[rng.Intn(3)]
			env.Payload = PrepareMsg{V: pick("cmd", "alt"), View: view()}
		case k == 14:
			if rng.Intn(4) == 0 {
				env.From, env.Payload = 7, s.newView
			}
		}
		out = append(out, env) // an empty payload is a timer expiry
	}
	for i := 0; i < 2; i++ {
		at := rng.Intn(len(out) + 1)
		prep := transport.Envelope{From: 7, To: 0, Payload: PrepareMsg{V: pick("cmd", "alt"), View: InitView}}
		out = append(out[:at], append([]transport.Envelope{prep}, out[at:]...)...)
	}
	return out
}

// step feeds one scripted envelope to a and returns what it reported.
func step(a *Acceptor, env transport.Envelope) Timer {
	if env.Payload == nil {
		return a.Expire()
	}
	return a.HandleEnvelope(env)
}

// TestResetAcceptorMatchesFresh is the safety check of recycling: for
// each seed, a fresh acceptor and a recycled one — which first ran
// another seeded sequence over the same command value and was then
// Reset — handle the same sequence and must send the same messages,
// report the same timer and decide the same value after every
// envelope.
// The test fails if Reset leaves any of prepview, old, the decider's
// update1 record, upd2From or decisionFrom from the earlier instance.
func TestResetAcceptorMatchesFresh(t *testing.T) {
	rqs, topo, ring, signers := example7(t)
	script := newResetScript(t, signers)
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		first, second := script.sequence(rng, 60), script.sequence(rng, 60)
		freshPort, recycledPort := newSentPort(0), newSentPort(0)
		fresh := NewAcceptor(rqs, topo, freshPort, ring, signers[0])
		recycled := NewAcceptor(rqs, topo, recycledPort, ring, signers[0])
		for _, env := range first {
			step(recycled, env)
		}
		recycled.Reset()
		*recycledPort.sent = nil
		for i, env := range second {
			tf, tr := step(fresh, env), step(recycled, env)
			vf, df := fresh.Decided()
			vr, dr := recycled.Decided()
			if tf != tr || vf != vr || df != dr || !reflect.DeepEqual(*freshPort.sent, *recycledPort.sent) {
				t.Fatalf("seed %d, envelope %d (%+v): fresh reported %+v, decided (%q, %v), sent %v; "+
					"recycled reported %+v, decided (%q, %v), sent %v",
					seed, i, env, tf, vf, df, *freshPort.sent, tr, vr, dr, *recycledPort.sent)
			}
		}
	}
}

// TestResetPanicsOnDurableAcceptor: a durable acceptor's state is its
// log's, so recycling one is a programming error.
func TestResetPanicsOnDurableAcceptor(t *testing.T) {
	a, _ := durableAcceptorFixture(t, t.TempDir())
	defer a.wal.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Reset of a durable acceptor did not panic")
		}
	}()
	a.Reset()
}

// TestInitialViewPrepareOnlyFromProposer: the initial view has no
// leader, but a prepare still has to come from a proposer. One from an
// acceptor, or from a process outside the topology, must not make an
// honest acceptor prepare (and echo) a value nobody proposed.
func TestInitialViewPrepareOnlyFromProposer(t *testing.T) {
	a, port, _ := volatileAcceptor0(t)
	for _, from := range []core.ProcessID{1, 9} {
		a.HandleEnvelope(transport.Envelope{From: from, To: 0, Payload: PrepareMsg{V: "forged", View: InitView}})
	}
	if got := sentUpdates(*port.sent, 1); len(got) != 0 {
		t.Fatalf("prepared a view-0 value no proposer sent: %v", got)
	}
	a.HandleEnvelope(transport.Envelope{From: 7, To: 0, Payload: PrepareMsg{V: "x", View: InitView}})
	if got := sentUpdates(*port.sent, 1); len(got) != 1 || got[0].V != "x" {
		t.Fatalf("update1 after the proposer's prepare = %v, want x", got)
	}
}
