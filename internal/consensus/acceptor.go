package consensus

import (
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wal"
)

// initSuspect is the initial suspect timeout of Figure 14, in Δ.
const initSuspect = 5

// Timer is what one step of the acceptor asks of its suspect timer
// (Figure 14). The acceptor keeps the timer's length in units of Δ but
// holds no clock: Arm > 0 asks the driver to (re)arm the timer to expire
// Arm Δ from now, when the driver calls Expire, and Stop asks it to
// cancel the timer for good. The zero Timer leaves the timer as it was,
// so a host that never calls Expire runs no Election module.
type Timer struct {
	Arm  int
	Stop bool
}

// Acceptor is one acceptor of the Locking module (Figure 15) together
// with its Election module half (Figure 14). It is a step function:
// HandleEnvelope and Expire each handle one event to completion, and
// the caller owns their serialization.
type Acceptor struct {
	id     core.ProcessID
	rqs    *core.RQS
	elems  []core.Set
	ring   *Keyring
	signer *Signer
	topo   Topology
	port   transport.Port

	// Locking state (Figure 15 initialisation), as short lists
	// (flat.go). updateQ[s] holds the pseudocode's updateQ[s][w] as (w,
	// Q) pairs and updateproof[s] its updateproof[s][w], each proof
	// naming its view; new_view_ack bodies regroup both by view. The
	// initial view never writes updateproof.
	view        int
	prep        Value
	prepview    flatSet[int]
	update      [2]Value
	updateview  [2]flatSet[int]
	updateQ     [2]flatSet[viewQ]
	updateproof [2][]SignedUpdate
	old         flatSet[stepKey] // update messages sent

	// Senders of update2〈v, view, *〉 regardless of the attached Q, for
	// the step-2 trigger of line 34; the step-1 trigger reads the
	// decider's update1 record, which is keyed the same way.
	upd2From votes

	dec        decider
	hasDecided bool
	decidedVal Value

	// Consult-phase pending ack, while countersignatures are gathered.
	pendingTo     core.ProcessID
	pendingActive bool
	pendingNeeded flatSet[[2]int] // (step index 0/1, view) still unproven

	// Election state: the suspect timeout in Δ (5Δ at first, doubling
	// on each expiry), and what the current step reports of the timer.
	suspect      int
	timerRunning bool
	timerStopped bool // permanently stopped after a decided quorum
	timer        Timer
	nextView     int
	decisionFrom votes

	// Durability (nil for a volatile acceptor — see durable.go). dirty
	// marks that the handled event changed promise/accept state; the
	// post-event step appends one AcceptorState record, fsyncs, and
	// only then flushes the deferred sends.
	wal         *wal.Log
	dp          *deferPort
	walBuf      []byte
	dirty       bool
	walFailed   bool
	maxSegments int
}

// stepKey names one update message this acceptor sent: update_step〈v, w〉.
type stepKey struct {
	step int
	v    Value
	w    int
}

// viewQ is one quorum of updateQ[s][w].
type viewQ struct {
	w int
	q core.Set
}

// NewAcceptor builds an acceptor. signer must hold this acceptor's key.
func NewAcceptor(rqs *core.RQS, topo Topology, port transport.Port, ring *Keyring, signer *Signer) *Acceptor {
	a := &Acceptor{id: port.ID(), rqs: rqs, elems: rqs.AdversaryElements(), ring: ring, signer: signer,
		topo: topo, port: port, dec: newDecider(rqs), upd2From: votes{idx: rqs.Index()}}
	a.Reset()
	return a
}

// Reset readies the acceptor for a new instance (a pipelined host's next
// slot). It rebuilds the whole struct, so a field not named here starts
// from zero, keeping only identity and the emptied backing arrays of
// its lists. It panics on a durable acceptor.
func (a *Acceptor) Reset() {
	if a.wal != nil {
		panic("consensus: Reset of a durable acceptor")
	}
	*a = Acceptor{
		id: a.id, rqs: a.rqs, elems: a.elems, ring: a.ring, signer: a.signer, topo: a.topo, port: a.port,
		view: InitView, suspect: initSuspect, nextView: InitView,
		prepview: emptied(a.prepview), old: emptied(a.old), pendingNeeded: emptied(a.pendingNeeded),
		updateview:  [2]flatSet[int]{emptied(a.updateview[0]), emptied(a.updateview[1])},
		updateQ:     [2]flatSet[viewQ]{emptied(a.updateQ[0]), emptied(a.updateQ[1])},
		updateproof: [2][]SignedUpdate{emptied(a.updateproof[0]), emptied(a.updateproof[1])},
		dec:         a.dec.reset(), upd2From: a.upd2From.reset(), decisionFrom: a.decisionFrom.reset(),
	}
}

// HandleEnvelope processes one incoming envelope and reports what it
// did to the suspect timer. A durable acceptor commits the state the
// envelope dirtied before the envelope's sends leave (write-ahead); a
// volatile one sends inline.
func (a *Acceptor) HandleEnvelope(env transport.Envelope) Timer {
	a.timer = Timer{}
	a.dispatch(env)
	a.persistAndFlush()
	return a.timer
}

// Expire is the suspect timer running out (Figure 14 lines 3-6): the
// acceptor suspects the current view's leader, doubles its timeout and
// asks the next view's leader for a view change. It reports the re-armed
// timer, or nothing once a decided quorum stopped it.
func (a *Acceptor) Expire() Timer {
	a.timer = Timer{}
	a.onSuspectTimeout()
	a.persistAndFlush()
	return a.timer
}

// Decided returns the acceptor's decision, if any.
func (a *Acceptor) Decided() (Value, bool) { return a.decidedVal, a.hasDecided }

func (a *Acceptor) dispatch(env transport.Envelope) {
	switch m := env.Payload.(type) {
	case PrepareMsg:
		a.onPrepare(env, m)
	case UpdateMsg:
		a.onUpdate(env, m)
	case NewViewMsg:
		a.onNewView(env, m)
	case SignReq:
		a.onSignReq(env, m)
	case SignAck:
		a.onSignAck(m)
	case DecisionMsg:
		a.onDecision(env.From, m)
	case DecisionPullMsg:
		if a.hasDecided {
			a.port.Send(env.From, DecisionMsg{V: a.decidedVal})
		}
	case SyncMsg:
		a.armTimer()
	}
}

// publish sends an update or decision message to acceptors ∪ learners.
func (a *Acceptor) publish(m transport.Message) {
	transport.Broadcast(a.port, a.topo.Acceptors.Union(a.topo.Learners), m)
}

// onPrepare is line 31-33 of Figure 15.
func (a *Acceptor) onPrepare(env transport.Envelope, m PrepareMsg) {
	a.armTimer() // Figure 14 line 0
	if m.View != a.view {
		return
	}
	// (w ∈ Prepview ⇒ w < view): must not have prepared in this view yet.
	for _, w := range a.prepview {
		if w >= a.view {
			return
		}
	}
	if a.view == InitView && !slices.Contains(a.topo.Proposers, env.From) {
		return // the initial view has no leader, but only proposers propose
	}
	if a.view != InitView {
		if env.From != a.topo.Leader(a.view) {
			return
		}
		if !ValidateVProof(a.ring, a.rqs, a.view, m.VProof, m.Q) {
			return
		}
		res := Choose(a.rqs, a.elems, m.V, m.VProof, m.Q)
		if res.Abort || res.V != m.V {
			return
		}
	}
	// Line 32.
	if a.prep != m.V {
		a.prep = m.V
		a.prepview = a.prepview[:0]
	}
	a.prepview.add(a.view)
	a.dirty = true
	// Line 33: echo update1.
	u := UpdateMsg{Step: 1, V: m.V, View: a.view}
	a.old.add(stepKey{1, m.V, a.view})
	a.publish(u)
	// The "upon received update_step from some quorum" guards of line 34
	// are standing rules: update messages that raced ahead of this
	// prepare may already satisfy them.
	a.evalTriggers(1, m.V, a.view)
	a.evalTriggers(2, m.V, a.view)
}

// onUpdate is lines 34-38 plus the decision rules (lines 51-53).
func (a *Acceptor) onUpdate(env transport.Envelope, m UpdateMsg) {
	if !a.topo.Acceptors.Contains(env.From) {
		return
	}
	if a.dec.record(env.From, m) && !a.hasDecided {
		a.decide(m.V)
	}
	switch m.Step {
	case 1:
	case 2:
		if a.upd2From.count(env.From, voteKey{v: m.V, w: m.View}) == nil {
			return
		}
	default:
		return
	}
	a.evalTriggers(m.Step, m.V, m.View)
}

// evalTriggers re-evaluates the standing guards of lines 34-38 for
// update_step〈v, view〉: if v is prepared in the current view and a quorum
// of step messages has been collected, perform the step-update and emit
// the next update message.
func (a *Acceptor) evalTriggers(step int, v Value, view int) {
	if view != a.view || a.prep != v || !a.prepview.has(view) {
		return
	}
	k := voteKey{v: v, w: view}
	switch step {
	case 1:
		r := a.dec.upd1.find(k)
		if r == nil {
			return
		}
		var buf [4]core.Set
		for _, q := range r.tr.AppendContained(buf[:0], core.Class3) {
			if a.updateQ[0].has(viewQ{view, q}) {
				continue
			}
			a.applyUpdate(0, v, view, q)
			a.old.add(stepKey{2, v, view})
			a.publish(UpdateMsg{Step: 2, V: v, View: view, Q: q})
		}
	case 2:
		r := a.upd2From.find(k)
		if r == nil || slices.ContainsFunc(a.updateQ[1], func(x viewQ) bool { return x.w == view }) {
			return
		}
		if q, ok := r.tr.Contained(core.Class3); ok {
			a.applyUpdate(1, v, view, q)
			a.old.add(stepKey{3, v, view})
			a.publish(UpdateMsg{Step: 3, V: v, View: view, Q: q})
		}
	}
}

// applyUpdate is lines 34-35: adopt v as the step-updated value, with
// the quorum q whose step messages triggered it.
func (a *Acceptor) applyUpdate(step int, v Value, view int, q core.Set) {
	a.dirty = true
	if a.update[step] != v {
		a.update[step] = v
		a.updateview[step] = a.updateview[step][:0]
		a.updateQ[step] = a.updateQ[step][:0]
		a.updateproof[step] = nil
	}
	a.updateview[step].add(view)
	a.updateQ[step].add(viewQ{view, q})
}

func (a *Acceptor) decide(v Value) {
	a.hasDecided = true
	a.decidedVal = v
	a.dirty = true
	// Figure 14 line 7: publish the decision to the acceptors (and, so
	// pulls converge faster, to the learners).
	a.publish(DecisionMsg{V: v})
}

// onNewView is lines 21-28 of Figure 15.
func (a *Acceptor) onNewView(env transport.Envelope, m NewViewMsg) {
	a.armTimer()
	if m.View <= a.view {
		return
	}
	if env.From != a.topo.Leader(m.View) {
		return
	}
	if !a.viewProofValid(m.View, m.ViewProof) {
		return
	}
	a.view = m.View
	a.dirty = true
	// Lines 23-27: gather countersignatures for every unproven update.
	a.pendingTo = env.From
	a.pendingActive = true
	a.pendingNeeded = a.pendingNeeded[:0]
	for s := 0; s < 2; s++ {
		for _, w := range a.updateview[s] {
			if slices.ContainsFunc(a.updateproof[s], func(su SignedUpdate) bool { return su.Msg.View == w }) {
				continue
			}
			a.pendingNeeded.add([2]int{s, w})
			req := SignReq{V: a.update[s], View: w, Step: s + 1}
			targets := a.topo.Acceptors
			if i := slices.IndexFunc(a.updateQ[s], func(x viewQ) bool { return x.w == w }); i >= 0 {
				targets = a.updateQ[s][i].q
			}
			transport.Broadcast(a.port, targets, req)
		}
	}
	a.maybeSendAck()
}

// viewProofValid checks a quorum of valid signed view_change〈view〉.
func (a *Acceptor) viewProofValid(view int, proof []SignedViewChange) bool {
	var signers core.Set
	for _, vc := range proof {
		if vc.Body.NextView == view && a.ring.VerifyViewChange(vc) {
			signers = signers.Add(vc.Acceptor)
		}
	}
	_, ok := a.rqs.ContainedQuorum(signers, core.Class3)
	return ok
}

// onSignReq is line 29: countersign an update message this acceptor
// really sent.
func (a *Acceptor) onSignReq(env transport.Envelope, m SignReq) {
	if m.Step < 1 || m.Step > 3 {
		return
	}
	if !a.old.has(stepKey{m.Step, m.V, m.View}) {
		return
	}
	msg := UpdateMsg{Step: m.Step, V: m.V, View: m.View}
	su := SignedUpdate{Msg: msg, Signer: a.id, Sig: a.signer.Sign(msg.signingBody())}
	a.port.Send(env.From, SignAck{Update: su})
}

// onSignAck is lines 26-27: collect countersignatures until each needed
// (step, view) has a basic subset of them, then release the new_view_ack.
func (a *Acceptor) onSignAck(m SignAck) {
	if !a.pendingActive {
		return
	}
	su := m.Update
	s := su.Msg.Step - 1
	if s < 0 || s > 1 {
		return
	}
	key := [2]int{s, su.Msg.View}
	if !a.pendingNeeded.has(key) {
		return
	}
	if su.Msg.V != a.update[s] || !a.ring.VerifyUpdate(su) {
		return
	}
	// Deduplicate signers.
	var signers core.Set
	for _, have := range a.updateproof[s] {
		if have.Msg.View == su.Msg.View {
			signers = signers.Add(have.Signer)
		}
	}
	if signers.Contains(su.Signer) {
		return
	}
	a.updateproof[s] = append(a.updateproof[s], su)
	if core.IsBasic(signers.Add(su.Signer), a.rqs.Adversary()) {
		a.pendingNeeded.remove(key)
		a.maybeSendAck()
	}
}

func (a *Acceptor) maybeSendAck() {
	if !a.pendingActive || len(a.pendingNeeded) > 0 {
		return
	}
	a.pendingActive = false
	body := AckBody{
		View:     a.view,
		Prep:     a.prep,
		Prepview: sortedViews(a.prepview),
		Update:   a.update,
	}
	for s := 0; s < 2; s++ {
		body.Updateview[s] = sortedViews(a.updateview[s])
		body.UpdateQ[s] = make(map[int][]core.Set)
		for _, x := range a.updateQ[s] {
			body.UpdateQ[s][x.w] = append(body.UpdateQ[s][x.w], x.q)
		}
		body.Updateproof[s] = make(map[int][]SignedUpdate)
		for _, su := range a.updateproof[s] {
			body.Updateproof[s][su.Msg.View] = append(body.Updateproof[s][su.Msg.View], su)
		}
	}
	ack := NewViewAck{Acceptor: a.id, Body: body, Sig: a.signer.Sign(body.signingBody())}
	a.port.Send(a.pendingTo, ack)
}

// onDecision is Figure 14 line 8 (stop suspecting after a decided
// quorum) and also lets an undecided acceptor adopt a decision certified
// by a basic subset.
func (a *Acceptor) onDecision(from core.ProcessID, m DecisionMsg) {
	if !a.topo.Acceptors.Contains(from) {
		return
	}
	r := a.decisionFrom.count(from, voteKey{v: m.V})
	if r == nil {
		return
	}
	if _, ok := a.rqs.ContainedQuorum(r.seen, core.Class3); ok && !a.timerStopped {
		a.timerStopped = true
		a.timer = Timer{Stop: true}
	}
	if !a.hasDecided && core.IsBasic(r.seen, a.rqs.Adversary()) {
		a.decide(m.V)
	}
}

// Election module (Figure 14).

func (a *Acceptor) armTimer() {
	if a.timerRunning || a.timerStopped {
		return
	}
	a.timerRunning = true
	a.timer = Timer{Arm: a.suspect}
}

func (a *Acceptor) onSuspectTimeout() {
	if a.timerStopped {
		return
	}
	a.suspect *= 2
	a.nextView++
	body := ViewChangeBody{NextView: a.nextView}
	vc := SignedViewChange{Acceptor: a.id, Body: body, Sig: a.signer.Sign(body.signingBody())}
	a.port.Send(a.topo.Leader(a.nextView), vc)
	a.timer = Timer{Arm: a.suspect}
}

// sortedViews copies a view set in ascending order: acks and WAL
// records carry views sorted.
func sortedViews(s flatSet[int]) []int {
	out := append(make([]int, 0, len(s)), s...)
	sort.Ints(out)
	return out
}
