package storage

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// Every client operation — the SWMR write (Figure 5) and read (Figure
// 7), the KV Get/Put/CAS — is a step function: StartX returns the first
// Step, and the operation then reacts to each reply (Deliver) and to
// its round's 2Δ timer (Expire) with the next one. The protocol code
// never waits; two drivers do. client.drive is the blocking wall-clock
// loop every deployment runs; sim.LockstepStorage delivers round by
// round and fires the timer once the round's replies are in, so the
// rounds an operation takes are counted exactly, whatever the Go
// scheduler does.

// Step is what an operation asks of its driver after a transition.
type Step struct {
	// Send, if non-nil, starts a new round: broadcast it to every server.
	Send transport.Message
	// Timer arms the new round's 2Δ timer (Expire fires once it runs
	// out). A round without it never expires.
	Timer bool
	// Done reports that the operation completed; its result is ready.
	Done bool
}

// Op is a client operation in progress, driven one event at a time.
// A zero Step means "keep waiting".
type Op interface {
	Deliver(transport.Envelope) Step
	Expire() Step
}

// round is the wait condition every client round shares: it ends once
// some class-3 quorum has answered and, in a timed round, the 2Δ timer
// has fired or no later message can change the decision taken after
// the round — because every server has answered, or because the
// decision is already fixed (decided). The second is the run in which
// the timer fires early, which the algorithm allows: its safety does
// not rest on the timer, a local clock that may fire at any instant
// under asynchrony; only its best-case latency does.
type round struct {
	tr      *core.QuorumTracker
	timed   bool // the 2Δ timer is pending
	quorum  bool
	decided bool // no later message can change the decision after the round
}

func (r *round) reset(timed bool) {
	r.tr.Reset()
	r.timed, r.quorum, r.decided = timed, false, false
}

// add counts server from and reports whether it is new; quorum
// containment is re-checked only when the answer set grew (duplicates
// and stale replies are free).
func (r *round) add(from core.ProcessID) bool {
	if !r.tr.Add(from) {
		return false
	}
	if !r.quorum {
		_, r.quorum = r.tr.Contained(core.Class3)
	}
	return true
}

// expire records that the 2Δ timer fired and reports whether the
// round ended.
func (r *round) expire() bool {
	r.timed = false
	return r.ended()
}

func (r *round) ended() bool {
	return r.quorum && (!r.timed || r.decided || r.tr.Complete())
}

// writeRound is the Figure 5 write round, shared by the writer and the
// reader's write-back (Figure 7, lines 60-62): wr〈ts, v, sets, rnd〉 to
// every server, counting WriteAck〈ts, rnd〉.
//
// done is the check that follows the round — does it complete the
// operation? — kept current on every new ack: a class-1 quorum acked
// (the writer's round 1, class1), or some member of req.Sets fully
// acked (the writer's round 2 over QC'2, the reader's R = 1 write-back
// over X). Both only grow with the ack set, so once done holds the
// decision is fixed and a timed round ends without waiting out its
// timer. A round whose req.Sets is empty and that is not class1 can
// never be done: its decision (another round) is fixed from the start.
// Writer round 1 without a class-1 quorum is not decided: the QC'2 it
// carries forward depends on every ack within 2Δ.
type writeRound struct {
	round
	req    WriteReq
	class1 bool // done is "a class-1 quorum acked", not "a member of req.Sets did"
	done   bool
}

func (w *writeRound) start(req WriteReq, timed, class1 bool) Step {
	w.req, w.class1, w.done = req, class1, false
	w.reset(timed)
	w.decided = !class1 && len(req.Sets) == 0
	return Step{Send: req, Timer: timed}
}

// deliver counts env and reports whether the round ended. The assertion
// copies the (string-free) ack out of the envelope, so the receive arena
// recycles before the tracker runs.
func (w *writeRound) deliver(env transport.Envelope) bool {
	ack, isAck := env.Payload.(WriteAck)
	env.Release()
	if isAck && ack.TS == w.req.TS && ack.Round == w.req.Round && w.add(env.From) && !w.done && w.completes() {
		w.done, w.decided = true, true
	}
	return w.ended()
}

// completes evaluates done on the acks so far.
func (w *writeRound) completes() bool {
	if w.class1 {
		_, ok := w.tr.Contained(core.Class1)
		return ok
	}
	acked := w.tr.Responded()
	for _, q := range w.req.Sets {
		if q.SubsetOf(acked) {
			return true
		}
	}
	return false
}

// client is what the blocking driver needs of a storage client: its
// port, the servers it broadcasts to (the RQS universe), and its reused
// 2Δ round timer. A client runs one operation at a time.
type client struct {
	rqs     *core.RQS
	port    transport.Port
	timeout time.Duration
	timer   *time.Timer
}

// drive runs op to completion on the client's port, starting with its
// first step: it broadcasts each round, arms the round's timer when the
// step asks, and feeds op every reply and expiry until a step is Done.
// Leftover replies of earlier operations are drained first: server
// state is monotone, so dropping stale acks loses no information. It
// returns ctx's error when ctx expires first, and ErrClosed when the
// port closes; op's result is meaningless then.
func (c *client) drive(ctx context.Context, op Op, s Step) error {
	drainPort(c.port)
	done := ctx.Done() // nil, and never ready, for context.Background
	var expiry <-chan time.Time
	for !s.Done {
		if s.Send != nil {
			transport.Broadcast(c.port, c.rqs.Universe(), s.Send)
			expiry = nil
			if s.Timer {
				expiry = c.resetTimer()
			}
		}
		// Under load a quorum's acks land as one burst, and the bare
		// receive is markedly cheaper than the multi-case select.
		var env transport.Envelope
		var ok bool
		select {
		case env, ok = <-c.port.Inbox():
		default:
			select {
			case env, ok = <-c.port.Inbox():
			case <-expiry:
				expiry = nil
				s = op.Expire()
				continue
			case <-done:
				return ctx.Err()
			}
		}
		if !ok {
			return ErrClosed
		}
		s = op.Deliver(env)
	}
	return nil
}

// resetTimer arms the client's reused 2Δ timer: the first call creates
// it, later calls stop-drain-reset it. The timer channel has no other
// consumer, so the non-blocking drain makes Reset race-free under both
// timer semantics — and a round stops paying a runtime-timer allocation.
func (c *client) resetTimer() <-chan time.Time {
	if c.timer == nil {
		c.timer = time.NewTimer(c.timeout)
		return c.timer.C
	}
	if !c.timer.Stop() {
		select {
		case <-c.timer.C:
		default:
		}
	}
	c.timer.Reset(c.timeout)
	return c.timer.C
}

// drainPort discards leftover replies from previous operations,
// releasing them so their receive arenas recycle.
func drainPort(port transport.Port) {
	for {
		select {
		case env, ok := <-port.Inbox():
			if !ok {
				return
			}
			env.Release()
		default:
			return
		}
	}
}
