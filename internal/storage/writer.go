package storage

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// DefaultTimeout is the default round timer (the paper's 2Δ) used when a
// client is constructed with a zero timeout.
const DefaultTimeout = 10 * time.Millisecond

// WriteResult reports how a write completed.
type WriteResult struct {
	TS     int64 // timestamp attached to the written value
	Rounds int   // communication round-trips used (1, 2 or 3)
}

// Writer is the single writer of the SWMR storage (Figure 5).
// It is not safe for concurrent use: the model forbids a client from
// invoking a new operation before the previous one completes.
type Writer struct {
	rqs     *core.RQS
	port    transport.Port
	timeout time.Duration // the 2Δ round timer
	ts      int64
	tr      *core.QuorumTracker // per-round ack tracker, reset each round
	timer   *time.Timer         // reused 2Δ timer (see resetTimer)
}

// NewWriter creates the writer. timeout is the paper's 2Δ; zero selects
// DefaultTimeout.
func NewWriter(rqs *core.RQS, port transport.Port, timeout time.Duration) *Writer {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	return &Writer{rqs: rqs, port: port, timeout: timeout, tr: rqs.NewTracker()}
}

// Timestamp returns the writer's current local timestamp.
func (w *Writer) Timestamp() int64 { return w.ts }

// SetTimestamp resumes the writer at a given timestamp, for a writer
// process restarting after a crash (the model's single writer must never
// reuse a timestamp). The next write uses ts+1.
func (w *Writer) SetTimestamp(ts int64) {
	if ts > w.ts {
		w.ts = ts
	}
}

// Write stores v (Figure 5). It completes after one round if a class-1
// quorum acknowledges within the timer, after two rounds if a class-2
// quorum that acked round 1 acks again, and after three rounds otherwise.
// It blocks until a quorum of servers is reachable (wait-freedom assumes
// one correct quorum).
func (w *Writer) Write(v string) WriteResult {
	res, _ := w.WriteCtx(context.Background(), v)
	return res
}

// WriteCtx is Write with a per-operation deadline: when ctx expires
// before a quorum is reachable, the operation aborts and the context's
// error is returned — a liveness violation surfaced as an error instead
// of an unbounded quorum wait. An aborted write consumes its timestamp
// (the single writer never reuses one) and may be partially applied at
// some servers; the writer itself remains usable.
func (w *Writer) WriteCtx(ctx context.Context, v string) (WriteResult, error) {
	done := ctx.Done()
	w.ts++
	w.drainStale()

	// Round 1: wait for a quorum AND the 2Δ timer (or every server).
	_, aborted := w.round(1, v, nil, true, done)
	if aborted {
		return WriteResult{TS: w.ts}, ctx.Err()
	}
	if _, ok := w.tr.Contained(core.Class1); ok {
		return WriteResult{TS: w.ts, Rounds: 1}, nil
	}
	// Remember the class-2 quorums that responded (lines 4-5).
	qc2 := w.tr.ContainedAll(core.Class2)

	// Round 2: write the pair with the QC'2 certificate.
	acked, aborted := w.round(2, v, qc2, true, done)
	if aborted {
		return WriteResult{TS: w.ts}, ctx.Err()
	}
	for _, q := range qc2 {
		if q.SubsetOf(acked) {
			return WriteResult{TS: w.ts, Rounds: 2}, nil
		}
	}

	// Round 3: plain quorum write.
	if _, aborted := w.round(3, v, nil, false, done); aborted {
		return WriteResult{TS: w.ts}, ctx.Err()
	}
	return WriteResult{TS: w.ts, Rounds: 3}, nil
}

// round is one round of Figure 5: wr〈ts, v, sets, rnd〉 to all servers.
// It returns the servers that acked (also held by w.tr) and whether
// the wait was aborted by the done channel firing.
func (w *Writer) round(rnd int, v string, sets []core.Set, withTimer bool, done <-chan struct{}) (core.Set, bool) {
	req := WriteReq{TS: w.ts, Val: v, Sets: sets, Round: rnd}
	return writeRound(w.port, w.rqs.Universe(), w.tr, resetTimer(&w.timer, w.timeout), req, withTimer, done)
}

// writeRound is the Figure 5 write round, shared by the writer and the
// reader's writeback (Figure 7, lines 60-62): broadcast req to the
// universe and count WriteAck〈req.TS, req.Round〉 on tr until some
// class-3 quorum acked and, withTimer, the 2Δ timer fired. The timer
// wait is cut short once every server has acked: nothing further can
// arrive, so waiting longer cannot change any verdict. It returns the
// servers that acked and whether the done channel aborted the wait.
func writeRound(port transport.Port, universe core.Set, tr *core.QuorumTracker, timer *time.Timer, req WriteReq, withTimer bool, done <-chan struct{}) (core.Set, bool) {
	transport.Broadcast(port, universe, req)
	tr.Reset()
	timerDone := !withTimer
	quorumOK := false
	for {
		if quorumOK && (timerDone || tr.Complete()) {
			return tr.Responded(), false
		}
		env, ok, timedOut, aborted := recvOrTimer(port, timer, done)
		if aborted {
			return tr.Responded(), true
		}
		if timedOut {
			timerDone = true
			continue
		}
		if !ok {
			return tr.Responded(), false
		}
		// Re-check quorum containment only when the ack changed the
		// tracker state; duplicates and stale messages are free. The
		// assertion copies the (string-free) ack out of the envelope, so
		// the receive arena can recycle before the tracker runs.
		ack, isAck := env.Payload.(WriteAck)
		env.Release()
		if isAck && ack.TS == req.TS && ack.Round == req.Round {
			if tr.Add(env.From) && !quorumOK {
				_, quorumOK = tr.Contained(core.Class3)
			}
		}
	}
}

// resetTimer arms a client's reused 2Δ round timer: the first call
// creates it, later calls stop-drain-reset it. Clients run one
// operation at a time and the timer channel has no other consumer, so
// the non-blocking drain makes Reset race-free under both timer
// semantics — and a round stops paying a runtime-timer allocation.
func resetTimer(t **time.Timer, d time.Duration) *time.Timer {
	tm := *t
	if tm == nil {
		tm = time.NewTimer(d)
		*t = tm
		return tm
	}
	if !tm.Stop() {
		select {
		case <-tm.C:
		default:
		}
	}
	tm.Reset(d)
	return tm
}

// recvOrTimer receives the next envelope for a timed protocol wait,
// draining already-buffered messages before touching the select/timer
// machinery (under load a whole quorum's acks land as one burst, and
// the bare receive is markedly cheaper than a multi-case select).
// timedOut reports that the round timer fired instead; ok is false
// when the inbox closed; aborted reports that the caller's done
// channel fired (nil done — the common, deadline-free case — can
// never fire and costs only a never-ready select case on the slow
// path).
func recvOrTimer(port transport.Port, timer *time.Timer, done <-chan struct{}) (env transport.Envelope, ok, timedOut, aborted bool) {
	select {
	case env, ok = <-port.Inbox():
		return env, ok, false, false
	default:
	}
	select {
	case env, ok = <-port.Inbox():
		return env, ok, false, false
	case <-timer.C:
		return transport.Envelope{}, false, true, false
	case <-done:
		return transport.Envelope{}, false, false, true
	}
}

// drainStale discards any leftover replies from previous operations.
// Server state is monotone, so dropping stale acks never loses
// information — it only keeps per-operation accounting exact.
func (w *Writer) drainStale() { drainPort(w.port) }
