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
	client
	ts  int64
	wr  writeRound // the round in flight; its tracker is reused
	res WriteResult
}

// NewWriter creates the writer. timeout is the paper's 2Δ; zero selects
// DefaultTimeout.
func NewWriter(rqs *core.RQS, port transport.Port, timeout time.Duration) *Writer {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	w := &Writer{client: client{rqs: rqs, port: port, timeout: timeout}}
	w.wr.tr = rqs.NewTracker()
	return w
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
// of an unbounded quorum wait. It returns ErrClosed when the port
// closes first. An aborted write consumes its timestamp (the single
// writer never reuses one) and may be partially applied at some
// servers; the writer itself remains usable.
func (w *Writer) WriteCtx(ctx context.Context, v string) (WriteResult, error) {
	if err := w.drive(ctx, w, w.StartWrite(v)); err != nil {
		return WriteResult{TS: w.ts}, err
	}
	return w.res, nil
}

// StartWrite begins writing v under the next timestamp and returns the
// first step: round 1, which waits for a quorum AND the 2Δ timer (or
// every server, or a class-1 quorum).
func (w *Writer) StartWrite(v string) Step {
	w.ts++
	return w.startRound(1, v, nil)
}

// Result is the outcome of the last write, once a step reported Done.
func (w *Writer) Result() WriteResult { return w.res }

func (w *Writer) startRound(rnd int, v string, sets []core.Set) Step {
	w.res = WriteResult{TS: w.ts, Rounds: rnd}
	return w.wr.start(WriteReq{TS: w.ts, Val: v, Sets: sets, Round: rnd}, rnd < 3, rnd == 1)
}

// Deliver counts a reply toward the round in flight.
func (w *Writer) Deliver(env transport.Envelope) Step {
	if !w.wr.deliver(env) {
		return Step{}
	}
	return w.next()
}

// Expire records that the round's 2Δ timer ran out.
func (w *Writer) Expire() Step {
	if !w.wr.expire() {
		return Step{}
	}
	return w.next()
}

// next is Figure 5 between rounds: done after round 1 if a class-1
// quorum acked; after round 2 if a class-2 quorum that acked round 1
// acked again, carrying the QC'2 certificate; after round 3 in any case.
// The first two are the round's done check, kept current per ack.
func (w *Writer) next() Step {
	if w.wr.done || w.res.Rounds == 3 {
		return Step{Done: true}
	}
	if w.res.Rounds == 1 {
		// Lines 4-5: QC'2 is the class-2 quorums that acked round 1.
		return w.startRound(2, w.wr.req.Val, w.wr.tr.ContainedAll(core.Class2))
	}
	return w.startRound(3, w.wr.req.Val, nil)
}
