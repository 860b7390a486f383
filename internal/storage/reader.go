package storage

import (
	"context"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// ReadResult reports how a read completed.
type ReadResult struct {
	Val    string
	TS     int64 // timestamp of the returned value (0 for ⊥)
	Rounds int   // total communication round-trips used
}

// Reader is a reader of the SWMR storage (Figure 7). Like the writer, a
// Reader runs one operation at a time.
type Reader struct {
	client
	readNo     int64
	advElem    []core.Set // cached enumeration of B, for valid3
	semantics  Semantics
	disableQC2 bool

	// Per-operation state, reused across operations.
	query       round               // the query round in flight
	trResp      *core.QuorumTracker // servers heard from at all this read
	wb          writeRound          // the write-back round in flight, if writingBack
	writingBack bool
	res         ReadResult

	// st is the read state of lines 1-9: the history table and pair
	// scratch keep their allocations, and st.from carries over from the
	// last atomic read that completed.
	st readState

	// retained holds the arena-aliased envelopes whose ReadAck rows
	// st.hist references. The histories stay live for the whole read
	// (candidate selection and the BCD checks walk them), so the arenas
	// recycle only at the start of the NEXT operation.
	retained []transport.Envelope
}

// NewReader creates a reader. timeout is the paper's 2Δ; zero selects
// DefaultTimeout.
func NewReader(rqs *core.RQS, port transport.Port, timeout time.Duration) *Reader {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	r := &Reader{
		client:    client{rqs: rqs, port: port, timeout: timeout},
		advElem:   core.Elements(rqs.Adversary()),
		semantics: Atomic,
		trResp:    rqs.NewTracker(),
	}
	r.query.tr = rqs.NewTracker()
	r.wb.tr = rqs.NewTracker()
	return r
}

// Read returns the current value of the storage (lines 20-49 of
// Figure 7): a regular-semantics phase that repeats rounds until a safe,
// highest candidate exists, then a BCD-guided writeback phase that
// enforces atomicity while preserving best-case latency.
func (r *Reader) Read() ReadResult {
	res, _ := r.ReadCtx(context.Background())
	return res
}

// ReadCtx is Read with a per-operation deadline: when ctx expires
// before the read can complete, the operation aborts and the context's
// error is returned — the chaos harness's liveness check. It returns
// ErrClosed when the port closes first. Either way the result is ⊥ and
// carries no information; the reader remains usable.
func (r *Reader) ReadCtx(ctx context.Context) (ReadResult, error) {
	if err := r.drive(ctx, r, r.StartRead()); err != nil {
		return ReadResult{Val: NoValue, Rounds: r.res.Rounds}, err
	}
	return r.res, nil
}

// StartRead begins a read and returns its first step: query round 1.
func (r *Reader) StartRead() Step {
	r.readNo++
	// The previous read's histories die with its state; the envelopes
	// retained for them can recycle their arenas now.
	for i := range r.retained {
		r.retained[i].Release()
	}
	r.retained = r.retained[:0]
	r.trResp.Reset()
	st := &r.st
	if st.hist == nil {
		st.rqs = r.rqs
		st.adv = r.rqs.Adversary()
		st.elem = r.advElem
		st.hist = make([][]TSRow, r.rqs.N())
	} else {
		clear(st.hist)
	}
	st.respQuorums = st.respQuorums[:0]
	st.qc2prime = st.qc2prime[:0]
	st.highestTS = 0
	r.res = ReadResult{}
	r.writingBack = false
	return r.queryRound()
}

// Result is the outcome of the last read, once a step reported Done.
func (r *Reader) Result() ReadResult { return r.res }

// queryRound sends rd〈read_no, rnd〉 to every server. It ends once some
// quorum replied in this round and, in round 1, the 2Δ timer expired or
// every server replied.
func (r *Reader) queryRound() Step {
	r.res.Rounds++
	r.st.pairsValid = false // fresh acks will refresh the histories
	r.query.reset(r.res.Rounds == 1)
	return Step{Send: ReadReq{ReadNo: r.readNo, Round: r.res.Rounds, From: r.st.from}, Timer: r.res.Rounds == 1}
}

// Deliver feeds a reply to the round in flight.
func (r *Reader) Deliver(env transport.Envelope) Step {
	if r.writingBack {
		if !r.wb.deliver(env) {
			return Step{}
		}
		return r.afterWriteback()
	}
	ack, isAck := env.Payload.(ReadAck)
	// An ack from outside the universe, or with rows out of order or
	// repeated, is no history an honest server sends: it counts as not
	// received, which is silence, a legal Byzantine behaviour.
	if !isAck || ack.ReadNo != r.readNo || env.From < 0 || env.From >= len(r.st.hist) || !ascending(ack.Rows) {
		env.Release()
		return Step{}
	}
	// Lines 50-53: any ack refreshes the local copy of the server's
	// history and the Responded bookkeeping; only current-round acks
	// advance the round. Rows below from, which only a Byzantine
	// server sends, are skipped.
	r.st.hist[env.From] = rowsFrom(ack.Rows, r.st.from)
	if env.Aliased() {
		// The rows' strings alias the envelope's receive arena;
		// hold the reference until the operation is over.
		r.retained = append(r.retained, env)
	}
	r.trResp.Add(env.From)
	if ack.Round == r.res.Rounds {
		r.query.add(env.From)
	}
	if !r.query.ended() {
		return Step{}
	}
	return r.afterQuery()
}

// Expire records that the round's 2Δ timer ran out.
func (r *Reader) Expire() Step {
	if r.writingBack {
		if !r.wb.expire() {
			return Step{}
		}
		return r.afterWriteback()
	}
	if !r.query.expire() {
		return Step{}
	}
	return r.afterQuery()
}

// afterQuery selects a candidate once a query round ended (lines
// 20-39), or starts another round, then plans the write-back (lines
// 40-49).
func (r *Reader) afterQuery() Step {
	st := &r.st
	// The responded set only changes between rounds, so the quorums it
	// contains are computed once per round, not per predicate — appended
	// into buffers the predicates alone read, reused across operations
	// (the Sets themselves are shared immutable index state; only the
	// slice headers are recycled here).
	st.respQuorums = r.trResp.AppendContained(st.respQuorums[:0], core.Class3)
	rounds := r.res.Rounds
	if rounds == 1 {
		st.highestTS = st.computeHighestTS()
		if !r.disableQC2 {
			st.qc2prime = r.query.tr.AppendContained(st.qc2prime[:0], core.Class2)
		}
	}
	csel, ok := st.selectCandidate()
	if !ok {
		return r.queryRound()
	}
	if len(r.retained) > 0 {
		// The candidate was selected out of arena-aliased histories; the
		// returned value must survive past the arenas' recycle at the
		// next operation's start.
		csel.Val = strings.Clone(csel.Val)
	}
	r.res.Val, r.res.TS = csel.Val, csel.TS

	// Regular semantics (Section 6): return the selection with no
	// writeback; read inversion becomes possible but regularity holds.
	if r.semantics == Regular {
		return Step{Done: true}
	}

	// Second part: atomicity via the Best-Case Detector (lines 40-49).
	if rounds == 1 {
		if st.bcd1Any(csel) {
			// Line 40: a class-1 quorum confirmed the pair; no writeback.
			return r.done()
		}
		x1 := st.bcd2(csel, 1)
		if len(st.bcd2(csel, 2))+len(st.bcd2(csel, 3)) > 0 {
			// Line 42: the writer already informed a full quorum;
			// write back directly with round number 2.
			return r.writeback(2, nil, false)
		}
		if len(x1) > 0 {
			// Lines 43-47: R = 1. Write back the class-2 quorum ids and
			// hope a quorum from X confirms before the timer runs out.
			return r.writeback(1, x1, true)
		}
	}
	// Line 49: generic two-round writeback.
	return r.writeback(1, nil, false)
}

// writeback implements lines 60-62: the writer's round (writeRound)
// with the selected pair, on the reader's own tracker and timer.
func (r *Reader) writeback(rnd int, sets []core.Set, timed bool) Step {
	r.writingBack = true
	r.res.Rounds++
	return r.wb.start(WriteReq{TS: r.res.TS, Val: r.res.Val, Sets: sets, Round: rnd}, timed, false)
}

// afterWriteback ends the read after a round-2 write-back, and after a
// round-1 write-back whose quorum ids (lines 43-47) one quorum fully
// acked — the round's done check, kept current per ack; otherwise it
// writes back again with round number 2.
func (r *Reader) afterWriteback() Step {
	if r.wb.req.Round == 2 || r.wb.done {
		return r.done()
	}
	return r.writeback(2, nil, false)
}

// done completes an atomic read: later reads need no history row
// below its timestamp.
func (r *Reader) done() Step {
	r.st.from = r.res.TS
	return Step{Done: true}
}
