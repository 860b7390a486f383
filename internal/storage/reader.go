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
	rqs        *core.RQS
	port       transport.Port
	timeout    time.Duration
	readNo     int64
	advElem    []core.Set // cached enumeration of B for valid3
	semantics  Semantics
	disableQC2 bool

	// Trackers reused across operations (one operation at a time).
	trRound *core.QuorumTracker // acks of the current query round
	trResp  *core.QuorumTracker // servers heard from at all this read
	trWB    *core.QuorumTracker // writeback acks
	timer   *time.Timer         // reused 2Δ timer (see resetTimer)

	// st is the per-operation read state, reused across operations (one
	// operation at a time): the history map and pair scratch keep their
	// allocations.
	st readState

	// retained holds the arena-aliased envelopes whose ReadAck histories
	// st.hist references. The histories stay live for the whole read
	// (candidate selection and the BCD checks walk them), so the arenas
	// recycle only at the start of the NEXT operation (drainStale).
	retained []transport.Envelope
}

// NewReader creates a reader. timeout is the paper's 2Δ; zero selects
// DefaultTimeout.
func NewReader(rqs *core.RQS, port transport.Port, timeout time.Duration) *Reader {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	return &Reader{
		rqs:       rqs,
		port:      port,
		timeout:   timeout,
		advElem:   core.Elements(rqs.Adversary()),
		semantics: Atomic,
		trRound:   rqs.NewTracker(),
		trResp:    rqs.NewTracker(),
		trWB:      rqs.NewTracker(),
	}
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
// error is returned — the chaos harness's liveness check. The reader
// remains usable after an abort.
func (r *Reader) ReadCtx(ctx context.Context) (ReadResult, error) {
	done := ctx.Done()
	r.readNo++
	r.drainStale()
	r.trResp.Reset()
	st := &r.st
	if st.hist == nil {
		st.rqs = r.rqs
		st.adv = r.rqs.Adversary()
		st.elem = r.advElem
		st.hist = make(map[core.ProcessID]History)
		st.resp = r.trResp
		st.round = r.trRound
	} else {
		clear(st.hist)
	}
	st.respQuorums = st.respQuorums[:0]
	st.qc2prime = st.qc2prime[:0]
	st.highestTS = 0
	st.portClosed = false
	st.aborted = false
	st.pairsValid = false

	rounds := 0
	var csel Pair
	for {
		rounds++
		r.queryRound(st, rounds, done)
		if st.aborted {
			return ReadResult{Val: NoValue, TS: 0, Rounds: rounds}, ctx.Err()
		}
		if st.portClosed {
			// The transport shut down mid-operation; report what little
			// is known instead of spinning (test harnesses close the
			// network under deliberately blocked reads).
			return ReadResult{Val: NoValue, TS: 0, Rounds: rounds}, nil
		}
		// The responded set only changes between rounds, so the quorums
		// it contains are computed once per round, not per predicate —
		// appended into buffers the predicates alone read, reused across
		// operations (the Sets themselves are shared immutable index
		// state; only the slice headers are recycled here).
		st.respQuorums = st.resp.AppendContained(st.respQuorums[:0], core.Class3)
		if rounds == 1 {
			st.highestTS = st.computeHighestTS()
			if !r.disableQC2 {
				st.qc2prime = st.round.AppendContained(st.qc2prime[:0], core.Class2)
			}
		}
		if c, ok := st.selectCandidate(); ok {
			csel = c
			break
		}
	}
	if len(r.retained) > 0 {
		// The candidate was selected out of arena-aliased histories; the
		// returned value must survive past the arenas' recycle at the
		// next operation's drainStale.
		csel.Val = strings.Clone(csel.Val)
	}

	// Regular semantics (Section 6): return the selection with no
	// writeback; read inversion becomes possible but regularity holds.
	if r.semantics == Regular {
		return ReadResult{Val: csel.Val, TS: csel.TS, Rounds: rounds}, nil
	}

	// Second part: atomicity via the Best-Case Detector (lines 40-49).
	if rounds == 1 {
		if st.bcd1Any(csel) {
			// Line 40: a class-1 quorum confirmed the pair; no writeback.
			return ReadResult{Val: csel.Val, TS: csel.TS, Rounds: 1}, nil
		}
		x1 := st.bcd2(csel, 1)
		x2 := st.bcd2(csel, 2)
		x3 := st.bcd2(csel, 3)
		if len(x1)+len(x2)+len(x3) > 0 {
			if len(x2)+len(x3) > 0 {
				// Line 42: the writer already informed a full quorum;
				// write back directly with round number 2.
				if _, aborted := r.writeback(2, csel, nil, false, done); aborted {
					return ReadResult{Val: NoValue, Rounds: 2}, ctx.Err()
				}
				return ReadResult{Val: csel.Val, TS: csel.TS, Rounds: 2}, nil
			}
			// Lines 43-47: R = 1. Write back the class-2 quorum ids and
			// hope a quorum from X confirms before the timer runs out.
			acked, aborted := r.writeback(1, csel, x1, true, done)
			if aborted {
				return ReadResult{Val: NoValue, Rounds: 2}, ctx.Err()
			}
			for _, q := range x1 {
				if q.SubsetOf(acked) {
					return ReadResult{Val: csel.Val, TS: csel.TS, Rounds: 2}, nil
				}
			}
			if _, aborted := r.writeback(2, csel, nil, false, done); aborted {
				return ReadResult{Val: NoValue, Rounds: 3}, ctx.Err()
			}
			return ReadResult{Val: csel.Val, TS: csel.TS, Rounds: 3}, nil
		}
	}

	// Line 49: generic two-round writeback.
	if _, aborted := r.writeback(1, csel, nil, false, done); aborted {
		return ReadResult{Val: NoValue, Rounds: rounds + 1}, ctx.Err()
	}
	if _, aborted := r.writeback(2, csel, nil, false, done); aborted {
		return ReadResult{Val: NoValue, Rounds: rounds + 2}, ctx.Err()
	}
	return ReadResult{Val: csel.Val, TS: csel.TS, Rounds: rounds + 2}, nil
}

// queryRound sends rd〈read_no, rnd〉 to all servers and waits until some
// quorum replied in this round and, in round 1, the 2Δ timer expired or
// every server replied (once the whole universe has answered, no later
// message can add information, so the timer wait is provably redundant).
func (r *Reader) queryRound(st *readState, rnd int, done <-chan struct{}) {
	transport.Broadcast(r.port, r.rqs.Universe(), ReadReq{ReadNo: r.readNo, Round: rnd})

	st.pairsValid = false // fresh acks will refresh the histories
	st.round.Reset()
	timer := resetTimer(&r.timer, r.timeout)
	timerDone := rnd != 1
	quorumOK := false

	for {
		if quorumOK && (timerDone || st.round.Complete()) {
			return
		}
		env, ok, timedOut, aborted := recvOrTimer(r.port, timer, done)
		if aborted {
			st.aborted = true
			return
		}
		if timedOut {
			timerDone = true
			continue
		}
		if !ok {
			st.portClosed = true
			return
		}
		ack, isAck := env.Payload.(ReadAck)
		if !isAck || ack.ReadNo != r.readNo {
			env.Release()
			continue
		}
		// Lines 50-53: any ack refreshes the local copy of the
		// server's history and the Responded bookkeeping; only
		// current-round acks advance the round. Quorum checks
		// rerun only when the ack set actually grew.
		st.hist[env.From] = ack.History
		if env.Aliased() {
			// The history's strings alias the envelope's receive arena;
			// hold the reference until the operation is over.
			r.retained = append(r.retained, env)
		}
		st.resp.Add(env.From)
		if ack.Round == rnd && st.round.Add(env.From) && !quorumOK {
			_, quorumOK = st.round.Contained(core.Class3)
		}
	}
}

// writeback implements lines 60-62: the writer's round (writeRound)
// with the selected pair, on the reader's own tracker and timer; with
// withTimer it also waits for the 2Δ timer (the line 43-45 dance).
func (r *Reader) writeback(round int, c Pair, sets []core.Set, withTimer bool, done <-chan struct{}) (core.Set, bool) {
	req := WriteReq{TS: c.TS, Val: c.Val, Sets: sets, Round: round}
	return writeRound(r.port, r.rqs.Universe(), r.trWB, resetTimer(&r.timer, r.timeout), req, withTimer, done)
}

func (r *Reader) drainStale() {
	drainPort(r.port)
	// The previous operation's histories die with its read state; the
	// envelopes retained for them can recycle their arenas now.
	for i := range r.retained {
		r.retained[i].Release()
	}
	r.retained = r.retained[:0]
}
