package storage_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/transport"
)

// These tests drive the SWMR step functions by hand, with no network
// and no clock: each feeds acks one at a time and checks the step that
// comes back. A timed round ends before its 2Δ timer once its outcome
// is decided (a class-1 quorum in write round 1, a fully acked QC'2
// member in write round 2, a fully acked member of X in the reader's
// R = 1 write-back), and only then.

// stepper feeds envelopes from servers to op.
type stepper struct {
	t  *testing.T
	op storage.Op
}

// acks delivers payload from each server in from and fails the test
// unless every step but the last is zero; it returns the last step.
func (s stepper) acks(payload transport.Message, from ...core.ProcessID) storage.Step {
	s.t.Helper()
	var st storage.Step
	for i, id := range from {
		if i > 0 && st != (storage.Step{}) {
			s.t.Fatalf("ack from %d: step %+v before the round's last ack", from[i-1], st)
		}
		st = s.op.Deliver(transport.Envelope{From: id, Payload: payload})
	}
	return st
}

// waits delivers payload from each server in from and fails the test
// unless every step is zero: the round keeps waiting for its timer.
func (s stepper) waits(payload transport.Message, from ...core.ProcessID) {
	s.t.Helper()
	for _, id := range from {
		if st := s.op.Deliver(transport.Envelope{From: id, Payload: payload}); st != (storage.Step{}) {
			s.t.Fatalf("ack from %d: step %+v, want to keep waiting for 2Δ", id, st)
		}
	}
}

// sent returns the WriteReq st broadcasts, failing unless st starts a
// timed write round.
func sent(t *testing.T, st storage.Step) storage.WriteReq {
	t.Helper()
	req, ok := st.Send.(storage.WriteReq)
	if !ok || !st.Timer || st.Done {
		t.Fatalf("step %+v, want a timed write round", st)
	}
	return req
}

// TestWriteRound1EndsOnClass1Quorum: in Example 7 the class-1 quorum
// {s2,s4,s5,s6} decides a one-round write on its last ack, while s1 and
// s3 stay silent and the timer is still pending.
func TestWriteRound1EndsOnClass1Quorum(t *testing.T) {
	w := storage.NewWriter(core.Example7RQS(), nil, 0)
	req := sent(t, w.StartWrite("v"))
	st := stepper{t, w}.acks(storage.WriteAck{TS: req.TS, Round: 1}, 1, 3, 4, 5)
	if !st.Done {
		t.Fatalf("step %+v after the class-1 quorum acked, want Done", st)
	}
	if res := w.Result(); res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
}

// TestWriteRound2EndsOnQC2Member: with s6 down, round 1 waits out its
// timer (no class-1 quorum: QC'2 depends on every ack within 2Δ), and
// round 2 ends on the ack that completes the class-2 quorum QC'2
// carries — Expire is never called for it.
func TestWriteRound2EndsOnQC2Member(t *testing.T) {
	w := storage.NewWriter(core.Example7RQS(), nil, 0)
	s := stepper{t, w}
	req := sent(t, w.StartWrite("v"))
	s.waits(storage.WriteAck{TS: req.TS, Round: 1}, 0, 1, 2, 3, 4)
	req = sent(t, w.Expire())
	if req.Round != 2 || len(req.Sets) != 1 || req.Sets[0] != core.NewSet(0, 1, 2, 3, 4) {
		t.Fatalf("round 2 request %+v, want QC'2 = [{s1..s5}]", req)
	}
	st := s.acks(storage.WriteAck{TS: req.TS, Round: 2}, 4, 0, 2, 1, 3)
	if !st.Done {
		t.Fatalf("step %+v after QC'2's member fully acked, want Done", st)
	}
	if res := w.Result(); res.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2", res.Rounds)
	}
}

// TestWriteRound2WithoutQC2EndsOnQuorum: when round 1 leaves QC'2 empty
// the write goes to round 3 whatever arrives, so round 2 ends on its
// first class-3 quorum. In the five-server system (quorums of 3,
// class-1 and class-2 quorums of 4) three round-1 acks leave QC'2 empty.
func TestWriteRound2WithoutQC2EndsOnQuorum(t *testing.T) {
	w := storage.NewWriter(core.FiveServerRQS(), nil, 0)
	s := stepper{t, w}
	req := sent(t, w.StartWrite("v"))
	s.waits(storage.WriteAck{TS: req.TS, Round: 1}, 0, 1, 2)
	req = sent(t, w.Expire())
	if req.Round != 2 || len(req.Sets) != 0 {
		t.Fatalf("round 2 request %+v, want an empty QC'2", req)
	}
	st := s.acks(storage.WriteAck{TS: req.TS, Round: 2}, 2, 3, 4)
	if req, _ = st.Send.(storage.WriteReq); req.Round != 3 || st.Timer {
		t.Fatalf("step %+v after round 2's quorum, want untimed round 3", st)
	}
	if st = s.acks(storage.WriteAck{TS: req.TS, Round: 3}, 0, 1, 2); !st.Done {
		t.Fatalf("step %+v after round 3's quorum, want Done", st)
	}
	if res := w.Result(); res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
}

// TestReadWritebackEndsOnXMember: s1..s5 report 〈1,v〉 in slot 1 and s6
// is silent. The round-1 query waits for its timer even though a
// quorum answered; the read then writes back with R = 1 and X = [{s1..s5}]
// (lines 43-47), and that write-back ends on the ack completing X's
// member.
func TestReadWritebackEndsOnXMember(t *testing.T) {
	r := storage.NewReader(core.Example7RQS(), nil, 0)
	s := stepper{t, r}
	st := r.StartRead()
	rd, ok := st.Send.(storage.ReadReq)
	if !ok || !st.Timer {
		t.Fatalf("first step %+v, want a timed query", st)
	}
	rows := []storage.TSRow{{TS: 1, Row: storage.Row{{Pair: storage.Pair{TS: 1, Val: "v"}}}}}
	s.waits(storage.ReadAck{ReadNo: rd.ReadNo, Round: 1, Rows: rows}, 0, 1, 2, 3, 4)
	req := sent(t, r.Expire())
	if req.Round != 1 || len(req.Sets) != 1 || req.Sets[0] != core.NewSet(0, 1, 2, 3, 4) {
		t.Fatalf("write-back %+v, want R = 1 with X = [{s1..s5}]", req)
	}
	st = s.acks(storage.WriteAck{TS: 1, Round: 1}, 3, 1, 4, 0, 2)
	if !st.Done {
		t.Fatalf("step %+v after X's member fully acked, want Done", st)
	}
	if res := r.Result(); res.Val != "v" || res.TS != 1 || res.Rounds != 2 {
		t.Fatalf("read = %+v, want v at ts 1 in 2 rounds", res)
	}
}
