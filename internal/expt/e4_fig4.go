package expt

import (
	"math"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/histcheck"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
)

// E4Fig4 replays the executions of Figure 4 (Example 7) on the real
// storage protocol over the six-server general-adversary RQS:
//
//	ex1: all servers alive — write(1) completes in a single round
//	     through the class-1 quorum Q1.
//	ex3: a second write stalls (reaches only s1..s5, never completes);
//	     the read rd by r1 talks to Q2 and returns the new value after
//	     two rounds, writing the class-2 quorum id back (lines 43-46).
//	ex4: s5 crashes and B12 = {s1,s2} turn Byzantine, "forgetting" rd's
//	     round 2 (they report the value without the attached quorum id);
//	     the read rd' by r2 talks to Q2' and must still return the value
//	     — server s2 ∈ Q1 ∩ Q2 ∩ Q2' \ B34 (Property 3b's witness) is
//	     what makes that possible.
//
// The recorded history is checked for atomicity. The executions run
// under sim.Lockstep, so rounds — and the history's real-time order —
// are lockstep rounds, the same on every run.
func E4Fig4() *Table {
	tbl := &Table{
		ID:      "E4",
		Title:   "Figure 4 / Example 7: storage executions on the general-adversary RQS",
		Columns: []string{"execution", "operation", "rounds", "value", "verdict"},
	}

	const (
		sFive = 4 // s5
		sSix  = 5 // s6
	)
	// B12 = {s1, s2}: once activated, they report their real state with
	// the round-2 writeback's quorum ids stripped.
	forgetting := false
	forget := func(p transport.Port) transport.Port {
		return adversary.ForgeReadAcks(p, func(_ core.ProcessID, rows []storage.TSRow) []storage.TSRow {
			if forgetting {
				for i := range rows {
					for j := range rows[i].Row {
						rows[i].Row[j].Sets = nil
					}
				}
			}
			return rows
		})
	}
	ls := &sim.Lockstep{Seed: 1}
	st := sim.NewLockstepStorage(core.Example7RQS(), ls, map[core.ProcessID]adversary.Wrap{0: forget, 1: forget})
	rec := histcheck.NewRecorder()

	w := st.Writer()
	r1 := st.Reader(storage.ReaderOptions{})
	r2 := st.Reader(storage.ReaderOptions{})
	writerID, r1ID, r2ID := core.ProcessID(6), core.ProcessID(7), core.ProcessID(8)

	// ex1: plain fast write.
	op := st.Start(w, w.StartWrite("one"))
	st.Run()
	w1 := w.Result()
	recordLockstep(rec, histcheck.Write, "w", w1.TS, op)
	tbl.AddRow("ex1", "write(1)", w1.Rounds, "one", verdictRounds(w1.Rounds, 1))

	// ex3: the next write stalls — s6 is cut off from everyone and the
	// writer's rounds ≥ 2 are dropped, so write(2) reaches s1..s5 in
	// round 1 and never completes.
	ls.Drop = func(env transport.Envelope) bool {
		req, isW := env.Payload.(storage.WriteReq)
		return env.From == sSix || env.To == sSix || env.From == writerID && isW && req.Round >= 2
	}
	op = st.Start(w, w.StartWrite("two"))
	st.Run()
	recordLockstep(rec, histcheck.Write, "w", w1.TS+1, op) // pending write; see E1 notes

	op = st.Start(r1, r1.StartRead())
	st.Run()
	rd1 := r1.Result()
	recordLockstep(rec, histcheck.Read, "r1", rd1.TS, op)
	tbl.AddRow("ex3", "rd by r1 (Q2)", rd1.Rounds, render(rd1.Val), verdictRounds(rd1.Rounds, 2))

	// ex4: s5 crashes, B12 forget rd's round 2, s6 becomes reachable
	// again for r2; rd' talks to Q2'.
	ls.Crashed = core.NewSet(sFive)
	forgetting = true
	ls.Drop = func(env transport.Envelope) bool {
		return env.From == sSix && env.To != r2ID || env.To == sSix && env.From != r2ID ||
			env.From == writerID || env.To == writerID || env.From == r1ID || env.To == r1ID
	}
	op = st.Start(r2, r2.StartRead())
	st.Run()
	rd2 := r2.Result()
	recordLockstep(rec, histcheck.Read, "r2", rd2.TS, op)
	tbl.AddRow("ex4", "rd' by r2 (Q2')", rd2.Rounds, render(rd2.Val), verdictValue(rd2.Val, "two"))

	verdict := "atomic"
	if v := rec.Check(); v != nil {
		verdict = "VIOLATED: " + v.Reason
	}
	tbl.AddRow("all", "history check", "-", "-", verdict)
	tbl.Notes = append(tbl.Notes,
		"rd' succeeds because s2 (the P3b witness of Q1∩Q2∩Q2'∖B34) vouches for the value: Property 3 at work")
	return tbl
}

// recordLockstep records o in rec with its lockstep rounds as the
// real-time instants; a pending operation never responds.
func recordLockstep(rec *histcheck.Recorder, kind histcheck.Kind, client string, ts int64, o *sim.LockstepOp) {
	resp := o.Resp
	if !o.Done() {
		resp = math.MaxInt32
	}
	rec.Record(histcheck.Op{Kind: kind, Client: client, TS: ts, Inv: time.Unix(0, int64(o.Inv)), Resp: time.Unix(0, int64(resp))})
}

func verdictRounds(got, want int) string {
	if got == want {
		return "OK"
	}
	return "UNEXPECTED"
}

func verdictValue(got, want string) string {
	if got == want {
		return "OK (returned the stalled write's value)"
	}
	return "UNEXPECTED: " + render(got)
}
