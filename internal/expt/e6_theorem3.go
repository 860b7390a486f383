package expt

import (
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/histcheck"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
)

// E6Outcome is the Theorem 3 schedule's result on one quorum system.
type E6Outcome struct {
	System     string
	Rd1        storage.ReadResult
	Rd2        storage.ReadResult
	Rd2Blocked bool
	Violation  string
}

// E6Theorem3 replays the proof schedule of Theorem 3 against the real
// storage protocol, once on Example7Broken (Property 3 violated: s2 is
// dropped from the class-1 quorum) and once on the valid Example 7 RQS:
//
//  1. write(v1) reaches s1..s5 in round 1, Q1 ∩ Q2 in round 2, then the
//     writer crashes (rounds ≥ 3 are dropped).
//  2. rd1 talks only to Q1 and — with Q1 ∩ Q2's round-2 state — returns
//     v1 in a single round (the (1,Q1)-fast behaviour of the proof).
//  3. s5 crashes; B = {s3,s4} turn Byzantine and forge their state back
//     to σ0 (the initial state), exactly as in execution ex4.
//  4. rd2 talks to Q2'.
//
// On the broken system rd2 returns ⊥ — a read inversion against rd1,
// reproducing the violation the proof constructs. On the valid system the
// same schedule cannot break safety: s2's round-2 state keeps v1 alive
// and rd2 (whose liveness premise — a fully correct quorum — no longer
// holds) simply cannot terminate, let alone return ⊥.
func E6Theorem3() (*Table, []E6Outcome) {
	tbl := &Table{
		ID:      "E6",
		Title:   "Theorem 3: the proof schedule on a P3-violating RQS vs the valid Example 7 RQS",
		Columns: []string{"system", "rd1", "rd2", "atomicity"},
	}
	var outcomes []E6Outcome
	for _, sys := range []struct {
		name string
		rqs  *core.RQS
	}{
		{"broken (P3 violated)", core.Example7Broken()},
		{"valid Example 7", core.Example7RQS()},
	} {
		out := runTheorem3Schedule(sys.rqs)
		out.System = sys.name
		rd2desc := render(out.Rd2.Val)
		if out.Rd2Blocked {
			rd2desc = "blocked (liveness premise broken, safety intact)"
		}
		verdict := "atomic"
		if out.Violation != "" {
			verdict = "VIOLATED: " + out.Violation
		}
		tbl.AddRow(out.System, render(out.Rd1.Val), rd2desc, verdict)
		outcomes = append(outcomes, out)
	}
	tbl.Notes = append(tbl.Notes,
		"with Property 3, s2 ∈ Q1∩Q2 carries the write's round-2 state into rd2's view, blocking the ⊥ answer",
		"without it, rd2 cannot distinguish the schedule from one where no write happened, and returns ⊥ — the Theorem 3 violation")
	return tbl, outcomes
}

func runTheorem3Schedule(rqs *core.RQS) E6Outcome {
	const (
		sSix     = core.ProcessID(5)
		writerID = core.ProcessID(6)
		r1ID     = core.ProcessID(7)
		r2ID     = core.ProcessID(8)
	)
	q1 := rqs.QuorumsOfClass(core.Class1)[0]
	q2 := core.NewSet(0, 1, 2, 3, 4)  // Q2
	q2p := core.NewSet(0, 1, 2, 3, 5) // Q2'
	round2Dst := q1.Intersect(q2)

	// Once forging, {s3, s4} report σ0: no history at all.
	forging := false
	sigma0 := func(p transport.Port) transport.Port {
		return adversary.ForgeReadAcks(p, func(_ core.ProcessID, rows []storage.TSRow) []storage.TSRow {
			if forging {
				return nil
			}
			return rows
		})
	}
	ls := &sim.Lockstep{Seed: 1}
	st := sim.NewLockstepStorage(rqs, ls, map[core.ProcessID]adversary.Wrap{2: sigma0, 3: sigma0})
	w := st.Writer()
	r1 := st.Reader(storage.ReaderOptions{})
	r2 := st.Reader(storage.ReaderOptions{})
	// talksTo confines client id to the servers in q.
	talksTo := func(env transport.Envelope, id core.ProcessID, q core.Set) bool {
		return env.From == id && q.Contains(env.To) || env.To == id && q.Contains(env.From)
	}
	rec := histcheck.NewRecorder()

	// Phase 1: the write. Round 1 misses s6; round 2 reaches only
	// Q1 ∩ Q2; the writer then crashes (everything later is dropped),
	// so the write stays pending.
	ls.Drop = func(env transport.Envelope) bool {
		if env.From != writerID {
			return false
		}
		req, isW := env.Payload.(storage.WriteReq)
		return !isW || req.Round == 1 && env.To == sSix ||
			req.Round == 2 && !round2Dst.Contains(env.To) || req.Round >= 3
	}
	op := st.Start(w, w.StartWrite("v1"))
	st.Run()
	recordLockstep(rec, histcheck.Write, "w", 1, op)

	// Phase 2: rd1 talks only to Q1.
	ls.Drop = func(env transport.Envelope) bool {
		return env.From == writerID || env.To == writerID ||
			(env.From == r1ID || env.To == r1ID) && !talksTo(env, r1ID, q1)
	}
	op = st.Start(r1, r1.StartRead())
	st.Run()
	out := E6Outcome{Rd1: r1.Result()}
	recordLockstep(rec, histcheck.Read, "r1", out.Rd1.TS, op)

	// Phase 3: s5 crashes, {s3, s4} forge σ0.
	ls.Crashed = core.NewSet(4)
	forging = true

	// Phase 4: rd2 talks to Q2' (everything else for r2 is dropped). It
	// is blocked if it is still pending once the network is quiescent.
	// Its query rounds after the second are dropped too: no write is in
	// flight, so every later round would see exactly the histories the
	// second saw, and a read that selected no candidate by then never
	// will — it would otherwise query forever.
	ls.Drop = func(env transport.Envelope) bool {
		req, isR := env.Payload.(storage.ReadReq)
		return env.From == writerID || env.To == writerID || env.From == r1ID || env.To == r1ID ||
			(env.From == r2ID || env.To == r2ID) && !talksTo(env, r2ID, q2p) ||
			isR && req.Round > 2
	}
	op = st.Start(r2, r2.StartRead())
	st.Run()
	if op.Done() {
		out.Rd2 = r2.Result()
		recordLockstep(rec, histcheck.Read, "r2", out.Rd2.TS, op)
	} else {
		out.Rd2Blocked = true
	}
	if v := rec.Check(); v != nil {
		out.Violation = v.Reason
	}
	return out
}
