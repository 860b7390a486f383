package storage_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
)

func TestRegularReaderReturnsWithoutWriteback(t *testing.T) {
	c := sim.NewStorageCluster(core.Example7RQS(), sim.StorageOptions{
		Timeout: 2 * time.Millisecond, Clients: 2,
	})
	defer c.Stop()
	w := c.Writer()
	r := c.ReaderOpts(storage.ReaderOptions{Semantics: storage.Regular})
	w.Write("v")
	res := r.Read()
	if res.Val != "v" {
		t.Fatalf("regular read = %+v", res)
	}
	if res.Rounds != 1 {
		t.Errorf("regular read rounds = %d, want 1 (no writeback ever)", res.Rounds)
	}
}

func TestRegularReaderOneRoundEvenOnClass3(t *testing.T) {
	// The atomic reader may need up to 3 rounds when reads race
	// incomplete writes; the regular reader returns right after
	// selection regardless of class — Section 6's point that weaker
	// semantics are cheaper.
	r8, err := core.NewThresholdRQS(core.ThresholdParams{N: 8, T: 3, R: 2, Q: 1, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := sim.NewStorageCluster(r8, sim.StorageOptions{Timeout: 2 * time.Millisecond, Clients: 2})
	defer c.Stop()
	c.CrashServers(core.NewSet(5, 6, 7))
	w := c.Writer()
	r := c.ReaderOpts(storage.ReaderOptions{Semantics: storage.Regular})
	w.Write("v")
	if res := r.Read(); res.Rounds != 1 || res.Val != "v" {
		t.Errorf("regular class-3 read = %+v, want 1 round", res)
	}
}

func TestRegularReaderAdmitsReadInversion(t *testing.T) {
	// The freedom regular semantics buys is exactly what atomicity
	// forbids: with a write stalled at a partial round 1, one regular
	// reader can see the new value while a later one (talking to a
	// different quorum) still returns the old — read inversion that the
	// atomic reader's writeback would have prevented.
	ls := &sim.Lockstep{Seed: 1}
	st := sim.NewLockstepStorage(core.Example7RQS(), ls, nil)
	w := st.Writer()
	lockstepDo(t, st, w, w.StartWrite("old"))

	// Stall the next write: round 1 reaches only Q2 = {s1..s5}; rounds
	// ≥ 2 never leave the writer.
	const writerID = 6
	ls.Drop = func(env transport.Envelope) bool {
		req, isW := env.Payload.(storage.WriteReq)
		return env.From == writerID && isW && (req.Round >= 2 || env.To == 5)
	}
	st.Start(w, w.StartWrite("new"))
	if pending := st.Run(); len(pending) != 1 {
		t.Fatalf("%d operations pending, want the stalled write", len(pending))
	}

	// Reader A (regular) sees the partial write through Q2.
	rA := st.Reader(storage.ReaderOptions{Semantics: storage.Regular})
	lockstepDo(t, st, rA, rA.StartRead())
	if res := rA.Result(); res.Val != "new" {
		t.Fatalf("reader A = %+v, want the racing value", res)
	}

	// An inversion needs a quorum missing all round-1 recipients —
	// impossible in Example 7 (every quorum meets Q2 in a basic subset).
	// We assert the weaker, still-illustrative fact: reader B may
	// legally return the same racing value without any writeback having
	// happened, i.e. no server learned anything from reader A's read.
	rB := st.Reader(storage.ReaderOptions{Semantics: storage.Regular})
	lockstepDo(t, st, rB, rB.StartRead())
	if res := rB.Result(); res.Val != "new" {
		t.Fatalf("reader B = %+v", res)
	}
	// No server's history gained reader-written state: slot-1 sets stay
	// empty everywhere (the atomic reader would have written Q2's id).
	for i, srv := range st.Servers {
		for ts, row := range srv.HistorySnapshot() {
			if len(row[0].Sets) != 0 {
				t.Errorf("server %d ts %d: regular reader performed a writeback", i, ts)
			}
		}
	}
}

func TestQC2AblationLosesTheTwoRoundRead(t *testing.T) {
	// The paper's "novel algorithmic scheme" — remembering and writing
	// back class-2 quorum ids — is what makes 2-round reads compose with
	// 1-round writes. Ablate it and the same scenario needs 3 rounds.
	run := func(disable bool) int {
		ls := &sim.Lockstep{Seed: 1}
		st := sim.NewLockstepStorage(core.Example7RQS(), ls, nil)
		w := st.Writer()
		r := st.Reader(storage.ReaderOptions{DisableQC2: disable})
		lockstepDo(t, st, w, w.StartWrite("v"))
		if got := w.Result().Rounds; got != 1 {
			t.Fatalf("write rounds = %d, want 1", got)
		}
		ls.Crashed = core.NewSet(5) // class-2 quorum Q2 remains
		lockstepDo(t, st, r, r.StartRead())
		res := r.Result()
		if res.Val != "v" {
			t.Fatalf("read = %+v (safety must survive the ablation)", res)
		}
		return res.Rounds
	}
	if got := run(false); got != 2 {
		t.Errorf("full algorithm read rounds = %d, want 2", got)
	}
	if got := run(true); got != 3 {
		t.Errorf("ablated read rounds = %d, want 3", got)
	}
}
