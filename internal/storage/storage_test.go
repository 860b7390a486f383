package storage_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/histcheck"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
)

// threshold8 is an RQS with three genuinely distinct quorum classes:
// n=8, t=3, r=2, q=1, k=1 — class-1 quorums have 7 servers, class-2 six,
// class-3 five, tolerating one Byzantine server.
func threshold8(t *testing.T) *core.RQS {
	t.Helper()
	r, err := core.NewThresholdRQS(core.ThresholdParams{N: 8, T: 3, R: 2, Q: 1, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := sim.NewStorageCluster(core.Example7RQS(), sim.StorageOptions{Timeout: 2 * time.Millisecond})
	defer c.Stop()
	w, r := c.Writer(), c.Reader()

	if res := r.Read(); res.Val != storage.NoValue || res.TS != 0 {
		t.Errorf("empty read = %+v, want ⊥", res)
	}
	wres := w.Write("alpha")
	if wres.TS != 1 {
		t.Errorf("first write ts = %d", wres.TS)
	}
	rres := r.Read()
	if rres.Val != "alpha" || rres.TS != 1 {
		t.Errorf("read = %+v, want alpha/1", rres)
	}
	w.Write("beta")
	if rres := r.Read(); rres.Val != "beta" {
		t.Errorf("read = %+v, want beta", rres)
	}
}

// lockstepSeeds are the in-round delivery orders the lockstep tests
// sweep: round counts must not depend on which reply lands first.
const lockstepSeeds = 20

// lockstepDo runs one operation of a LockstepStorage client to
// quiescence and fails the test if it is still pending.
func lockstepDo(t *testing.T, st *sim.LockstepStorage, op storage.Op, first storage.Step) {
	t.Helper()
	st.Start(op, first)
	if pending := st.Run(); len(pending) > 0 {
		t.Fatalf("operation pending at quiescence")
	}
}

// TestRepeatReadWithoutWriteReturnsSamePair: once a read returned
// 〈2,b〉, the reader asks only for the history rows from ts 2 on
// (ReadReq.From), and with no write in between it returns the same
// pair again — with every server up, and with s6 down so writes take
// two rounds and reads write back. A From one above the last return
// would leave the reader no pair to select: its read never completes.
func TestRepeatReadWithoutWriteReturnsSamePair(t *testing.T) {
	for _, crashed := range []core.Set{0, core.NewSet(5)} {
		ls := &sim.Lockstep{Seed: 1, Crashed: crashed}
		st := sim.NewLockstepStorage(core.Example7RQS(), ls, nil)
		w, r := st.Writer(), st.Reader(storage.ReaderOptions{})
		lockstepDo(t, st, w, w.StartWrite("a"))
		lockstepDo(t, st, w, w.StartWrite("b"))
		var froms []int64 // From of every query round, as s1 sees it
		ls.Drop = func(env transport.Envelope) bool {
			if req, ok := env.Payload.(storage.ReadReq); ok && env.To == 0 {
				froms = append(froms, req.From)
			}
			return false
		}
		for i := 0; i < 3; i++ {
			lockstepDo(t, st, r, r.StartRead())
			if res := r.Result(); res.Val != "b" || res.TS != 2 {
				t.Fatalf("crashed %v, read %d = %+v, want b at ts 2", crashed, i+1, res)
			}
		}
		if len(froms) < 3 || froms[0] != 0 || froms[len(froms)-1] != 2 {
			t.Fatalf("crashed %v: query rounds asked from %v, want 0 first and 2 last", crashed, froms)
		}
	}
}

func TestBestCaseLatenciesByClass(t *testing.T) {
	// Theorem 9: the algorithm is (m, QCm)-fast. With n=8, t=3, r=2,
	// q=1: crash 0/2/3 servers to leave exactly a class-1/2/3 quorum of
	// correct servers, and observe m-round writes and reads of at most
	// m rounds, counted by the lockstep driver under every seed.
	// The five-server system's all-alive write is the quickstart's.
	r8 := threshold8(t)
	tests := []struct {
		name       string
		rqs        *core.RQS
		crash      core.Set
		wantRounds int
	}{
		{"class1 all alive", r8, core.EmptySet, 1},
		{"class2 two crashed", r8, core.NewSet(6, 7), 2},
		{"class3 three crashed", r8, core.NewSet(5, 6, 7), 3},
		{"five-server all alive", core.FiveServerRQS(), core.EmptySet, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for seed := int64(1); seed <= lockstepSeeds; seed++ {
				st := sim.NewLockstepStorage(tt.rqs, &sim.Lockstep{Crashed: tt.crash, Seed: seed}, nil)
				w, r := st.Writer(), st.Reader(storage.ReaderOptions{})
				lockstepDo(t, st, w, w.StartWrite("v"))
				if got := w.Result().Rounds; got != tt.wantRounds {
					t.Errorf("seed %d: write rounds = %d, want %d", seed, got, tt.wantRounds)
				}
				lockstepDo(t, st, r, r.StartRead())
				if res := r.Result(); res.Val != "v" || res.Rounds > tt.wantRounds {
					t.Errorf("seed %d: read = %+v, want v in ≤ %d rounds", seed, res, tt.wantRounds)
				}
			}
		})
	}
}

func TestExample7TwoRoundReadAfterFastWrite(t *testing.T) {
	// Figure 4 flavour: a 1-round write through the class-1 quorum, then
	// s6 disappears, leaving class-2 quorum Q2 = {s1..s5}. The read needs
	// the QC'2 writeback machinery (lines 43-46) and completes in 2
	// rounds.
	for seed := int64(1); seed <= lockstepSeeds; seed++ {
		ls := &sim.Lockstep{Seed: seed}
		st := sim.NewLockstepStorage(core.Example7RQS(), ls, nil)
		w, r := st.Writer(), st.Reader(storage.ReaderOptions{})
		lockstepDo(t, st, w, w.StartWrite("one"))
		if got := w.Result().Rounds; got != 1 {
			t.Fatalf("seed %d: write rounds = %d, want 1 (class-1 quorum alive)", seed, got)
		}
		ls.Crashed = core.NewSet(5) // s6
		lockstepDo(t, st, r, r.StartRead())
		if res := r.Result(); res.Val != "one" || res.Rounds != 2 {
			t.Errorf("seed %d: read = %+v, want one in 2 rounds", seed, res)
		}
	}
}

// TestSWMRErrClosed pins the shutdown contract the KV client keeps
// (TestKVErrClosed) for the SWMR clients: once the port closes, a write
// must not report a timestamp as stored nor a read return ⊥ as the
// register's value.
func TestSWMRErrClosed(t *testing.T) {
	c := sim.NewStorageCluster(core.Example7RQS(), sim.StorageOptions{Timeout: 2 * time.Millisecond})
	w, r := c.Writer(), c.Reader()
	w.Write("v")
	c.Stop()
	if res, err := w.WriteCtx(context.Background(), "x"); !errors.Is(err, storage.ErrClosed) {
		t.Errorf("WriteCtx after Stop = (%+v, %v), want ErrClosed", res, err)
	}
	if res, err := r.ReadCtx(context.Background()); !errors.Is(err, storage.ErrClosed) {
		t.Errorf("ReadCtx after Stop = (%+v, %v), want ErrClosed", res, err)
	}
}

// forgeRows makes a server ship rows in every read ack instead of its
// history.
func forgeRows(rows []storage.TSRow) adversary.Wrap {
	return func(p transport.Port) transport.Port {
		return adversary.ForgeReadAcks(p, func(core.ProcessID, []storage.TSRow) []storage.TSRow { return rows })
	}
}

func TestByzantineServerCannotFabricateValues(t *testing.T) {
	// A single Byzantine server ({s1} ∈ B) forges a history claiming a
	// huge timestamp. safe() requires a basic subset of witnesses, so the
	// fabricated pair must never be returned; moreover highCand forces
	// the reader to look past it. (s1 rather than s2: every quorum of
	// Example 7 contains s2, so liveness requires s2 correct.)
	evil := storage.Slot{Pair: storage.Pair{TS: 999, Val: "evil"}}
	forged := []storage.TSRow{{TS: 999, Row: storage.Row{evil, evil}}}
	c := sim.NewStorageCluster(core.Example7RQS(), sim.StorageOptions{
		Timeout:   2 * time.Millisecond,
		Byzantine: map[core.ProcessID]adversary.Wrap{0: forgeRows(forged)},
	})
	defer c.Stop()
	w, r := c.Writer(), c.Reader()

	w.Write("honest")
	res := r.Read()
	if res.Val != "honest" || res.TS != 1 {
		t.Errorf("read = %+v, want the honest value", res)
	}
}

func TestByzantineServerDroppingWrites(t *testing.T) {
	// A server (s3) that never receives a write (but answers reads with
	// its stale state) must not prevent progress or atomicity: the
	// class-1 quorum Q1 = {s2,s4,s5,s6} stays fully correct. Losing the
	// writes is omission, so the link drops them.
	c := sim.NewStorageCluster(core.Example7RQS(), sim.StorageOptions{Timeout: 2 * time.Millisecond})
	defer c.Stop()
	c.Net.SetFilter(func(env transport.Envelope) transport.Verdict {
		if _, w := env.Payload.(storage.WriteReq); w && env.To == 2 {
			return transport.Drop
		}
		return transport.Deliver
	})
	w, r := c.Writer(), c.Reader()
	w.Write("x")
	w.Write("y")
	if res := r.Read(); res.Val != "y" {
		t.Errorf("read = %+v, want y", res)
	}
}

// TestReplayedAckFailsClientVerification drives the replay wrapper end
// to end through a running server: the first read is served honestly
// and captured, the second re-serves the capture with the new seq — and
// the client's verifier must reject exactly that re-serve.
func TestReplayedAckFailsClientVerification(t *testing.T) {
	dep := auth.MustDeployment(auth.ModeHMAC, core.NewSet(0, 4, 5))
	net := transport.NewNetwork(6)
	defer net.Close()
	srv := storage.NewServer(adversary.ReplayMWReadAcks(net.Port(0)), storage.Hooks{})
	srv.SetAuth(dep.Signer(0), dep.Verifier())
	srv.Start()
	defer srv.Stop()
	client := net.Port(5)
	reply := func() transport.Message {
		t.Helper()
		select {
		case env := <-client.Inbox():
			return env.Payload
		case <-time.After(10 * time.Second):
			t.Fatal("no reply")
			return nil
		}
	}

	tag := storage.Tag{TS: 7, Writer: 4}
	client.Send(0, storage.MWWriteReq{Seq: 1, Key: "k", Tag: tag, Val: "v", Sig: storage.SignTag(dep.Signer(4), "k", tag, "v")})
	reply()
	read := func(seq int64) storage.MWReadAck {
		t.Helper()
		client.Send(0, storage.MWReadReq{Seq: seq, Key: "k"})
		return reply().(storage.MWReadAck)
	}

	if first := read(100); !storage.VerifyReadAck(dep.Verifier(), 100, 0, "k", first) {
		t.Fatal("honest first ack rejected")
	}
	replayed := read(101)
	if replayed.Seq != 101 || replayed.Tag != tag {
		t.Fatalf("replay did not masquerade as a fresh ack: %#v", replayed)
	}
	if storage.VerifyReadAck(dep.Verifier(), 101, 0, "k", replayed) {
		t.Fatal("replayed ack verified — countersignature failed to bind the seq")
	}
}

func TestSequentialReadersObserveMonotoneTimestamps(t *testing.T) {
	c := sim.NewStorageCluster(core.Example7RQS(), sim.StorageOptions{
		Timeout: 2 * time.Millisecond, Clients: 3,
	})
	defer c.Stop()
	w := c.Writer()
	r1, r2 := c.Reader(), c.Reader()
	var last int64
	for i := 0; i < 5; i++ {
		w.Write("v")
		a := r1.Read()
		b := r2.Read()
		if a.TS < last || b.TS < a.TS {
			t.Fatalf("timestamps regressed: last=%d a=%d b=%d", last, a.TS, b.TS)
		}
		last = b.TS
	}
}

func TestConcurrentAtomicityStress(t *testing.T) {
	// The core safety test: a writer and two readers hammer the storage
	// concurrently while server s1 is Byzantine (forging stale state);
	// the recorded history must be atomic.
	c := sim.NewStorageCluster(core.Example7RQS(), sim.StorageOptions{
		Timeout: time.Millisecond, Clients: 3,
		Byzantine: map[core.ProcessID]adversary.Wrap{0: forgeRows(nil)},
	})
	defer c.Stop()

	rec := histcheck.NewRecorder()
	const ops = 25
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := c.Writer()
		for i := 0; i < ops; i++ {
			inv := time.Now()
			res := w.Write("v")
			rec.Record(histcheck.Op{Kind: histcheck.Write, Client: "w", TS: res.TS, Inv: inv, Resp: time.Now()})
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		r := c.Reader()
		name := string(rune('a' + g))
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				inv := time.Now()
				res := r.Read()
				rec.Record(histcheck.Op{Kind: histcheck.Read, Client: name, TS: res.TS, Inv: inv, Resp: time.Now()})
			}
		}()
	}
	wg.Wait()
	if v := rec.Check(); v != nil {
		t.Fatalf("atomicity violated: %v", v)
	}
}

func TestAsynchronousLinksStillAtomic(t *testing.T) {
	// Slow (but reliable) links to two servers: operations degrade but
	// stay correct — indulgence in action.
	c := sim.NewStorageCluster(core.Example7RQS(), sim.StorageOptions{
		Timeout: time.Millisecond, Clients: 2,
	})
	defer c.Stop()
	for _, srv := range []core.ProcessID{4, 5} {
		for client := 6; client < 8; client++ {
			c.Net.SetLinkDelay(srv, client, 20*time.Millisecond)
			c.Net.SetLinkDelay(client, srv, 20*time.Millisecond)
		}
	}
	w, r := c.Writer(), c.Reader()
	w.Write("slow")
	if res := r.Read(); res.Val != "slow" {
		t.Errorf("read = %+v, want slow", res)
	}
}

func TestWriterTimestampsIncrease(t *testing.T) {
	c := sim.NewStorageCluster(core.Example7RQS(), sim.StorageOptions{Timeout: time.Millisecond})
	defer c.Stop()
	w := c.Writer()
	for i := int64(1); i <= 3; i++ {
		if res := w.Write("v"); res.TS != i {
			t.Errorf("write %d: ts = %d", i, res.TS)
		}
	}
	if w.Timestamp() != 3 {
		t.Errorf("Timestamp() = %d", w.Timestamp())
	}
}
