package storage_test

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
)

// TestKVRingDeterministic pins the consistent-hash routing: every
// client of a deployment routes every key to the same group, the
// routing is stable across client instances, and all groups receive a
// nontrivial share of a large keyspace (64 vnodes per group keep the
// imbalance low).
func TestKVRingDeterministic(t *testing.T) {
	c := sim.NewKVCluster(core.FiveServerRQS(), sim.KVOptions{Groups: 4, Clients: 2})
	defer c.Stop()
	a, b := c.Client(), c.Client()
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		key := fmt.Sprintf("key-%d", i)
		ga := a.GroupFor(key)
		if gb := b.GroupFor(key); gb != ga {
			t.Fatalf("clients disagree on key %q: %d vs %d", key, ga, gb)
		}
		counts[ga]++
	}
	for g, n := range counts {
		if n < 4000/4/3 {
			t.Fatalf("group %d received only %d/4000 keys (counts %v)", g, n, counts)
		}
	}
}

// TestKVBasicOps drives the Store surface sequentially on a two-group
// deployment: versioned gets, unconditional puts, create-if-absent CAS
// via the zero version, stale-expect CAS failure reporting the newer
// version.
func TestKVBasicOps(t *testing.T) {
	c := sim.NewKVCluster(core.Example7RQS(), sim.KVOptions{Groups: 2, Clients: 1})
	defer c.Stop()
	kv := c.Client()

	val, ver, err := kv.Get("a")
	if err != nil || val != storage.NoValue || !ver.IsZero() {
		t.Fatalf("Get of unwritten key = (%q, %v, %v), want (⊥, zero, nil)", val, ver, err)
	}

	v1, err := kv.Put("a", "one")
	if err != nil || v1.IsZero() {
		t.Fatalf("Put = (%v, %v)", v1, err)
	}
	val, ver, err = kv.Get("a")
	if err != nil || val != "one" || ver != v1 {
		t.Fatalf("Get after Put = (%q, %v, %v), want (one, %v, nil)", val, ver, err, v1)
	}

	// Independent keys have independent versions (possibly on other
	// groups).
	if _, ver2, _ := kv.Get("b"); !ver2.IsZero() {
		t.Fatalf("key b inherited version %v from key a", ver2)
	}

	res, err := kv.CAS("a", v1, "two")
	if err != nil || !res.OK {
		t.Fatalf("CAS with current version = (%+v, %v), want success", res, err)
	}
	if !v1.Less(res.Version) {
		t.Fatalf("CAS version %v not above expect %v", res.Version, v1)
	}
	val, ver, _ = kv.Get("a")
	if val != "two" || ver != res.Version {
		t.Fatalf("Get after CAS = (%q, %v), want (two, %v)", val, ver, res.Version)
	}

	stale, err := kv.CAS("a", v1, "three")
	if stale.OK {
		t.Fatalf("CAS with stale version = (%+v, %v), want clean failure", stale, err)
	}
	var conflict *storage.ErrCASConflict
	if !errors.As(err, &conflict) {
		t.Fatalf("stale CAS error = %v, want *ErrCASConflict", err)
	}
	if conflict.Key != "a" || conflict.Expect != v1 || conflict.Observed != ver || conflict.Val != "two" {
		t.Fatalf("conflict = %+v, want key a expect %v observed (%v, two)", conflict, v1, ver)
	}
	if stale.Version != ver || stale.Val != "two" {
		t.Fatalf("failed CAS reported (%v, %q), want current (%v, two)", stale.Version, stale.Val, ver)
	}

	// Create-if-absent: CAS against the zero version of a fresh key.
	res, err = kv.CAS("fresh", storage.Version{}, "init")
	if err != nil || !res.OK {
		t.Fatalf("create-if-absent CAS = (%+v, %v), want success", res, err)
	}
	if val, _, _ := kv.Get("fresh"); val != "init" {
		t.Fatalf("Get after create CAS = %q, want init", val)
	}
}

// TestKVErrClosed pins the Store shutdown contract: once the client's
// ports close mid-operation, Get/Put/CAS return ErrClosed — a Get must
// not read as "key unwritten" nor a Put as "committed" when the
// operation never reached a quorum verdict.
func TestKVErrClosed(t *testing.T) {
	c := sim.NewKVCluster(core.Example7RQS(), sim.KVOptions{Groups: 1, Clients: 1})
	kv := c.Client()
	if _, err := kv.Put("k", "v"); err != nil {
		t.Fatalf("Put on live deployment: %v", err)
	}
	c.Stop()
	if _, _, err := kv.Get("k"); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("Get after Stop: err = %v, want ErrClosed", err)
	}
	if _, err := kv.Put("k", "v2"); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("Put after Stop: err = %v, want ErrClosed", err)
	}
	if _, err := kv.CAS("k", storage.Version{}, "v3"); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("CAS after Stop: err = %v, want ErrClosed", err)
	}
}

// TestCASCountsOneVerdictPerServer pins the CAS client's ack accounting
// under redelivery. A server that applied the CAS and then receives the
// same request again (a duplicate, or a redelivery after it restarted)
// acks Applied=false under the same Seq. Only its first verdict counts,
// so the CAS wins once a class-3 quorum applied, even though a second
// server genuinely rejected it.
func TestCASCountsOneVerdictPerServer(t *testing.T) {
	net := transport.NewNetwork(4)
	defer net.Close()
	kv := storage.NewKVClient([]storage.KVGroup{{System: core.MajorityRQS(3), Port: net.Port(3)}})
	type outcome struct {
		res storage.CASResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := kv.CAS("k", storage.Version{}, "v")
		done <- outcome{res, err}
	}()
	var req storage.KVCASReq
	for id := 0; id < 3; id++ {
		select {
		case env := <-net.Port(id).Inbox():
			req = env.Payload.(storage.KVCASReq)
		case <-time.After(10 * time.Second):
			t.Fatalf("server %d never received the CAS", id)
		}
	}
	ack := func(from int, applied bool, tag storage.Tag) {
		net.Port(from).Send(3, storage.KVCASAck{Seq: req.Seq, Applied: applied, Tag: tag})
	}
	ack(0, true, req.Tag)
	ack(0, false, req.Tag) // the redelivered request finds its own tag installed
	ack(1, false, storage.Tag{TS: 1, Writer: 9})
	ack(2, true, req.Tag)
	select {
	case o := <-done:
		if o.err != nil || !o.res.OK || o.res.Version != req.Tag {
			t.Fatalf("CAS = (%+v, %v), want a win at %v: servers 0 and 2 form a class-3 quorum", o.res, o.err, req.Tag)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("CAS never completed")
	}
}

// TestBurstKeyFairness pins the server's cross-key fairness bound: a
// burst is served strictly in inbox arrival order, never grouped or
// reordered by key, so one hot key cannot starve a cold key's request
// (it is answered in its arrival position). The test floods one server
// with a full burst of hot-key reads around a single cold-key read and
// asserts the acks come back in exactly the arrival order. The second
// case puts the server behind adversary wrappers (a rewrite of every
// reply, read-ack forging, MWMR replay), interleaves SWMR writes and
// reads so that every wrapper acts, and has each call back into its
// own server from Send: the server sends outside its state locks, so
// this must neither deadlock nor reorder.
func TestBurstKeyFairness(t *testing.T) {
	for _, tc := range []struct {
		name      string
		reentrant bool
	}{{"zero-hooks", false}, {"reentrant-hooks", true}} {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewNetwork(2)
			defer net.Close()
			var srv *storage.Server
			var sends, forges atomic.Int32
			port := net.Port(0)
			if tc.reentrant {
				port = adversary.Port(port, func(_ core.ProcessID, m transport.Message, send func(transport.Message)) {
					srv.StateSnapshot()
					sends.Add(1)
					send(m)
				})
				port = adversary.ForgeReadAcks(port, func(_ core.ProcessID, rows []storage.TSRow) []storage.TSRow {
					srv.HistorySnapshot()
					forges.Add(1)
					return rows
				})
				port = adversary.ReplayMWReadAcks(port)
			}
			srv = storage.NewServer(port, storage.Hooks{})
			srv.Start()

			client := net.Port(1)
			const total = 64
			const coldAt = 40
			var reads int32
			var want []int64 // MWMR read seqs in arrival order
			for seq := int64(1); seq <= total; seq++ {
				switch {
				case tc.reentrant && seq%8 == 3:
					client.Send(0, storage.WriteReq{TS: seq, Val: "v", Round: 1})
				case tc.reentrant && seq%8 == 6:
					client.Send(0, storage.ReadReq{ReadNo: seq, Round: 1})
					reads++
				case seq == coldAt:
					client.Send(0, storage.MWReadReq{Seq: seq, Key: "cold"})
					want = append(want, seq)
				default:
					client.Send(0, storage.MWReadReq{Seq: seq, Key: "hot"})
					want = append(want, seq)
				}
			}
			var got []int64
			for n := 0; n < total; n++ {
				var env transport.Envelope
				select {
				case env = <-client.Inbox():
				case <-time.After(10 * time.Second):
					t.Fatalf("only %d of %d replies arrived: the server deadlocked", n, total)
				}
				if ack, ok := env.Payload.(storage.MWReadAck); ok {
					got = append(got, ack.Seq)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("MWMR read acks arrived in order %v, want arrival order %v: hot-key traffic reordered the cold key", got, want)
			}
			if tc.reentrant && (sends.Load() != total || forges.Load() != reads) {
				t.Fatalf("wrappers saw %d replies and %d read acks, want %d and %d", sends.Load(), forges.Load(), total, reads)
			}
			srv.Stop() // not deferred: a deadlocked server would never stop
		})
	}
}
