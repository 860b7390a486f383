package storage

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wal"
)

// The white-box auth edge cases: exactly which manglings of a read ack
// the client screens out, which writes a server refuses, and that the
// WAL restores signature provenance across a crash at every byte
// offset. The end-to-end tolerance behavior lives in the chaos
// scenarios (byzantine-stale-tag-auth, byzantine-replayed-tag).

// authFixture is a deployment over servers {0,1,2} and writer 4 plus
// client 5, with a ready-made mwClient carrying the verifier.
type authFixture struct {
	dep    *auth.Deployment
	writer auth.Signer
	c      mwClient
	net    *transport.Network
}

func newAuthFixture(t *testing.T, mode auth.Mode) *authFixture {
	t.Helper()
	dep, err := auth.NewDeployment(mode, core.NewSet(0, 1, 2, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewNetwork(6)
	t.Cleanup(net.Close)
	c := newMWClient(core.MajorityRQS(3), net.Port(5))
	c.setAuth(dep.Signer(5), dep.Verifier())
	c.seq = 41
	return &authFixture{dep: dep, writer: dep.Signer(4), c: c, net: net}
}

// ack builds a correctly signed read ack for 〈key, tag, val〉 as server
// `from` would over the client's current seq.
func (f *authFixture) ack(from core.ProcessID, key string, tag Tag, val string, synced bool) MWReadAck {
	a := MWReadAck{Seq: f.c.seq, Tag: tag, Val: val, Synced: synced}
	if !tag.IsZero() {
		a.WSig = f.writer.Sign(tagBody(nil, key, tag, val))
	}
	a.SSig = f.dep.Signer(from).Sign(ackBody(nil, from, f.c.seq, key, tag, val, synced))
	return a
}

func TestVerifyReadAckEdgeCases(t *testing.T) {
	for _, mode := range []auth.Mode{auth.ModeEd25519, auth.ModeHMAC} {
		t.Run(mode.String(), func(t *testing.T) {
			f := newAuthFixture(t, mode)
			tag := Tag{TS: 3, Writer: 4}

			good := f.ack(1, "k", tag, "value", true)
			if !f.c.verifyReadAck(1, "k", good) {
				t.Fatal("well-formed ack rejected")
			}

			cases := []struct {
				name string
				ack  MWReadAck
				from core.ProcessID
				key  string
			}{
				{"tampered value", func() MWReadAck {
					a := f.ack(1, "k", tag, "value", true)
					a.Val = "evil" // digest no longer matches either signature
					return a
				}(), 1, "k"},
				{"tampered tag", func() MWReadAck {
					a := f.ack(1, "k", tag, "value", true)
					a.Tag.TS++ // claim a newer write than was signed
					return a
				}(), 1, "k"},
				{"flipped synced bit", func() MWReadAck {
					a := f.ack(1, "k", tag, "value", false)
					a.Synced = true // claim fast-path eligibility it never earned
					return a
				}(), 1, "k"},
				{"replayed countersignature", func() MWReadAck {
					old := f.c.seq
					f.c.seq-- // sign under the previous request's seq...
					a := f.ack(1, "k", tag, "value", true)
					f.c.seq = old
					a.Seq = old // ...then re-serve it for the current one
					return a
				}(), 1, "k"},
				{"countersigner outside deployment", func() MWReadAck {
					a := f.ack(1, "k", tag, "value", true)
					foreign := auth.MustDeployment(mode, core.NewSet(1))
					a.SSig = foreign.Signer(1).Sign(ackBody(nil, 1, f.c.seq, "k", tag, "value", true))
					return a
				}(), 1, "k"},
				{"countersignature from the wrong server", f.ack(2, "k", tag, "value", true), 1, "k"},
				{"writer signature under another key", f.ack(1, "other", tag, "value", true), 1, "k"},
				{"unknown writer", func() MWReadAck {
					bad := Tag{TS: 3, Writer: 9} // no key provisioned for 9
					a := MWReadAck{Seq: f.c.seq, Tag: bad, Val: "value", Synced: true}
					a.WSig = f.writer.Sign(tagBody(nil, "k", bad, "value"))
					a.SSig = f.dep.Signer(1).Sign(ackBody(nil, 1, f.c.seq, "k", bad, "value", true))
					return a
				}(), 1, "k"},
			}
			for _, tc := range cases {
				if f.c.verifyReadAck(tc.from, tc.key, tc.ack) {
					t.Errorf("%s: ack verified", tc.name)
				}
			}

			// The initial ⊥ pair needs no writer signature — only the
			// countersignature vouches for it — but still needs that.
			zero := f.ack(1, "k", Tag{}, NoValue, true)
			if !f.c.verifyReadAck(1, "k", zero) {
				t.Fatal("countersigned zero-tag ack rejected")
			}
			zero.SSig[0] ^= 1
			if f.c.verifyReadAck(1, "k", zero) {
				t.Fatal("zero-tag ack with mangled countersignature verified")
			}

			// A revoked writer's old signatures stop verifying. The
			// client's WSig memo is scoped to one read phase and reset at
			// phase start; simulate the fresh phase here, since `good`
			// above carried this very signature into the memo.
			revoked := f.ack(1, "k", tag, "value", true)
			f.dep.Revoke(4)
			f.c.vValid = false
			if f.c.verifyReadAck(1, "k", revoked) {
				t.Fatal("revoked writer's ack still verified")
			}
		})
	}
}

// TestServerRejectsUnverifiableWrites pins the server-side gate: a
// write or CAS whose tag lacks its claimed writer's signature is
// silently dropped (no ack, no state change) and counted.
func TestServerRejectsUnverifiableWrites(t *testing.T) {
	dep := auth.MustDeployment(auth.ModeHMAC, core.NewSet(0, 4))
	net := transport.NewNetwork(2)
	defer net.Close()
	srv := NewServer(net.Port(0), Hooks{})
	srv.SetAuth(dep.Signer(0), dep.Verifier())

	tag := Tag{TS: 1, Writer: 4}
	sign := func(key string, tag Tag, val string) []byte {
		return dep.Signer(4).Sign(tagBody(nil, key, tag, val))
	}
	reject := []transport.Envelope{
		{From: 1, To: 0, Payload: MWWriteReq{Seq: 1, Key: "k", Tag: tag, Val: "v"}},                           // unsigned
		{From: 1, To: 0, Payload: MWWriteReq{Seq: 2, Key: "k", Tag: tag, Val: "v", Sig: sign("k", tag, "x")}}, // digest mismatch
		{From: 1, To: 0, Payload: MWWriteReq{Seq: 3, Key: "k", Tag: Tag{TS: 1, Writer: 9}, Val: "v",
			Sig: sign("k", Tag{TS: 1, Writer: 9}, "v")}}, // unknown writer
		{From: 1, To: 0, Payload: KVCASReq{Seq: 4, Key: "k", Expect: Tag{}, Tag: tag, Val: "v"}}, // unsigned CAS
	}
	if !srv.handleBurst(reject) {
		t.Fatal("burst failed outright")
	}
	if got := srv.AuthRejects(); got != uint64(len(reject)) {
		t.Fatalf("AuthRejects = %d, want %d", got, len(reject))
	}
	if len(srv.StateSnapshot()) != 0 {
		t.Fatalf("rejected writes mutated the keyspace: %#v", srv.StateSnapshot())
	}
	select {
	case env := <-net.Port(1).Inbox():
		t.Fatalf("rejected write was acked: %#v", env.Payload)
	default:
	}

	// The properly signed write goes through and is acked.
	ok := srv.handleBurst([]transport.Envelope{
		{From: 1, To: 0, Payload: MWWriteReq{Seq: 5, Key: "k", Tag: tag, Val: "v", Sig: sign("k", tag, "v")}},
	})
	if !ok {
		t.Fatal("signed write burst failed")
	}
	snap := srv.StateSnapshot()["k"]
	if snap.MWTag != tag || snap.MWVal != "v" {
		t.Fatalf("signed write not applied: %#v", snap)
	}
	if !srv.verifyWrite("k", snap.MWTag, snap.MWVal, snap.MWSig) {
		t.Fatal("stored signature does not verify (provenance lost on apply)")
	}
	if env := <-net.Port(1).Inbox(); env.Payload.(MWWriteAck).Seq != 5 {
		t.Fatalf("unexpected ack %#v", env.Payload)
	}
}

// TestAuthDurableCrashSweep is the crash-point sweep over signed-record
// replay: a durable server applies signed writes until the WAL's
// simulated kill -9 fires at byte offset `limit`; the fresh incarnation
// must recover exactly the acked prefix AND its stored writer
// signature must still verify (replay restores provenance, not just
// bytes). Swept across offsets so the crash lands in headers, bodies
// and fsync boundaries alike.
func TestAuthDurableCrashSweep(t *testing.T) {
	dep := auth.MustDeployment(auth.ModeHMAC, core.NewSet(0, 4))
	writer := dep.Signer(4)
	sign := func(key string, tag Tag, val string) []byte {
		return writer.Sign(tagBody(nil, key, tag, val))
	}
	const writes = 4
	for limit := int64(1); limit < 500; limit += 13 {
		limit := limit
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			dir := t.TempDir()
			net := transport.NewNetwork(2)
			defer net.Close()
			srv, err := NewDurableServer(net.Port(0), Hooks{}, dir,
				DurableOptions{Hooks: wal.Hooks{FailAfterNBytes: limit}})
			acked := int64(0)
			if err != nil {
				// The budget ran out while the log was being created:
				// the crash predates every write, recovery must come
				// up empty.
				if !errors.Is(err, wal.ErrSimulatedCrash) {
					t.Fatal(err)
				}
			} else {
				srv.SetAuth(dep.Signer(0), dep.Verifier())
				for i := int64(1); i <= writes; i++ {
					tag := Tag{TS: i, Writer: 4}
					val := fmt.Sprintf("v%d", i)
					if !srv.handleBurst(burstOf(MWWriteReq{Seq: i, Key: "k", Tag: tag, Val: val, Sig: sign("k", tag, val)})) {
						break // simulated crash: this write was never acked
					}
					acked = i
				}
				srv.wal.Close()
			}

			srv2, err := NewDurableServer(net.Port(0), Hooks{}, dir, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv2.wal.Close()
			srv2.SetAuth(dep.Signer(0), dep.Verifier())
			reg := srv2.StateSnapshot()["k"]
			if reg.MWTag.TS != acked {
				t.Fatalf("recovered ts=%d, want the acked prefix %d", reg.MWTag.TS, acked)
			}
			if acked > 0 && !srv2.verifyWrite("k", reg.MWTag, reg.MWVal, reg.MWSig) {
				t.Fatalf("recovered signature does not verify for %+v", reg)
			}
		})
	}
}
