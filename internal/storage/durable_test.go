package storage

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wal"
)

// burstOf wraps requests from a notional client (process 1) into the
// envelope shape the burst loop consumes.
func burstOf(reqs ...transport.Message) []transport.Envelope {
	envs := make([]transport.Envelope, len(reqs))
	for i, r := range reqs {
		envs[i] = transport.Envelope{From: 1, To: 0, Payload: r}
	}
	return envs
}

// durableFixtureBurst is a mixed mutation burst touching all three
// logged request types across two keys.
func durableFixtureBurst() []transport.Envelope {
	return burstOf(
		MWWriteReq{Seq: 1, Key: "alpha", Tag: Tag{TS: 1, Writer: 1}, Val: "v1"},
		MWWriteReq{Seq: 2, Key: "alpha", Tag: Tag{TS: 2, Writer: 1}, Val: "v2"},
		WriteReq{Key: "beta", TS: 7, Val: "sw", Round: 2},
		KVCASReq{Seq: 3, Key: "alpha", Expect: Tag{TS: 2, Writer: 1}, Tag: Tag{TS: 3, Writer: 1}, Val: "v3"},
	)
}

// TestDurableServerRecoversKeyspace kills a durable server (no Stop,
// no snapshot — the WAL is all that survives) and checks a fresh
// server over the same directory replays the exact keyspace.
func TestDurableServerRecoversKeyspace(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewNetwork(2)
	defer net.Close()
	srv, err := NewDurableServer(net.Port(0), Hooks{}, dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !srv.handleBurst(durableFixtureBurst()) {
		t.Fatal("burst failed")
	}
	want := srv.StateSnapshot()
	// kill -9: release the log without flushing anything beyond what
	// the burst's group commit already made durable.
	srv.wal.Close()

	srv2, err := NewDurableServer(net.Port(0), Hooks{}, dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.wal.Close()
	got := srv2.StateSnapshot()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered keyspace differs:\n got %#v\nwant %#v", got, want)
	}
	if got["alpha"].MWVal != "v3" || got["alpha"].MWTag != (Tag{TS: 3, Writer: 1}) {
		t.Fatalf("alpha = %#v, want CAS result v3", got["alpha"])
	}
}

// TestDurableReplayIdempotence re-feeds every logged record into an
// already-recovered server: the keyspace must not move. This is the
// property that makes a crash between compaction's snapshot publish
// and segment cleanup harmless (the next replay sees snapshot +
// already-covered records).
func TestDurableReplayIdempotence(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewNetwork(2)
	defer net.Close()
	srv, err := NewDurableServer(net.Port(0), Hooks{}, dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	burst := durableFixtureBurst()
	if !srv.handleBurst(burst) {
		t.Fatal("burst failed")
	}
	srv.wal.Close()

	srv2, err := NewDurableServer(net.Port(0), Hooks{}, dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.wal.Close()
	before := srv2.StateSnapshot()
	for _, env := range burst {
		rec, err := transport.EncodeMessage(nil, env.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv2.replayRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	after := srv2.StateSnapshot()
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("replaying records twice moved the keyspace:\n before %#v\n after %#v", before, after)
	}
}

// TestDurableRedeliveryAfterRecovery delivers one burst of every
// request kind to a durable server, kills it, reopens it from its WAL
// and delivers the same burst again, as client sessions do when they
// replay unacked frames to a restarted server. The second delivery
// must not move the keyspace or log a record, and must ack every write
// exactly as the first did. The CAS is the one request answered
// differently: its own tag is now installed, so it acks Applied=false
// (the client counts only a server's first verdict, see casPhase).
func TestDurableRedeliveryAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewNetwork(2)
	defer net.Close()
	cas := KVCASReq{Seq: 9, Key: "kv", Tag: Tag{TS: 1, Writer: 1}, Val: "c"}
	burst := func() []transport.Envelope {
		return burstOf(
			WriteReq{Key: "sw", TS: 1, Val: "a", Round: 1},
			WriteReq{Key: "sw", TS: 1, Val: "a", Round: 2, Sets: []core.Set{core.NewSet(0, 1)}},
			ReadReq{Key: "sw", ReadNo: 1, Round: 1},
			WriteReq{Key: "sw", TS: 1, Val: "a", Round: 3},
			MWWriteReq{Seq: 1, Key: "mw", Tag: Tag{TS: 1, Writer: 1}, Val: "x"},
			MWReadReq{Seq: 2, Key: "mw"},
			MWReadReq{Seq: 3, Key: "mw", TagOnly: true},
			cas,
		)
	}
	// deliver runs the burst and returns its write acks, its CAS ack and
	// how many WAL records it appended.
	deliver := func(srv *Server) (writeAcks []transport.Message, casAck KVCASAck, appended int64) {
		t.Helper()
		before, _ := srv.WALStats()
		if !srv.handleBurst(burst()) {
			t.Fatal("burst failed")
		}
		after, _ := srv.WALStats()
		for {
			select {
			case env := <-net.Port(1).Inbox():
				switch ack := env.Payload.(type) {
				case WriteAck, MWWriteAck:
					writeAcks = append(writeAcks, ack)
				case KVCASAck:
					casAck = ack
				}
			default:
				return writeAcks, casAck, after.Appends - before.Appends
			}
		}
	}

	srv, err := NewDurableServer(net.Port(0), Hooks{}, dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	firstAcks, firstCAS, _ := deliver(srv)
	if len(firstAcks) != 4 || !firstCAS.Applied {
		t.Fatalf("first delivery acked writes %v and CAS %+v, want 4 write acks and an applied CAS", firstAcks, firstCAS)
	}
	want := srv.StateSnapshot()
	srv.wal.Close() // kill -9

	srv2, err := NewDurableServer(net.Port(0), Hooks{}, dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.wal.Close()
	acks, casAck, appended := deliver(srv2)
	if got := srv2.StateSnapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("redelivery moved the keyspace:\n got %#v\nwant %#v", got, want)
	}
	if appended != 0 {
		t.Errorf("redelivery appended %d WAL records, want 0", appended)
	}
	if !reflect.DeepEqual(acks, firstAcks) {
		t.Errorf("redelivered write acks = %v, want %v", acks, firstAcks)
	}
	if casAck.Applied || casAck.Seq != cas.Seq || casAck.Tag != cas.Tag {
		t.Errorf("redelivered CAS ack = %+v, want Applied=false, Seq %d, Tag %v", casAck, cas.Seq, cas.Tag)
	}
}

// TestDurableAckHorizon pins the durable server's reply rules on one
// burst that logs a record and then reads: the MWMR read ack leaves at
// once, flagged unsynced, while the write ack and the SWMR read ack
// (which may expose the unsynced write) wait for the burst's group
// commit and then leave in arrival order. Once that commit is done, a
// read-only burst answers synced.
func TestDurableAckHorizon(t *testing.T) {
	net := transport.NewNetwork(2)
	defer net.Close()
	srv, err := NewDurableServer(net.Port(0), Hooks{}, t.TempDir(), DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.wal.Close()
	received := func() []transport.Message {
		var got []transport.Message
		for {
			select {
			case env := <-net.Port(1).Inbox():
				got = append(got, env.Payload)
			default:
				return got
			}
		}
	}

	tag := Tag{TS: 1, Writer: 1}
	if !srv.handleBurst(burstOf(
		MWWriteReq{Seq: 1, Key: "k", Tag: tag, Val: "v"},
		MWReadReq{Seq: 2, Key: "k"},
		ReadReq{ReadNo: 3, Round: 1},
	)) {
		t.Fatal("burst failed")
	}
	want := []transport.Message{
		MWReadAck{Seq: 2, Tag: tag, Val: "v", Synced: false},
		MWWriteAck{Seq: 1},
		ReadAck{ReadNo: 3, Round: 1},
	}
	if got := received(); !reflect.DeepEqual(got, want) {
		t.Fatalf("acks = %#v\nwant %#v", got, want)
	}

	if !srv.handleBurst(burstOf(MWReadReq{Seq: 4, Key: "k"})) {
		t.Fatal("read burst failed")
	}
	want = []transport.Message{MWReadAck{Seq: 4, Tag: tag, Val: "v", Synced: true}}
	if got := received(); !reflect.DeepEqual(got, want) {
		t.Fatalf("acks after the commit = %#v\nwant %#v", got, want)
	}
}

// TestDurableSuffixReadAfterRestart restarts a server from its WAL —
// records only, and a compaction snapshot plus records — and has it
// serve a suffix read: the ack must carry exactly the rows at or above
// From, ts-ascending, as the server held them before the restart. The
// writes arrive out of timestamp order, so replay inserts rows below
// ones it already holds.
func TestDurableSuffixReadAfterRestart(t *testing.T) {
	for _, snapshot := range []bool{false, true} {
		t.Run(fmt.Sprintf("snapshot=%v", snapshot), func(t *testing.T) {
			dir := t.TempDir()
			net := transport.NewNetwork(2)
			defer net.Close()
			opts := DurableOptions{}
			if snapshot {
				opts = DurableOptions{SegmentBytes: 256, MaxSegments: 1}
			}
			srv, err := NewDurableServer(net.Port(0), Hooks{}, dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, ts := range []int64{2, 4, 1, 6, 3, 5, 8, 7, 10, 9} {
				val := fmt.Sprintf("v%d", ts)
				if !srv.handleBurst(burstOf(
					WriteReq{TS: ts, Val: val, Round: 1},
					WriteReq{TS: ts, Val: val, Round: 2, Sets: []core.Set{core.NewSet(0, 1, int(ts%4)+2)}},
				)) {
					t.Fatalf("burst for ts %d failed", ts)
				}
			}
			if got := srv.wal.SnapshotSeq() >= 0; got != snapshot {
				t.Fatalf("compaction happened = %v, want %v", got, snapshot)
			}
			const from = 6
			want := srv.StateSnapshot()[""].History.Rows(from)
			srv.wal.Close()

			srv2, err := NewDurableServer(net.Port(0), Hooks{}, dir, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv2.wal.Close()
			if !srv2.handleBurst(burstOf(ReadReq{ReadNo: 7, Round: 1, From: from})) {
				t.Fatal("read burst failed")
			}
			for {
				env := <-net.Port(1).Inbox()
				ack, ok := env.Payload.(ReadAck)
				if !ok {
					continue // a write ack from before the restart
				}
				if len(want) != 5 || !reflect.DeepEqual(ack, ReadAck{ReadNo: 7, Round: 1, Rows: want}) {
					t.Fatalf("suffix read after restart = %+v\nwant rows %+v", ack, want)
				}
				return
			}
		})
	}
}

// TestDurableCompactionRoundTrip forces rotation + compaction through
// the burst path and checks recovery comes from snapshot + suffix.
func TestDurableCompactionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewNetwork(2)
	defer net.Close()
	srv, err := NewDurableServer(net.Port(0), Hooks{}, dir,
		DurableOptions{SegmentBytes: 256, MaxSegments: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		ok := srv.handleBurst(burstOf(
			MWWriteReq{Seq: int64(i), Key: "hot", Tag: Tag{TS: int64(i + 1), Writer: 1}, Val: "v"},
			MWWriteReq{Seq: int64(i), Key: "cold", Tag: Tag{TS: int64(i + 1), Writer: 2}, Val: "w"},
		))
		if !ok {
			t.Fatalf("burst %d failed", i)
		}
	}
	if srv.wal.SnapshotSeq() < 0 {
		t.Fatal("no compaction happened; test needs a smaller SegmentBytes")
	}
	want := srv.StateSnapshot()
	srv.wal.Close()

	srv2, err := NewDurableServer(net.Port(0), Hooks{}, dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.wal.Close()
	if got := srv2.StateSnapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-compaction recovery differs:\n got %#v\nwant %#v", got, want)
	}
}

// TestDurableWALFailureDropsAcks pins the never-ack-non-durable-state
// rule: when the log cannot commit a burst, the burst's acks must not
// leave the server.
func TestDurableWALFailureDropsAcks(t *testing.T) {
	dir := t.TempDir()
	net := transport.NewNetwork(2)
	defer net.Close()
	// Budget only the segment header: the first logged burst crashes.
	srv, err := NewDurableServer(net.Port(0), Hooks{}, dir,
		DurableOptions{Hooks: wal.Hooks{FailAfterNBytes: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.wal.Close()
	if srv.handleBurst(burstOf(MWWriteReq{Seq: 1, Key: "k", Tag: Tag{TS: 1, Writer: 1}, Val: "v"})) {
		t.Fatal("handleBurst reported success past a WAL crash")
	}
	select {
	case env := <-net.Port(1).Inbox():
		t.Fatalf("ack %#v escaped a failed group commit", env.Payload)
	default:
	}
}
