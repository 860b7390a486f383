package main

import (
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/transport"
)

// TestWriteThenReadAcrossClientRestart is the ROADMAP hang reproducer
// as an automated test: a writer client completes a write over real
// TCP, its process exits, and a fresh reader client starts in the same
// slot (same process ID, same address). With the seed transport the
// servers' cached connections to the dead writer swallowed the first
// ack batch and the read hung forever; with the reliable links it must
// terminate, return the written value, and lose no messages.
func TestWriteThenReadAcrossClientRestart(t *testing.T) {
	system := core.Example7RQS()
	n := system.N()
	transport.Register(storage.WriteReq{})
	transport.Register(storage.WriteAck{})
	transport.Register(storage.ReadReq{})
	transport.Register(storage.ReadAck{})

	// Bind the servers on ephemeral ports, publishing real addresses as
	// they come up; links dial lazily, after the map is complete.
	addrs := make(map[core.ProcessID]string, n+1)
	for i := 0; i <= n; i++ {
		addrs[i] = "127.0.0.1:0"
	}
	nodes := make([]*transport.TCPNode, n)
	for i := 0; i < n; i++ {
		node, err := transport.NewTCPNode(i, addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		nodes[i] = node
		addrs[i] = node.Addr()
	}
	// The client slot needs a FIXED address so the restarted client is
	// reachable where the servers' stale connections pointed.
	clientAddr := reserveAddr(t)
	addrs[n] = clientAddr

	servers := make([]*storage.Server, n)
	for i := 0; i < n; i++ {
		servers[i] = storage.NewServer(nodes[i], storage.Hooks{})
		servers[i].Start()
		defer servers[i].Stop()
	}

	const timeout = 50 * time.Millisecond
	done := make(chan string, 1)
	go func() {
		// Writer client process: read (timestamp resume), write, exit.
		writerNode, err := transport.NewTCPNode(n, addrs)
		if err != nil {
			t.Error(err)
			done <- ""
			return
		}
		cur := storage.NewReader(system, writerNode, timeout).Read()
		w := storage.NewWriter(system, writerNode, timeout)
		w.SetTimestamp(cur.TS)
		w.Write("hello-restart")
		writerNode.Close() // the writer process exits

		// Fresh reader client process in the same slot: this is the
		// read that used to hang forever.
		readerNode, err := transport.NewTCPNode(n, addrs)
		if err != nil {
			t.Error(err)
			done <- ""
			return
		}
		defer readerNode.Close()
		res := storage.NewReader(system, readerNode, timeout).Read()
		done <- res.Val
	}()

	select {
	case val := <-done:
		if val != "hello-restart" {
			t.Fatalf("read %q after client restart, want %q", val, "hello-restart")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("read after client restart hung — the ROADMAP liveness bug is back")
	}

	// No message loss anywhere: reliable links may redial and
	// retransmit, but nothing is dropped.
	for i, node := range nodes {
		if s := node.Stats(); s.Drops != 0 {
			t.Errorf("server %d dropped %d messages (stats %+v)", i, s.Drops, s)
		}
	}
}

// TestMWMRWriteReadRoles drives the demo's multi-writer roles end to
// end: two mwmr-write client processes on distinct slots against
// in-test TCP servers, then an independent reader verifying the last
// write won with a writer-tagged value.
func TestMWMRWriteReadRoles(t *testing.T) {
	system := core.Example7RQS()
	n := system.N()
	transport.Register(storage.MWReadReq{})
	transport.Register(storage.MWReadAck{})
	transport.Register(storage.MWWriteReq{})
	transport.Register(storage.MWWriteAck{})

	addrs := make(map[core.ProcessID]string, n+3)
	for i := 0; i < n; i++ {
		addrs[i] = "127.0.0.1:0"
	}
	for i := 0; i < 3; i++ {
		addrs[n+i] = reserveAddr(t)
	}
	for i := 0; i < n; i++ {
		node, err := transport.NewTCPNode(i, addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		addrs[i] = node.Addr()
		srv := storage.NewServer(node, storage.Hooks{})
		srv.Start()
		defer srv.Stop()
	}
	csv := make([]string, n+3)
	for i := range csv {
		csv[i] = addrs[i]
	}
	addrsFlag := strings.Join(csv, ",")

	for slot, val := range map[int]string{n: "from-w6", n + 1: "from-w7"} {
		if err := run([]string{"-role", "mwmr-write", "-id", strconv.Itoa(slot),
			"-value", val, "-addrs", addrsFlag}); err != nil {
			t.Fatalf("mwmr-write on slot %d: %v", slot, err)
		}
	}
	if err := run([]string{"-role", "mwmr-read", "-id", strconv.Itoa(n + 2), "-addrs", addrsFlag}); err != nil {
		t.Fatalf("mwmr-read: %v", err)
	}

	// An independent reader client sees the second write (tag ts=2).
	node, err := transport.NewTCPNode(n+2, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	val, ver, err := storage.NewKVClient([]storage.KVGroup{{System: system, Port: node}}).Get("")
	if err != nil {
		t.Fatal(err)
	}
	if ver.TS != 2 {
		t.Fatalf("final version = %+v, want ts 2 (two writes)", ver)
	}
	if val != "from-w6" && val != "from-w7" {
		t.Fatalf("final value = %q, want one of the two writes", val)
	}
}

// TestKVRoles drives the demo's keyed roles end to end over real TCP:
// kv-put, kv-get, a kv-cas against the put's version (must apply), and
// a kv-cas against the now-stale version (must fail cleanly).
func TestKVRoles(t *testing.T) {
	system := core.Example7RQS()
	n := system.N()
	transport.Register(storage.MWReadReq{})
	transport.Register(storage.MWReadAck{})
	transport.Register(storage.MWWriteReq{})
	transport.Register(storage.MWWriteAck{})
	transport.Register(storage.KVCASReq{})
	transport.Register(storage.KVCASAck{})

	addrs := make(map[core.ProcessID]string, n+2)
	for i := 0; i < n; i++ {
		addrs[i] = "127.0.0.1:0"
	}
	for i := 0; i < 2; i++ {
		addrs[n+i] = reserveAddr(t)
	}
	for i := 0; i < n; i++ {
		node, err := transport.NewTCPNode(i, addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		addrs[i] = node.Addr()
		srv := storage.NewServer(node, storage.Hooks{})
		srv.Start()
		defer srv.Stop()
	}
	csv := make([]string, n+2)
	for i := range csv {
		csv[i] = addrs[i]
	}
	addrsFlag := strings.Join(csv, ",")

	for _, roleArgs := range [][]string{
		{"-role", "kv-put", "-key", "user:42", "-value", "alice"},
		{"-role", "kv-get", "-key", "user:42"},
		// The put above committed version (ts=1, writer=n): this CAS
		// must apply...
		{"-role", "kv-cas", "-key", "user:42", "-value", "bob",
			"-expect-ts", "1", "-expect-writer", strconv.Itoa(n)},
		// ...and re-CASing the now-stale version must fail cleanly
		// (run() still returns nil — failure is a result, not an error).
		{"-role", "kv-cas", "-key", "user:42", "-value", "carol",
			"-expect-ts", "1", "-expect-writer", strconv.Itoa(n)},
	} {
		args := append(roleArgs, "-id", strconv.Itoa(n), "-addrs", addrsFlag)
		if err := run(args); err != nil {
			t.Fatalf("%v: %v", roleArgs, err)
		}
	}

	// An independent client on the second slot: the winning CAS value
	// is committed at version (ts=2, writer=n).
	node, err := transport.NewTCPNode(n+1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	kv := storage.NewKVClient([]storage.KVGroup{{System: system, Port: node}})
	val, ver, err := kv.Get("user:42")
	if err != nil {
		t.Fatal(err)
	}
	if val != "bob" || ver.TS != 2 || ver.Writer != n {
		t.Fatalf("kv get user:42 = (%q, %+v), want (%q, ts=2 writer=%d)", val, ver, "bob", n)
	}
}

// TestKVClientRestartNoStaleAcks pins the cross-incarnation stale-ack
// fix: a KV client process exits right after its ops (leaving acks the
// servers' reliable links will retransmit to its slot), and a FRESH
// client process on the same slot reads a different, never-written
// key. With sequence numbers restarting at 1 each incarnation, the
// retransmitted key-less acks of the dead client matched the new
// read's Seq and returned the OLD key's value; the random per-
// incarnation seq start makes the new read see ⊥.
func TestKVClientRestartNoStaleAcks(t *testing.T) {
	system := core.Example7RQS()
	n := system.N()
	transport.Register(storage.MWReadReq{})
	transport.Register(storage.MWReadAck{})
	transport.Register(storage.MWWriteReq{})
	transport.Register(storage.MWWriteAck{})
	transport.Register(storage.KVCASReq{})
	transport.Register(storage.KVCASAck{})

	addrs := make(map[core.ProcessID]string, n+1)
	for i := 0; i < n; i++ {
		addrs[i] = "127.0.0.1:0"
	}
	addrs[n] = reserveAddr(t) // the slot both incarnations share
	for i := 0; i < n; i++ {
		node, err := transport.NewTCPNode(i, addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		addrs[i] = node.Addr()
		srv := storage.NewServer(node, storage.Hooks{})
		srv.Start()
		defer srv.Stop()
	}

	// Incarnation 1: put + get, then the process dies (Close) without
	// draining — its unconsumed acks stay queued for retransmission.
	node1, err := transport.NewTCPNode(n, addrs)
	if err != nil {
		t.Fatal(err)
	}
	kv1 := storage.NewKVClient([]storage.KVGroup{{System: system, Port: node1}})
	if _, err := kv1.Put("user:42", "alice"); err != nil {
		node1.Close()
		t.Fatal(err)
	}
	if _, _, err := kv1.Get("user:42"); err != nil {
		node1.Close()
		t.Fatal(err)
	}
	node1.Close()

	// Incarnation 2, same slot: a different key must read as unwritten
	// even while the dead incarnation's acks are being redelivered.
	node2, err := transport.NewTCPNode(n, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer node2.Close()
	kv2 := storage.NewKVClient([]storage.KVGroup{{System: system, Port: node2}})
	val, ver, err := kv2.Get("other")
	if err != nil {
		t.Fatal(err)
	}
	if val != storage.NoValue || !ver.IsZero() {
		t.Fatalf("unwritten key after client restart = (%q, %+v), want (⊥, zero version)", val, ver)
	}
	// The original key is unaffected.
	val, _, err = kv2.Get("user:42")
	if err != nil {
		t.Fatal(err)
	}
	if val != "alice" {
		t.Fatalf("user:42 after client restart = %q, want %q", val, "alice")
	}
}

// reserveAddr grabs a free loopback port and releases it for the
// client nodes to bind. Listeners use SO_REUSEADDR, so the immediate
// rebind (twice, by the two client incarnations) is safe.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}
