package transport

import (
	"testing"
	"time"

	"repro/internal/core"
)

func recvOne(t *testing.T, p Port) Envelope {
	t.Helper()
	select {
	case env, ok := <-p.Inbox():
		if !ok {
			t.Fatal("inbox closed")
		}
		return env
	case <-time.After(2 * time.Second):
		t.Fatal("timeout waiting for envelope")
	}
	return Envelope{}
}

func TestNetworkBasicDelivery(t *testing.T) {
	net := NewNetwork(3)
	defer net.Close()
	a, b := net.Port(0), net.Port(1)
	a.Send(1, "hello")
	env := recvOne(t, b)
	if env.From != 0 || env.To != 1 || env.Payload != "hello" || env.Hop != 0 {
		t.Errorf("unexpected envelope %+v", env)
	}
}

func TestNetworkHopPropagation(t *testing.T) {
	net := NewNetwork(2)
	defer net.Close()
	net.Port(0).SendHop(1, "x", 3)
	if env := recvOne(t, net.Port(1)); env.Hop != 3 {
		t.Errorf("hop = %d, want 3", env.Hop)
	}
}

func TestNetworkCrashSilencesBothDirections(t *testing.T) {
	net := NewNetwork(2)
	defer net.Close()
	net.Crash(1)
	net.Port(0).Send(1, "to crashed")
	net.Port(1).Send(0, "from crashed")
	select {
	case env := <-net.Port(0).Inbox():
		t.Errorf("received %+v from crashed process", env)
	case <-time.After(30 * time.Millisecond):
	}
	if !net.Crashed().Contains(1) || net.Crashed().Contains(0) {
		t.Error("Crashed() set wrong")
	}
}

func TestNetworkFilterDrop(t *testing.T) {
	net := NewNetwork(2)
	defer net.Close()
	net.SetFilter(func(env Envelope) Verdict {
		if env.Payload == "drop" {
			return Drop
		}
		return Deliver
	})
	p0 := net.Port(0)
	p0.Send(1, "drop")
	p0.Send(1, "pass")
	if env := recvOne(t, net.Port(1)); env.Payload != "pass" {
		t.Errorf("got %v, want pass", env.Payload)
	}
}

// TestNetworkDelays: a link delay holds a message back by at least the
// delay, and the delay heap releases messages in due-time order. The
// message on the 20 ms link is sent first and the one on the 1 ms link
// right after, so the fast one falls due first, and it must already be
// waiting in its inbox when the slow one arrives. Unlike an upper bound
// on wall time, this order check does not fail when the host runs late:
// only if the two sends, one statement apart, lie 19 ms apart.
func TestNetworkDelays(t *testing.T) {
	net := NewNetwork(2)
	defer net.Close()
	net.SetLinkDelay(0, 1, 1*time.Millisecond)
	net.SetLinkDelay(1, 0, 20*time.Millisecond)
	start := time.Now()
	net.Port(1).Send(0, "slow link")
	net.Port(0).Send(1, "fast link")
	recvOne(t, net.Port(0))
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Errorf("slow link delay not applied: %v", d)
	}
	select {
	case env := <-net.Port(1).Inbox():
		if env.Payload != "fast link" {
			t.Errorf("fast link delivered %v", env.Payload)
		}
	default:
		t.Error("fast link message not delivered before the slow one")
	}
}

func TestNetworkCloseIdempotentAndClosesInboxes(t *testing.T) {
	net := NewNetwork(1)
	net.Close()
	net.Close() // must not panic
	if _, ok := <-net.Port(0).Inbox(); ok {
		t.Error("inbox should be closed")
	}
	net.Port(0).Send(0, "late") // dropped, no panic
}

func TestNetworkOutOfRangeDestination(t *testing.T) {
	net := NewNetwork(1)
	defer net.Close()
	net.Port(0).Send(5, "nowhere")  // dropped
	net.Port(0).Send(-1, "nowhere") // dropped
}

func TestBroadcastHelpers(t *testing.T) {
	net := NewNetwork(4)
	defer net.Close()
	dst := core.NewSet(1, 2, 3)
	Broadcast(net.Port(0), dst, "hi")
	for _, id := range dst.Members() {
		if env := recvOne(t, net.Port(id)); env.Payload != "hi" || env.Hop != 0 {
			t.Errorf("proc %d: got %+v", id, env)
		}
	}
}

func TestTCPNodeRoundTrip(t *testing.T) {
	Register("")
	addrs := map[core.ProcessID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	n0, err := NewTCPNode(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	addrs[0] = n0.Addr()
	n1, err := NewTCPNode(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	addrs[1] = n1.Addr()
	// Both hosts share the addrs map, so node 0's dial table already
	// points at node 1's real address (links resolve lazily on first
	// send).

	n0.SendHop(1, "over tcp", 7)
	env := recvOne(t, n1)
	if env.Payload != "over tcp" || env.From != 0 || env.Hop != 7 {
		t.Errorf("unexpected envelope %+v", env)
	}
	n1.Send(0, "reply")
	if env := recvOne(t, n0); env.Payload != "reply" {
		t.Errorf("unexpected reply %+v", env)
	}
}

func TestTCPNodeErrors(t *testing.T) {
	if _, err := NewTCPNode(0, map[core.ProcessID]string{1: "x"}); err == nil {
		t.Error("missing own address should error")
	}
	n, err := NewTCPNode(0, map[core.ProcessID]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	n.Send(9, "unknown peer") // swallowed
	n.Close()
	n.Send(0, "after close") // swallowed
	n.Close()                // idempotent
}

// TestNetworkSelfBroadcastFullInboxNoDeadlock pins the spill path: a
// protocol loop that broadcasts to a set including itself while its
// own inbox is full must not deadlock (the sender used to block on
// its own channel holding the shard lock — with itself as the only
// consumer — convoying every other sender to that shard behind it;
// the SMR inline replicas hit exactly this under the pipelined
// bench). Sends past inboxCap spill and must still arrive in FIFO
// order per link.
func TestNetworkSelfBroadcastFullInboxNoDeadlock(t *testing.T) {
	net := NewNetwork(2)
	defer net.Close()
	p := net.Port(0)
	self := core.NewSet(0, 1)
	total := inboxCap + 512
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			p.Broadcast(self, i, 0) // includes self; nobody draining yet
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("self-broadcast deadlocked on a full inbox")
	}
	for i := 0; i < total; i++ {
		if env := recvOne(t, p); env.Payload != i {
			t.Fatalf("port 0 envelope %d: got payload %v, want %d (FIFO across spill)", i, env.Payload, i)
		}
	}
	other := net.Port(1)
	for i := 0; i < total; i++ {
		if env := recvOne(t, other); env.Payload != i {
			t.Fatalf("port 1 envelope %d: got payload %v, want %d", i, env.Payload, i)
		}
	}
}

// TestNetworkSpillOrderAgainstFastPath drives one link through a
// spill episode and back to the fast path, checking no envelope
// overtakes the draining spill head: once a shard is spilling, later
// sends must queue behind it until the pump has emptied the queue.
func TestNetworkSpillOrderAgainstFastPath(t *testing.T) {
	net := NewNetwork(2)
	defer net.Close()
	src, dst := net.Port(0), net.Port(1)
	total := inboxCap + 256
	for i := 0; i < total; i++ { // fill past capacity: tail spills
		src.Send(1, i)
	}
	got := 0
	for ; got < total/2; got++ { // drain half, letting the pump run
		if env := recvOne(t, dst); env.Payload != got {
			t.Fatalf("envelope %d: got %v", got, env.Payload)
		}
	}
	for i := total; i < total+64; i++ { // more sends race the pump
		src.Send(1, i)
	}
	for ; got < total+64; got++ {
		if env := recvOne(t, dst); env.Payload != got {
			t.Fatalf("envelope %d: got %v (fast path overtook the spill)", got, env.Payload)
		}
	}
}
