package transport

import (
	"net"
	"testing"
	"time"

	"repro/internal/core"
)

// networkCluster adapts the in-memory Network to the conformance
// suite. It cannot model a process restart (ports are permanent), so
// Stop reports false and restart cases are skipped.
type networkCluster struct {
	net *Network
}

func (c *networkCluster) Port(id core.ProcessID) Port { return c.net.Port(id) }
func (c *networkCluster) Stop(core.ProcessID) bool    { return false }
func (c *networkCluster) Start(core.ProcessID)        {}
func (c *networkCluster) Close()                      { c.net.Close() }
func (c *networkCluster) SetInjector(inj Injector)    { c.net.SetInjector(inj) }

func TestConformanceNetwork(t *testing.T) {
	Conformance(t, func(t *testing.T, n int) ConformanceCluster {
		return &networkCluster{net: NewNetwork(n)}
	})
}

// tcpCluster runs one TCPNode per process on loopback. Addresses are
// resolved as nodes bind (":0"), and a restarted node re-binds its old
// address, exactly like a demo client process reusing its slot.
type tcpCluster struct {
	t     *testing.T
	addrs map[core.ProcessID]string
	nodes []*TCPNode
}

func newTCPCluster(t *testing.T, n int) *tcpCluster {
	t.Helper()
	c := &tcpCluster{t: t, addrs: make(map[core.ProcessID]string, n), nodes: make([]*TCPNode, n)}
	for i := 0; i < n; i++ {
		c.addrs[i] = "127.0.0.1:0"
	}
	for i := 0; i < n; i++ {
		node, err := NewTCPNode(i, c.addrs)
		if err != nil {
			c.Close()
			t.Fatalf("node %d: %v", i, err)
		}
		c.nodes[i] = node
		c.addrs[i] = node.Addr()
	}
	return c
}

func (c *tcpCluster) Port(id core.ProcessID) Port { return c.nodes[id] }

func (c *tcpCluster) Stop(id core.ProcessID) bool {
	c.nodes[id].Close()
	return true
}

func (c *tcpCluster) Start(id core.ProcessID) {
	node, err := NewTCPNode(id, c.addrs) // addrs[id] is the concrete old address
	if err != nil {
		c.t.Fatalf("restart node %d: %v", id, err)
	}
	c.nodes[id] = node
}

func (c *tcpCluster) Close() {
	for _, node := range c.nodes {
		if node != nil {
			node.Close()
		}
	}
}

func (c *tcpCluster) SetInjector(inj Injector) {
	for _, node := range c.nodes {
		if node != nil {
			node.h.SetInjector(inj)
		}
	}
}

func TestConformanceTCP(t *testing.T) {
	Conformance(t, func(t *testing.T, n int) ConformanceCluster {
		return newTCPCluster(t, n)
	})
}

// TestConformanceTCPDurable and TestConformanceTCPSharedSessionsDurable
// cover the hosts under durable storage servers. A host keeps no state
// on disk, so those are the same hosts as everywhere else and these
// runs use the volatile clusters: a durable server gets exactly the
// at-least-once restart contract its volatile twin gets.
func TestConformanceTCPDurable(t *testing.T) {
	Conformance(t, func(t *testing.T, n int) ConformanceCluster {
		return newTCPCluster(t, n)
	})
}

// tcpSharedCluster runs the conformance suite in shared-session mode:
// process 1 is its own host, and ALL other logical processes are
// colocated on one host — so every suite case that talks to process 1
// multiplexes the traffic of n-1 logical nodes over a single TCP
// session, and traffic among the colocated processes takes the
// in-process path. Stop/Start model a restart of process 1's host
// (the only process the suite restarts).
type tcpSharedCluster struct {
	t      *testing.T
	addrs  map[core.ProcessID]string
	shared *TCPHost
	solo   *TCPNode // process 1, restartable
	nodes  map[core.ProcessID]*TCPNode
}

func newTCPSharedCluster(t *testing.T, n int) *tcpSharedCluster {
	t.Helper()
	c := &tcpSharedCluster{
		t:     t,
		addrs: make(map[core.ProcessID]string, n),
		nodes: make(map[core.ProcessID]*TCPNode, n),
	}
	shared, err := NewTCPHost("127.0.0.1:0", c.addrs)
	if err != nil {
		t.Fatal(err)
	}
	c.shared = shared
	for id := 0; id < n; id++ {
		if id == 1 {
			continue
		}
		c.addrs[id] = shared.Addr()
		node, err := shared.Node(id)
		if err != nil {
			c.Close()
			t.Fatalf("node %d: %v", id, err)
		}
		c.nodes[id] = node
	}
	if n > 1 {
		c.addrs[1] = "127.0.0.1:0"
		solo, err := NewTCPNode(1, c.addrs)
		if err != nil {
			c.Close()
			t.Fatalf("node 1: %v", err)
		}
		c.solo = solo
		c.nodes[1] = solo
		c.addrs[1] = solo.Addr()
	}
	return c
}

func (c *tcpSharedCluster) Port(id core.ProcessID) Port { return c.nodes[id] }

func (c *tcpSharedCluster) Stop(id core.ProcessID) bool {
	if id != 1 || c.solo == nil {
		return false // only the solo host models a restart here
	}
	c.solo.Close()
	return true
}

func (c *tcpSharedCluster) Start(id core.ProcessID) {
	solo, err := NewTCPNode(1, c.addrs) // addrs[1] is the concrete old address
	if err != nil {
		c.t.Fatalf("restart node 1: %v", err)
	}
	c.solo = solo
	c.nodes[1] = solo
}

func (c *tcpSharedCluster) Close() {
	c.shared.Close()
	if c.solo != nil {
		c.solo.Close()
	}
}

func (c *tcpSharedCluster) SetInjector(inj Injector) {
	c.shared.SetInjector(inj)
	if c.solo != nil {
		c.solo.h.SetInjector(inj)
	}
}

func TestConformanceTCPSharedSessions(t *testing.T) {
	Conformance(t, func(t *testing.T, n int) ConformanceCluster {
		return newTCPSharedCluster(t, n)
	})
}

func TestConformanceTCPSharedSessionsDurable(t *testing.T) {
	Conformance(t, func(t *testing.T, n int) ConformanceCluster {
		return newTCPSharedCluster(t, n)
	})
}

// TestTCPCloseWithFullInbox pins the readLoop shutdown race of the
// seed: a full inbox used to block the read goroutine on `inbox <-`
// forever, deadlocking Close's wg.Wait. Delivery now selects against
// the done channel.
func TestTCPCloseWithFullInbox(t *testing.T) {
	Register("")
	c := newTCPCluster(t, 2)
	defer c.Close()
	// Overflow node 0's inbox with nobody draining it.
	for i := 0; i < inboxCap+256; i++ {
		c.nodes[1].Send(0, "flood")
	}
	// Wait until the inbox is actually full, so the serve goroutine is
	// provably parked on the channel send.
	deadline := time.Now().Add(5 * time.Second)
	for len(c.nodes[0].inbox) < inboxCap {
		if time.Now().After(deadline) {
			t.Fatalf("inbox never filled: %d/%d", len(c.nodes[0].inbox), inboxCap)
		}
		time.Sleep(time.Millisecond)
	}
	done := make(chan struct{})
	go func() {
		c.nodes[0].Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked on a full inbox")
	}
}

// TestTCPStatsCountsDrops pins the Stats surface of the send-error
// path: unknown peers and post-Close sends are counted, not silent.
func TestTCPStatsCountsDrops(t *testing.T) {
	Register("")
	n, err := NewTCPNode(0, map[core.ProcessID]string{0: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	n.Send(9, "unknown peer")
	if s := n.Stats(); s.Drops != 1 {
		t.Errorf("Drops = %d after unknown-peer send, want 1", s.Drops)
	}
	n.Close()
	n.Send(0, "after close")
	if s := n.Stats(); s.Drops != 2 {
		t.Errorf("Drops = %d after post-close send, want 2", s.Drops)
	}
}

// TestTCPSendToDeadPeerNeverWedges pins the crash-stop liveness
// property: once the retransmission queue to a permanently dead peer
// is full, further sends drop (counted) after the bounded stall
// instead of blocking the protocol goroutine forever — the quorum
// protocols must keep making progress past dead servers.
func TestTCPSendToDeadPeerNeverWedges(t *testing.T) {
	Register("")
	deadAddr := reservedDeadAddr(t)
	n, err := NewTCPNode(0, map[core.ProcessID]string{0: "127.0.0.1:0", 1: deadAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < maxUnacked+2; i++ {
			n.Send(1, "into the void")
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("send to a dead peer wedged past the stall timeout")
	}
	if s := n.Stats(); s.Drops == 0 {
		t.Errorf("expected counted drops past the full queue, got stats %+v", s)
	}
}

// reservedDeadAddr returns a loopback address that refuses connections.
func reservedDeadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// TestTCPStatsNoLossAcrossRestart asserts the acceptance criterion
// directly at the transport level: every message sent across a peer
// restart is either delivered or still queued — never dropped.
func TestTCPStatsNoLossAcrossRestart(t *testing.T) {
	Register("")
	c := newTCPCluster(t, 2)
	defer c.Close()
	c.nodes[0].Send(1, "prime")
	conformanceRecv(t, c.nodes[1])
	// Wait for ack quiescence so "prime" is provably off the sender's
	// retransmission queue; otherwise its redelivery to the fresh
	// incarnation (legal at-least-once behaviour) skews the counts.
	deadline := time.Now().Add(5 * time.Second)
	for c.nodes[0].Stats().Queued != 0 {
		if time.Now().After(deadline) {
			t.Fatal("sender queue never drained")
		}
		time.Sleep(time.Millisecond)
	}
	c.Stop(1)
	const burst = 50
	for i := 0; i < burst; i++ {
		c.nodes[0].Send(1, "m")
	}
	c.Start(1)
	for i := 0; i < burst; i++ {
		conformanceRecv(t, c.nodes[1])
	}
	s0 := c.nodes[0].Stats()
	if s0.Drops != 0 {
		t.Errorf("sender dropped %d messages across restart", s0.Drops)
	}
	if s0.Sent != burst+1 {
		t.Errorf("Sent = %d, want %d", s0.Sent, burst+1)
	}
	if s1 := c.nodes[1].Stats(); s1.Delivered != burst {
		t.Errorf("restarted node delivered %d, want %d", s1.Delivered, burst)
	}
}
