package transport_test

import (
	"bytes"
	"encoding/gob"
	"net"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/transport"
)

// benchPayload is the protocols' hot message shape (a round-2 WriteReq
// with its class-2 quorum certificate).
func benchPayload() storage.WriteReq {
	return storage.WriteReq{
		TS:    12345,
		Val:   "benchmark-value",
		Sets:  []core.Set{core.NewSet(0, 1, 2, 3), core.NewSet(1, 2, 4, 5)},
		Round: 2,
	}
}

func benchTCPPair(b testing.TB) (*transport.TCPNode, *transport.TCPNode) {
	b.Helper()
	transport.Register(storage.WriteReq{})
	addrs := map[core.ProcessID]string{0: "127.0.0.1:0", 1: "127.0.0.1:0"}
	n0, err := transport.NewTCPNode(0, addrs)
	if err != nil {
		b.Fatal(err)
	}
	addrs[0] = n0.Addr()
	n1, err := transport.NewTCPNode(1, addrs)
	if err != nil {
		n0.Close()
		b.Fatal(err)
	}
	addrs[1] = n1.Addr()
	return n0, n1
}

// BenchmarkTCPVsMemory compares the framed TCP transport against the
// in-memory Network and against the seed's gob-over-TCP codec on the
// same payload: one round trip per op (latency) and one one-way
// message per op (throughput). Results feed `rqs-bench -json` and the
// BENCH_RESULTS.json regression gate.
func BenchmarkTCPVsMemory(b *testing.B) {
	payload := benchPayload()

	b.Run("roundtrip/tcp", func(b *testing.B) {
		n0, n1 := benchTCPPair(b)
		defer n0.Close()
		defer n1.Close()
		go func() {
			// Reply with an echoer-owned payload: the received one
			// aliases a receive arena that recycles on Release, and the
			// send path encodes asynchronously.
			reply := benchPayload()
			for env := range n1.Inbox() {
				env.Release()
				n1.Send(env.From, reply)
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n0.Send(1, payload)
			env := <-n0.Inbox()
			env.Release()
		}
	})

	b.Run("roundtrip/memory", func(b *testing.B) {
		net := transport.NewNetwork(2)
		defer net.Close()
		p0, p1 := net.Port(0), net.Port(1)
		go func() {
			for env := range p1.Inbox() {
				p1.Send(env.From, env.Payload)
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p0.Send(1, payload)
			<-p0.Inbox()
		}
	})

	b.Run("roundtrip/gob-baseline", func(b *testing.B) {
		benchGobRoundTrip(b, payload)
	})

	b.Run("throughput/tcp", func(b *testing.B) {
		n0, n1 := benchTCPPair(b)
		defer n0.Close()
		defer n1.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < b.N; i++ {
				env := <-n1.Inbox()
				env.Release()
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n0.Send(1, payload)
		}
		<-done
	})

	b.Run("throughput/gob-baseline", func(b *testing.B) {
		benchGobThroughput(b, payload)
	})

	b.Run("throughput/memory", func(b *testing.B) {
		net := transport.NewNetwork(2)
		defer net.Close()
		p0, p1 := net.Port(0), net.Port(1)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < b.N; i++ {
				<-p1.Inbox()
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p0.Send(1, payload)
		}
		<-done
	})
}

// gobNode reproduces the seed TCPNode's architecture faithfully — a
// mutex-guarded gob.Encoder per outgoing conn, a read goroutine
// decoding into an inbox channel — so the baseline differs from the
// framed transport only in codec and conn management, not in shape.
type gobNode struct {
	mu    sync.Mutex
	enc   *gob.Encoder
	inbox chan transport.Envelope
}

func (g *gobNode) send(env *transport.Envelope) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.enc.Encode(env)
}

// newGobPair wires two gobNodes with one TCP conn per direction, as
// the seed's dial-per-destination scheme did.
func newGobPair(b *testing.B) (*gobNode, *gobNode, func()) {
	b.Helper()
	gob.Register(storage.WriteReq{})
	nodes := [2]*gobNode{
		{inbox: make(chan transport.Envelope, 4096)},
		{inbox: make(chan transport.Envelope, 4096)},
	}
	var lns [2]net.Listener
	var conns []net.Conn
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		lns[i] = ln
	}
	for i := range lns {
		i := i
		go func() {
			conn, err := lns[i].Accept()
			if err != nil {
				return
			}
			dec := gob.NewDecoder(conn)
			for {
				var env transport.Envelope
				if dec.Decode(&env) != nil {
					return
				}
				nodes[i].inbox <- env
			}
		}()
		conn, err := net.Dial("tcp", lns[1-i].Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		conns = append(conns, conn)
		nodes[i].enc = gob.NewEncoder(conn)
	}
	cleanup := func() {
		for _, c := range conns {
			_ = c.Close()
		}
		for _, ln := range lns {
			_ = ln.Close()
		}
	}
	return nodes[0], nodes[1], cleanup
}

func benchGobRoundTrip(b *testing.B, payload storage.WriteReq) {
	n0, n1, cleanup := newGobPair(b)
	defer cleanup()
	go func() {
		for env := range n1.inbox {
			if n1.send(&env) != nil {
				return
			}
		}
	}()
	env := transport.Envelope{From: 0, To: 1, Payload: payload}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n0.send(&env); err != nil {
			b.Fatal(err)
		}
		<-n0.inbox
	}
}

func benchGobThroughput(b *testing.B, payload storage.WriteReq) {
	n0, n1, cleanup := newGobPair(b)
	defer cleanup()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			<-n1.inbox
		}
	}()
	env := transport.Envelope{From: 0, To: 1, Payload: payload}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n0.send(&env); err != nil {
			b.Fatal(err)
		}
	}
	<-done
}

// BenchmarkCodecVsGob isolates the codec cost (no sockets): encode one
// envelope and decode it back, framed codec versus gob.
func BenchmarkCodecVsGob(b *testing.B) {
	payload := benchPayload()
	b.Run("framed", func(b *testing.B) {
		transport.Register(storage.WriteReq{})
		env := transport.Envelope{From: 0, To: 1, Payload: payload}
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = transport.EncodeEnvelope(buf[:0], env); err != nil {
				b.Fatal(err)
			}
			if _, err := transport.DecodeEnvelope(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gob", func(b *testing.B) {
		gob.Register(storage.WriteReq{})
		// Persistent encoder/decoder over one stream, so gob's
		// per-connection type dictionary is amortized as in the seed.
		var stream bytes.Buffer
		enc := gob.NewEncoder(&stream)
		dec := gob.NewDecoder(&stream)
		env := transport.Envelope{From: 0, To: 1, Payload: payload}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(&env); err != nil {
				b.Fatal(err)
			}
			var back transport.Envelope
			if err := dec.Decode(&back); err != nil {
				b.Fatal(err)
			}
		}
	})
}
