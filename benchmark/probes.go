package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Probes: isolated timed calls into one layer's public API, on the
// message shapes of the workload being reported. They give the floor a
// layer puts under an op, free of queueing and of every other layer.

// probeFor is how long each probe loops.
const probeFor = 100 * time.Millisecond

// perCall runs f in batches for about d and returns ns per call.
func perCall(d time.Duration, f func()) float64 {
	const batch = 256
	n := 0
	t0 := time.Now()
	for time.Since(t0) < d {
		for i := 0; i < batch; i++ {
			f()
		}
		n += batch
	}
	return float64(time.Since(t0)) / float64(n)
}

// p50Of times f call by call for about d and returns the median in ns:
// for probes whose calls block (a round trip, an fsync), where a mean
// would mostly report the scheduler's and the disk's outliers.
func p50Of(d time.Duration, f func()) float64 {
	var lat []int64
	t0 := time.Now()
	for time.Since(t0) < d || len(lat) < 16 {
		s := time.Now()
		f()
		lat = append(lat, int64(time.Since(s)))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return float64(percentile(lat, 50))
}

var probeSink atomic.Int64 // keeps probe results observable

// probeCore times the two quorum-evaluation calls a client makes per
// round: feeding a tracker every server's reply until it contains a
// class-3 quorum, and the one-shot containment query.
func probeCore(rqs *core.RQS, rep *report) {
	tr := rqs.NewTracker()
	members := rqs.Universe().Members()
	rep.set("core.tracker_round_ns", plain(perCall(probeFor, func() {
		tr.Reset()
		for _, id := range members {
			if tr.Add(id) {
				if _, ok := tr.Contained(core.Class3); ok {
					break
				}
			}
		}
	})))
	responded := core.FullSet(rqs.N()).Remove(swmrCrashed)
	rep.set("core.contained_quorum_ns", plain(perCall(probeFor, func() {
		if _, ok := rqs.ContainedQuorum(responded, core.Class3); ok {
			probeSink.Add(1)
		}
	})))
}

// probeAuth times one HMAC signature and one verification over a body
// the size of a signed tag (key, tag, value digest).
func probeAuth(rqs *core.RQS, rep *report) {
	dep := kvAuth(rqs, 1)
	signer, verifier := dep.Signer(0), dep.Verifier()
	body := []byte(strings.Repeat("b", 64))
	sig := signer.Sign(body)
	rep.set("auth.hmac_sign_ns", plain(perCall(probeFor, func() { sig = signer.Sign(body) })))
	rep.set("auth.hmac_verify_ns", plain(perCall(probeFor, func() {
		if verifier.Verify(0, body, sig) {
			probeSink.Add(1)
		}
	})))
}

// echo answers every envelope on port with its own payload until the
// inbox closes.
func echo(port transport.Port, done chan<- struct{}) {
	defer close(done)
	for env := range port.Inbox() {
		port.Send(env.From, env.Payload)
		env.Release()
	}
}

// probeMemRTT is one request/reply over the in-memory Network: the
// single-hop floor under every op of the *-mem-* workloads.
func probeMemRTT() float64 {
	net := transport.NewNetwork(2)
	done := make(chan struct{})
	go echo(net.Port(1), done)
	p := net.Port(0)
	ns := p50Of(probeFor, func() {
		p.Send(1, storage.MWWriteAck{Seq: 1})
		env := <-p.Inbox()
		env.Release()
	})
	net.Close()
	<-done
	return ns
}

// probeTCPRTT is one request/reply between two loopback TCPHosts.
func probeTCPRTT() (us float64, err error) {
	sim.RegisterTCPStorageMessages()
	addrs := make(map[core.ProcessID]string, 2)
	var hosts []*transport.TCPHost
	defer func() {
		for _, h := range hosts {
			h.Close()
		}
	}()
	var nodes []*transport.TCPNode
	for id := 0; id < 2; id++ {
		h, err := transport.NewTCPHost("127.0.0.1:0", addrs)
		if err != nil {
			return 0, err
		}
		hosts = append(hosts, h)
		addrs[id] = h.Addr()
	}
	for id, h := range hosts {
		n, err := h.Node(id)
		if err != nil {
			return 0, err
		}
		nodes = append(nodes, n)
	}
	done := make(chan struct{})
	go echo(nodes[1], done)
	ns := p50Of(probeFor, func() {
		nodes[0].Send(1, storage.MWWriteAck{Seq: 1})
		env := <-nodes[0].Inbox()
		env.Release()
	})
	hosts[1].Close()
	<-done
	return ns / 1e3, nil
}

// probeCodec encodes and decodes the two value-carrying messages of a
// KV op (the read ack and the write request) and reports the mean cost
// and wire size per message.
func probeCodec(valueSize int, rep *report) error {
	sim.RegisterTCPStorageMessages()
	val := strings.Repeat("v", valueSize)
	msgs := []transport.Message{
		storage.MWReadAck{Seq: 1 << 40, Tag: storage.Tag{TS: 7, Writer: 9}, Val: val, Synced: true},
		storage.MWWriteReq{Seq: 1 << 40, Key: "k00042", Tag: storage.Tag{TS: 7, Writer: 9}, Val: val},
	}
	var buf []byte
	bytes := 0
	for _, m := range msgs {
		b, err := transport.EncodeMessage(buf[:0], m)
		if err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
		if _, err := transport.DecodeMessage(b); err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
		bytes += len(b)
	}
	ns := perCall(probeFor, func() {
		for _, m := range msgs {
			buf, _ = transport.EncodeMessage(buf[:0], m)
			if d, err := transport.DecodeMessage(buf); err == nil && d != nil {
				probeSink.Add(1)
			}
		}
	})
	rep.set("transport.codec_ns_per_msg", plain(ns/float64(len(msgs))))
	rep.set("transport.codec_bytes_per_msg", plain(float64(bytes)/float64(len(msgs))))
	return nil
}

// probeServer is one storage.Server alone on a memory port: request →
// ack for a read of a value-carrying register, minus the memory round
// trip it rides on. swmr selects the SWMR message shapes.
func probeServer(valueSize int, swmr bool, memRTT float64) float64 {
	net := transport.NewNetwork(2)
	srv := storage.NewServer(net.Port(0), storage.Hooks{})
	srv.Start()
	p := net.Port(1)
	val := strings.Repeat("v", valueSize)
	var req func(seq int64) transport.Message
	if swmr {
		p.Send(0, storage.WriteReq{TS: 1, Val: val, Round: 1})
		req = func(seq int64) transport.Message { return storage.ReadReq{ReadNo: seq, Round: 1} }
	} else {
		p.Send(0, storage.MWWriteReq{Seq: 1, Key: "k", Tag: storage.Tag{TS: 1, Writer: 1}, Val: val})
		req = func(seq int64) transport.Message { return storage.MWReadReq{Seq: seq, Key: "k"} }
	}
	first := <-p.Inbox()
	first.Release()
	seq := int64(1)
	ns := p50Of(probeFor, func() {
		seq++
		p.Send(0, req(seq))
		env := <-p.Inbox()
		env.Release()
	})
	net.Close()
	srv.Stop()
	if ns < memRTT {
		return 0 // the server's share is below the two probes' noise
	}
	return (ns - memRTT) / 1e3
}

// probeWAL is a standalone Log.Append + Sync of one 1 KiB record: the
// cost of a commit nobody shares.
func probeWAL(e *env) (us float64, err error) {
	dir, err := e.makeTemp()
	if err != nil {
		return 0, err
	}
	defer e.removeTemp(dir)
	l, err := wal.Open(filepath.Join(dir, "probe"), wal.Options{})
	if err != nil {
		return 0, fmt.Errorf("wal probe: %w", err)
	}
	defer l.Close()
	if err := l.Replay(func([]byte) error { return nil }, func([]byte) error { return nil }); err != nil {
		return 0, fmt.Errorf("wal probe: %w", err)
	}
	rec := []byte(strings.Repeat("w", 1024))
	ns := p50Of(2*probeFor, func() {
		l.Append(rec)
		if serr := l.Sync(); serr != nil {
			err = serr
		}
	})
	if err != nil {
		return 0, fmt.Errorf("wal probe: %w", err)
	}
	return ns / 1e3, nil
}

// probeHarness pushes a no-op through the same closed loop and
// recorder the workloads use: what the harness itself adds per op.
func probeHarness(clk clock) float64 {
	w := runClosed(clk, []loopFn{stepLoop(clk, func() {})}, 0, probeFor)
	if len(w.samples) == 0 {
		return 0
	}
	return w.seconds() * 1e9 / float64(len(w.samples))
}

// probes runs the probes of the layers this KV workload exercises.
func (s *kvSpec) probes(e *env, rep *report) error {
	probeCore(e.rqs, rep)
	if s.auth {
		probeAuth(e.rqs, rep)
	}
	memRTT := probeMemRTT()
	if s.tcp {
		us, err := probeTCPRTT()
		if err != nil {
			return err
		}
		rep.set("transport.tcp_rtt_us", plain(us))
		if err := probeCodec(s.valueSize, rep); err != nil {
			return err
		}
	} else {
		rep.set("transport.mem_rtt_ns", plain(memRTT))
	}
	rep.set("storage.server_probe_us", plain(probeServer(s.valueSize, false, memRTT)))
	if s.durable {
		us, err := probeWAL(e)
		if err != nil {
			return err
		}
		rep.set("wal.append_sync_probe_us", plain(us))
	}
	rep.set("bench.harness_ns_per_op", plain(probeHarness(e.clk)))
	return nil
}
