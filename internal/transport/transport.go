// Package transport provides the message-passing substrate of the paper's
// model (Sections 3.1 and 4.1): point-to-point channels between processes,
// with controllable synchrony.
//
// The in-memory Network supports per-link delays, message drops, holds and
// releases, and process crashes. Holds and releases are what let the test
// suite and the lower-bound experiments replay the paper's proof schedules
// (Figures 8 and 16) deterministically. A TCP transport with the same Port
// interface backs the demo binaries.
//
// The data plane is built for contention: routing state (delays, crashes,
// filter) lives in an immutable snapshot read without locking, delivery
// serializes only on a per-destination inbox lock, and delayed messages
// share one timer queue instead of a goroutine each. Zero-delay sends —
// the protocols' common case — touch no global mutex at all.
package transport

import (
	"container/heap"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/core"
)

// Message is a protocol payload. Protocol packages define concrete types.
type Message any

// Envelope carries a payload between two processes. Hop is the logical
// message-delay depth used to measure consensus latency exactly: a message
// sent in reaction to an envelope with hop h carries hop h+1.
type Envelope struct {
	From    core.ProcessID
	To      core.ProcessID
	Hop     int
	Payload Message

	// arena, when non-nil, is the receive arena the payload was decoded
	// into (TCP zero-copy path); the envelope holds one reference on it.
	arena *recvArena
}

// Release hands the envelope's share of its decode arena back to the
// transport. Consumers call it once they are done with the payload —
// including any string or []byte reachable from it, which may alias
// arena memory that is recycled for later frames. Releasing is
// idempotent per envelope (the handle is cleared), optional (an
// unreleased arena is simply garbage collected instead of recycled),
// and a no-op for envelopes from paths that don't use arenas.
func (e *Envelope) Release() {
	if a := e.arena; a != nil {
		e.arena = nil
		a.release()
	}
}

// Aliased reports whether the payload may alias transport-owned memory
// that is recycled on Release. A consumer retaining any string or byte
// slice from such a payload beyond Release must copy it first.
func (e *Envelope) Aliased() bool { return e.arena != nil }

// Verdict is a filter's decision about an in-flight envelope.
type Verdict int

// Filter verdicts.
const (
	Deliver Verdict = iota // deliver normally
	Drop                   // silently discard (lossy channels, §4.1)
	Hold                   // park until released (asynchrony scripting)
)

// Filter inspects an envelope before delivery.
type Filter func(Envelope) Verdict

// Injector is a per-link fault-injection hook consulted on every send.
// Decide returns the fate of one envelope travelling from→to: drop it,
// delay it by some duration, and/or deliver dup extra copies (each copy
// subject to the same delay). Both transports accept the same interface,
// so one scripted fault plan drives the in-memory Network and the TCP
// session layer identically.
//
// Implementations must be safe for concurrent use: transports invoke
// Decide from arbitrary sender goroutines without serialization. The
// canonical implementation is internal/chaos.Script, which matches this
// interface structurally so that neither package imports the other.
type Injector interface {
	Decide(from, to core.ProcessID) (drop bool, delay time.Duration, dup int)
}

// Port is one process's attachment to a network.
type Port interface {
	// ID returns the process ID this port belongs to.
	ID() core.ProcessID
	// Send dispatches a payload to another process with hop depth 0.
	Send(to core.ProcessID, payload Message)
	// SendHop dispatches a payload with an explicit hop depth.
	SendHop(to core.ProcessID, payload Message, hop int)
	// SendBatch dispatches a burst of payloads to one destination, all
	// with the same hop depth, preserving order. It is len(payloads)
	// SendHop calls, which is how both transports implement it; port
	// wrappers (benchmark/trace.go) still forward it.
	SendBatch(to core.ProcessID, payloads []Message, hop int)
	// Broadcast dispatches payload to every process in dst with the
	// given hop depth. Semantically it equals one SendHop per member;
	// transports amortize the per-message acceptance overhead across
	// the fan-out.
	Broadcast(dst core.Set, payload Message, hop int)
	// Inbox returns the channel of incoming envelopes. It is closed when
	// the network shuts down.
	Inbox() <-chan Envelope
}

// inboxCap bounds each inbox. Protocol loops drain promptly; the capacity
// only smooths bursts (e.g. a broadcast landing on one process).
const inboxCap = 4096

// netConfig is the immutable routing snapshot read lock-free on every
// dispatch. Mutators copy it, change the copy, and swap the pointer.
type netConfig struct {
	filter  Filter
	inj     Injector
	delay   time.Duration
	linkDly []time.Duration // flat n×n, -1 = no override; nil when unused
	crashed core.Set
}

// inboxShardHot is the state a delivery actually touches: the inbox
// channel and the lock that serializes sends against Close, laid out
// contiguously so one shard's hot path stays within one cache line.
type inboxShardHot struct {
	mu      sync.Mutex
	closed  bool
	pumping bool // a pump goroutine owns the spill queue
	ch      chan Envelope
	spill   []Envelope // FIFO overflow past inboxCap, drained by pump
}

// inboxShard is one destination's delivery endpoint. The computed
// padding rounds each shard up to 128 bytes — a cache-line pair, so
// neighboring shards stay out of each other's line even with the
// adjacent-line prefetcher pulling pairs — and cannot go stale if the
// hot struct grows.
type inboxShard struct {
	inboxShardHot
	_ [(128 - unsafe.Sizeof(inboxShardHot{})%128) % 128]byte
}

// Network is an in-memory network connecting n processes.
// The zero value is not usable; use NewNetwork.
type Network struct {
	n      int
	closed atomic.Bool
	cfg    atomic.Pointer[netConfig]
	shards []inboxShard

	// sendMu gates message acceptance: dispatch holds it shared while
	// checking closed and registering with inflight, Close holds it
	// exclusively once to flush in-progress accepts. Senders never
	// contend with each other on it.
	sendMu sync.RWMutex

	// mu guards configuration writes and the held list; it is never
	// taken on the delivery fast path.
	mu   sync.Mutex
	held []Envelope

	// filterMu serializes filter invocations, preserving the old
	// guarantee that a stateful filter closure never runs concurrently.
	filterMu sync.Mutex

	inflight sync.WaitGroup
	timers   timerQueue
}

// NewNetwork creates a network for processes 0..n-1 with instant delivery
// and no faults.
func NewNetwork(n int) *Network {
	net := &Network{
		n:      n,
		shards: make([]inboxShard, n),
	}
	for i := range net.shards {
		net.shards[i].ch = make(chan Envelope, inboxCap)
	}
	net.cfg.Store(&netConfig{})
	net.timers.start(net)
	return net
}

// N returns the number of attached processes.
func (net *Network) N() int { return net.n }

// Port returns the port of process id.
func (net *Network) Port(id core.ProcessID) Port {
	return &memPort{net: net, id: id}
}

// updateCfg applies f to a copy of the routing snapshot and publishes it.
func (net *Network) updateCfg(f func(*netConfig)) {
	net.mu.Lock()
	defer net.mu.Unlock()
	c := *net.cfg.Load()
	if c.linkDly != nil {
		c.linkDly = append([]time.Duration(nil), c.linkDly...)
	}
	f(&c)
	net.cfg.Store(&c)
}

// SetFilter installs a delivery filter. Passing nil restores plain
// delivery. Filter invocations are serialized, but the filter must not
// call back into the network.
func (net *Network) SetFilter(f Filter) {
	net.updateCfg(func(c *netConfig) { c.filter = f })
}

// SetInjector installs a fault injector consulted on every send, after
// the filter and on top of any configured delays. Passing nil removes
// it; with no injector installed the dispatch paths are unchanged (the
// nil check rides on the routing snapshot that is loaded anyway).
func (net *Network) SetInjector(inj Injector) {
	net.updateCfg(func(c *netConfig) { c.inj = inj })
}

// SetDelay sets the uniform link delay; per-link delays take precedence.
func (net *Network) SetDelay(d time.Duration) {
	net.updateCfg(func(c *netConfig) { c.delay = d })
}

// SetLinkDelay overrides the delay of the from→to link.
func (net *Network) SetLinkDelay(from, to core.ProcessID, d time.Duration) {
	if from < 0 || from >= net.n || to < 0 || to >= net.n {
		return
	}
	net.updateCfg(func(c *netConfig) {
		if c.linkDly == nil {
			c.linkDly = make([]time.Duration, net.n*net.n)
			for i := range c.linkDly {
				c.linkDly[i] = -1
			}
		}
		c.linkDly[from*net.n+to] = d
	})
}

// Crash disconnects a process: all messages to and from it are dropped
// from now on. This models a crash at the network boundary; the process's
// goroutine may keep running but becomes invisible.
func (net *Network) Crash(id core.ProcessID) {
	net.updateCfg(func(c *netConfig) { c.crashed = c.crashed.Add(id) })
}

// Restart reconnects a previously crashed process: messages to and from
// it flow again. It models the recovered process rejoining at the
// network boundary; envelopes dropped while it was crashed stay dropped.
func (net *Network) Restart(id core.ProcessID) {
	net.updateCfg(func(c *netConfig) { c.crashed = c.crashed.Remove(id) })
}

// Crashed returns the set of crashed processes.
func (net *Network) Crashed() core.Set {
	return net.cfg.Load().crashed
}

// ReleaseHeld re-injects every held envelope matching the predicate
// (nil matches all). Released envelopes are re-filtered, so a filter that
// still says Hold will park them again.
func (net *Network) ReleaseHeld(match func(Envelope) bool) {
	net.mu.Lock()
	var release []Envelope
	var keep []Envelope
	for _, env := range net.held {
		if match == nil || match(env) {
			release = append(release, env)
		} else {
			keep = append(keep, env)
		}
	}
	net.held = keep
	net.mu.Unlock()
	for _, env := range release {
		net.dispatch(env)
	}
}

// HeldCount returns the number of parked envelopes.
func (net *Network) HeldCount() int {
	net.mu.Lock()
	defer net.mu.Unlock()
	return len(net.held)
}

// Close shuts the network down: in-flight deliveries (including delayed
// ones) finish, inboxes are closed, later sends are dropped.
func (net *Network) Close() {
	if net.closed.Swap(true) {
		return
	}
	// Exclude in-progress accept sections: any dispatch that saw the
	// network open has registered with inflight (and scheduled its
	// timer entry) by the time the exclusive lock is granted; any later
	// dispatch observes closed and bails.
	net.sendMu.Lock()
	net.sendMu.Unlock() //nolint:staticcheck // empty critical section is the point
	net.inflight.Wait()
	for i := range net.shards {
		s := &net.shards[i]
		s.mu.Lock()
		s.closed = true
		close(s.ch)
		s.mu.Unlock()
	}
	net.timers.stop()
}

// dispatch routes an envelope through crash state, the filter and delays.
// The common path — no filter, no delay, network open — reads one atomic
// snapshot and takes only the destination shard's lock.
func (net *Network) dispatch(env Envelope) {
	if env.To < 0 || env.To >= net.n {
		return
	}
	net.sendMu.RLock()
	if net.closed.Load() {
		net.sendMu.RUnlock()
		return
	}
	cfg := net.cfg.Load()
	if cfg.crashed.Contains(env.From) || cfg.crashed.Contains(env.To) {
		net.sendMu.RUnlock()
		return
	}
	if cfg.filter != nil {
		net.filterMu.Lock()
		v := cfg.filter(env)
		net.filterMu.Unlock()
		switch v {
		case Drop:
			net.sendMu.RUnlock()
			return
		case Hold:
			net.mu.Lock()
			net.held = append(net.held, env)
			net.mu.Unlock()
			net.sendMu.RUnlock()
			return
		}
	}
	d := cfg.delay
	if cfg.linkDly != nil && env.From >= 0 && env.From < net.n {
		if ld := cfg.linkDly[env.From*net.n+env.To]; ld >= 0 {
			d = ld
		}
	}
	copies := 1
	if cfg.inj != nil {
		drop, extra, dup := cfg.inj.Decide(env.From, env.To)
		if drop {
			net.sendMu.RUnlock()
			return
		}
		d += extra
		if dup > 0 {
			copies += dup
		}
	}
	// Register with inflight (and the timer heap) before releasing the
	// accept gate, so Close's Wait provably covers this message.
	net.inflight.Add(copies)
	if d <= 0 {
		net.sendMu.RUnlock()
		for i := 0; i < copies; i++ {
			net.deliver(env) // never blocks: a full inbox spills to the pump
		}
		return
	}
	when := time.Now().Add(d)
	for i := 0; i < copies; i++ {
		net.timers.schedule(when, env)
	}
	net.sendMu.RUnlock()
}

// batchable reports whether the routing snapshot lets a broadcast take
// the batched fast path: plain delivery only. Filters and injectors
// must see envelopes one at a time, delays schedule per envelope, and
// crashes need the per-envelope from/to check, so any of those falls
// back to dispatch.
func batchable(cfg *netConfig) bool {
	return cfg.filter == nil && cfg.inj == nil && cfg.delay <= 0 && cfg.linkDly == nil && cfg.crashed == 0
}

// dispatchBroadcast routes one payload to every member of dst under a
// single accept-gate acquisition (the per-destination shard lock is
// taken once each — every destination receives exactly one envelope).
// Scripting state degrades to per-envelope dispatch.
func (net *Network) dispatchBroadcast(from core.ProcessID, dst core.Set, payload Message, hop int) {
	net.sendMu.RLock()
	if net.closed.Load() {
		net.sendMu.RUnlock()
		return
	}
	cfg := net.cfg.Load()
	if !batchable(cfg) {
		net.sendMu.RUnlock()
		for v := uint64(dst); v != 0; v &= v - 1 {
			net.dispatch(Envelope{From: from, To: bits.TrailingZeros64(v), Hop: hop, Payload: payload})
		}
		return
	}
	// Mask off out-of-range destinations once, so the count and the
	// delivery loop iterate exactly the same bits.
	m := uint64(dst)
	if net.n < 64 {
		m &= 1<<uint(net.n) - 1
	}
	targets := bits.OnesCount64(m)
	if targets == 0 {
		net.sendMu.RUnlock()
		return
	}
	net.inflight.Add(targets)
	net.sendMu.RUnlock()
	for v := m; v != 0; v &= v - 1 {
		to := bits.TrailingZeros64(v)
		s := &net.shards[to]
		s.mu.Lock()
		transferred := false
		if !s.closed {
			transferred = net.put(s, Envelope{From: from, To: to, Hop: hop, Payload: payload})
		}
		s.mu.Unlock()
		if !transferred {
			net.inflight.Done()
		}
	}
}

// put hands env to a shard's inbox without ever blocking the sender.
// The fast path is the buffered channel; a full inbox — or one
// already spilling, which is what keeps per-link FIFO — appends to
// the spill queue, delivered in order by a pump goroutine. The
// model's channels are reliable and unbounded (§3.1); a bounded
// channel plus an unbounded spill implements exactly that, and never
// blocking is what makes self-delivery safe: a protocol loop that
// broadcasts to a set including itself would otherwise deadlock
// against its own full inbox while holding this shard's lock,
// convoying every other sender to the same shard behind it. Callers
// hold s.mu; the return value reports that the envelope's inflight
// reference was transferred to the pump.
func (net *Network) put(s *inboxShard, env Envelope) bool {
	if len(s.spill) == 0 {
		select {
		case s.ch <- env:
			return false
		default:
		}
	}
	s.spill = append(s.spill, env)
	if !s.pumping {
		s.pumping = true
		go net.pump(s)
	}
	return true
}

// pump drains a shard's spill queue into its inbox channel in FIFO
// order. The head stays in the queue while the pump blocks on the
// channel, so concurrent put calls keep appending behind it instead
// of racing past it through the fast path. Blocking without the lock
// is safe: the pump holds the spilled envelopes' inflight references,
// and Close closes inbox channels only after inflight drains — which
// also means the queue cannot be abandoned non-empty by a close.
func (net *Network) pump(s *inboxShard) {
	s.mu.Lock()
	for len(s.spill) > 0 && !s.closed {
		env := s.spill[0]
		select {
		case s.ch <- env:
		default:
			s.mu.Unlock()
			s.ch <- env
			s.mu.Lock()
		}
		s.spill[0] = Envelope{}
		s.spill = s.spill[1:]
		net.inflight.Done()
	}
	for i := range s.spill { // only reachable if closed raced in
		s.spill[i] = Envelope{}
		net.inflight.Done()
	}
	s.spill = nil
	s.pumping = false
	s.mu.Unlock()
}

// deliver hands the envelope to its destination inbox via put;
// channels are reliable in the model (§3.1), never lossy. A shard
// that closed while the message was in flight drops it silently.
func (net *Network) deliver(env Envelope) {
	s := &net.shards[env.To]
	s.mu.Lock()
	transferred := false
	if !s.closed {
		transferred = net.put(s, env)
	}
	s.mu.Unlock()
	if !transferred {
		net.inflight.Done()
	}
}

// timerQueue delivers delayed envelopes from a single goroutine fed by a
// deadline min-heap, replacing the previous goroutine-per-message
// scheme. Ties on the deadline preserve enqueue order.
type timerQueue struct {
	mu     sync.Mutex
	h      delayHeap
	seq    uint64
	wake   chan struct{}
	stopCh chan struct{}
}

type delayedEnv struct {
	when time.Time
	seq  uint64
	env  Envelope
}

type delayHeap []delayedEnv

func (h delayHeap) Len() int { return len(h) }
func (h delayHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}
func (h delayHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *delayHeap) Push(x any)   { *h = append(*h, x.(delayedEnv)) }
func (h *delayHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

func (tq *timerQueue) start(net *Network) {
	tq.wake = make(chan struct{}, 1)
	tq.stopCh = make(chan struct{})
	go tq.run(net)
}

func (tq *timerQueue) schedule(when time.Time, env Envelope) {
	tq.mu.Lock()
	tq.seq++
	heap.Push(&tq.h, delayedEnv{when: when, seq: tq.seq, env: env})
	earliest := tq.h[0].when == when && tq.h[0].seq == tq.seq
	tq.mu.Unlock()
	if earliest {
		select {
		case tq.wake <- struct{}{}:
		default:
		}
	}
}

func (tq *timerQueue) stop() { close(tq.stopCh) }

func (tq *timerQueue) run(net *Network) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		tq.mu.Lock()
		now := time.Now()
		var due []Envelope
		for len(tq.h) > 0 && !tq.h[0].when.After(now) {
			due = append(due, heap.Pop(&tq.h).(delayedEnv).env)
		}
		var next time.Duration = time.Hour
		if len(tq.h) > 0 {
			next = tq.h[0].when.Sub(now)
		}
		tq.mu.Unlock()
		for _, env := range due {
			// deliver never blocks the queue on one slow destination:
			// a full inbox spills to the shard's pump instead of
			// head-of-line-blocking every other delayed message.
			net.deliver(env)
		}
		if len(due) > 0 {
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(next)
		select {
		case <-tq.wake:
		case <-timer.C:
		case <-tq.stopCh:
			return
		}
	}
}

type memPort struct {
	net *Network
	id  core.ProcessID
}

var _ Port = (*memPort)(nil)

func (p *memPort) ID() core.ProcessID { return p.id }

func (p *memPort) Send(to core.ProcessID, payload Message) {
	p.SendHop(to, payload, 0)
}

func (p *memPort) SendHop(to core.ProcessID, payload Message, hop int) {
	p.net.dispatch(Envelope{From: p.id, To: to, Hop: hop, Payload: payload})
}

func (p *memPort) SendBatch(to core.ProcessID, payloads []Message, hop int) {
	for _, pl := range payloads {
		p.SendHop(to, pl, hop)
	}
}

func (p *memPort) Broadcast(dst core.Set, payload Message, hop int) {
	p.net.dispatchBroadcast(p.id, dst, payload, hop)
}

func (p *memPort) Inbox() <-chan Envelope {
	return p.net.shards[p.id].ch
}

// Broadcast sends payload from port to each process in dst with hop
// depth 0, through the transport's batched fan-out path.
func Broadcast(p Port, dst core.Set, payload Message) {
	p.Broadcast(dst, payload, 0)
}

// BroadcastHop sends payload with an explicit hop depth to each process
// in dst, through the transport's batched fan-out path.
func BroadcastHop(p Port, dst core.Set, payload Message, hop int) {
	p.Broadcast(dst, payload, hop)
}
