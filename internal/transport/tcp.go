package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// The TCP data plane is structured in two layers:
//
//   - TCPHost is one OS process's attachment to the fabric: one
//     listener plus ONE physical TCP session per remote process
//     (peerLink, keyed by the remote process's listen address). All
//     logical nodes hosted in the process share those sessions — the
//     retransmission queue, cumulative acks, piggybacking, keepalives
//     and redial machinery run once per process pair, and the logical
//     (from, to) pair already present in every envelope header does
//     the demultiplexing on the receive side.
//   - TCPNode is a light routing facade over its host: one logical
//     process with its own inbox. Creating many nodes on one host is
//     how a deployment colocates many logical clients per OS process
//     without opening O(clients × servers) sockets; socket count per
//     process pair stays O(1) no matter how many nodes either side
//     hosts.
//
// Envelopes travel as length-prefixed binary frames (codec.go);
// payload types must be registered with Register. Outgoing messages go
// through managed peer links (link.go) that redial and retransmit
// until the peer acknowledges delivery, giving the TCP path the
// reliable-channel semantics the paper's model assumes (§3.1) per
// *logical* link — a peer process may crash and restart at the same
// address without losing messages, and FIFO holds per (from, to) pair
// because each session is FIFO and assigns seqs under one lock.

// TCPHost is one process's shared TCP session layer: a listener, the
// per-remote-process links, and the logical nodes it hosts.
type TCPHost struct {
	addr  string // concrete listen address, announced in hellos
	ln    net.Listener
	addrs map[core.ProcessID]string // logical node → hosting process's address
	done  chan struct{}             // closed on Close; gates inbox delivery

	// nodes and routes are copy-on-write maps read lock-free on every
	// send: nodes resolves a local destination to its inbox, routes
	// memoizes the logical-destination → session resolution.
	nodes  atomic.Pointer[map[core.ProcessID]*TCPNode]
	routes atomic.Pointer[map[core.ProcessID]*peerLink]

	// inj, when non-nil, is the fault injector consulted on every send;
	// dialFn, when non-nil, replaces net.DialTimeout for every peerLink
	// dial (the chaos proxy interposes here). Both are read lock-free.
	inj    atomic.Pointer[Injector]
	dialFn atomic.Pointer[DialFunc]

	mu       sync.Mutex
	links    map[string]*peerLink // one session per remote process address (canonical ip:port)
	rcv      map[string]*rcvState // per-remote-process receive/dedup state
	accepted map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	counters tcpCounters
}

// TCPNode is a Port hosted on a TCPHost: one logical process. All
// nodes of one host share the host's physical sessions; a node's
// only private state is its inbox.
type TCPNode struct {
	h     *TCPHost
	id    core.ProcessID
	inbox chan Envelope

	// closedMu guards inbox close against local-delivery senders (which
	// are not tracked by the host's WaitGroup, unlike serve loops).
	closedMu sync.Mutex
	closed   bool

	// stalledAtNS is when a delivery to this node last timed out on a
	// full inbox (0 = never). While a stall is fresh (within
	// sendStallTimeout), further deliveries drop immediately instead of
	// each re-paying the bounded wait — one crashed consumer costs one
	// stall per window, not one per frame.
	stalledAtNS atomic.Int64
}

// stalledRecently reports whether a delivery stall on this node is
// fresh enough that retrying the bounded wait would just re-pay it.
func (n *TCPNode) stalledRecently() bool {
	last := n.stalledAtNS.Load()
	return last != 0 && time.Now().UnixNano()-last < int64(sendStallTimeout)
}

// noteDelivered clears a recorded stall once any delivery succeeds, so
// a consumer that recovered mid-window stops shedding frames
// immediately (the load is a no-op nanosecond check on the fast path).
func (n *TCPNode) noteDelivered() {
	if n.stalledAtNS.Load() != 0 {
		n.stalledAtNS.Store(0)
	}
}

// awaitInbox is the bounded blocking delivery used once the fast
// non-blocking send failed: wait up to sendStallTimeout for space. A
// healthy consumer drains in microseconds, so hitting the bound means
// the node's consumer is gone (crash-stop) — the stall is recorded so
// subsequent deliveries short-circuit for a window. Time spent here is
// accounted as inbox-full time (InboxStallNS), distinct from the
// credit-stall time frames spend staged in per-link spools
// (CreditStallNS): the former measures a slow consumer, the latter
// head-of-line pressure on the shared session.
func (n *TCPNode) awaitInbox(env Envelope, done <-chan struct{}) deliverVerdict {
	start := time.Now()
	n.h.counters.inboxStalls.Add(1)
	defer func() { n.h.counters.inboxStallNS.Add(uint64(time.Since(start))) }()
	timer := time.NewTimer(sendStallTimeout)
	defer timer.Stop()
	select {
	case n.inbox <- env:
		n.stalledAtNS.Store(0)
		return deliverOK
	case <-done:
		return deliverClosed
	case <-timer.C:
		n.stalledAtNS.Store(time.Now().UnixNano())
		return deliverStalled
	}
}

// rcvState is the per-remote-process dedup state: the highest seq
// delivered for the peer process's current session incarnation. A
// reconnect from the same incarnation resumes it (retransmitted frames
// are dropped as dups); a new incarnation (peer process restarted)
// resets it. The record lives only in memory, so delivery is
// exactly-once within this host's lifetime and at-least-once across a
// restart of this host: a restarted receiver redelivers frames whose
// ack died with it, and every handler above must tolerate that (see
// "Redelivery across restarts" in ARCHITECTURE.md). The record is
// also the piggyback rendezvous: the host's outgoing session to the
// same process stamps (nonce, delivered) into its data frames, and
// conveyed tracks how much of that made it onto the wire so the serve
// loop can suppress standalone acks the reverse traffic already
// carried.
type rcvState struct {
	mu        sync.Mutex
	nonce     uint64 // current peer incarnation (0 until the first hello)
	delivered uint64 // highest contiguously delivered seq of that incarnation
	conveyed  uint64 // highest delivered value piggybacked onto flushed reverse data

	// hasPeer flips once a hello arrives; outgoing links then switch to
	// dataAck frames (purely unidirectional traffic keeps the slimmer
	// data frames).
	hasPeer atomic.Bool

	// Session flow control (guarded by mu): per-logical-link staging
	// queues. A frame whose destination inbox is momentarily full is
	// staged on its (from, to) link's spool instead of making the whole
	// session block behind one hot link; spooled frames are already
	// acked, so the spools live here — on the per-remote-process record
	// that survives conn churn — and every serve loop for this session
	// drains them (round-robin across links) before returning, keeping
	// the cumulative-ack invariant: an acked frame is delivered exactly
	// once or sheds only via the crash-stop verdict.
	spools  map[uint64]*linkSpool
	order   []*linkSpool // round-robin drain order (all spools ever created)
	rrPos   int
	spooled int // total frames currently staged across all spools
}

// linkSpool is one logical link's staging queue (guarded by the owning
// rcvState's mu).
type linkSpool struct {
	node      *TCPNode
	q         []Envelope
	sinceNS   int64 // when the spool last became non-empty
	headNS    int64 // when the spool last made progress (pop or fill)
	highWater int
}

// linkCreditWindow bounds one logical link's staging queue: within the
// window a hot link absorbs its own backpressure without touching its
// session neighbors; at the window the serve loop falls back to the
// bounded blocking wait on that link alone, which re-applies sender
// backpressure through stalled acks.
const linkCreditWindow = 256

// spoolRetryDelay is how often an idle serve loop retries draining
// staged frames into their inboxes when no inbound frame arrives to
// trigger a drain pass.
const spoolRetryDelay = time.Millisecond

// ackSnapshot returns a consistent (incarnation, cumulative ack) pair
// for stamping into outgoing dataAck frames.
func (st *rcvState) ackSnapshot() (nonce, ack uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.nonce, st.delivered
}

// noteConveyed records that a flushed reverse-direction write carried
// the ack value, so standalone acks up to it are redundant.
func (st *rcvState) noteConveyed(ack uint64) {
	st.mu.Lock()
	if ack > st.conveyed {
		st.conveyed = ack
	}
	st.mu.Unlock()
}

// conveyedWithin reports whether piggybacked conveyance trails the
// delivered seq d by at most lag frames. lag 0 is the exact "fully
// conveyed" check used at traffic quiescence; the in-load count
// trigger tolerates a small lag because request/response traffic
// always has the latest delivery's ack still in flight on the next
// reverse frame.
func (st *rcvState) conveyedWithin(d, lag uint64) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.conveyed <= d && d-st.conveyed <= lag
}

// resetConveyed forgets piggyback conveyance when the carrier conn
// dies: a flush into a dead socket "succeeds" locally but the peer may
// never see the ack, and if the reverse queue has fully drained no
// retransmission will re-stamp it — the serve loop must fall back to
// standalone acks instead of suppressing against a value the peer
// never received. Queued frames re-sent on the next conn re-bump it.
func (st *rcvState) resetConveyed() {
	st.mu.Lock()
	st.conveyed = 0
	st.mu.Unlock()
}

// tcpCounters are the host's atomic stat counters (see TCPStats).
type tcpCounters struct {
	sent, delivered, dups, drops   atomic.Uint64
	resent, redials, ackTimeouts   atomic.Uint64
	acksSent, acksReceived, badEnv atomic.Uint64
	acksPiggybacked                atomic.Uint64
	pings, pongs, deadPeers        atomic.Uint64
	creditStalls, creditStallNS    atomic.Uint64
	inboxStalls, inboxStallNS      atomic.Uint64
	spoolHighWater                 atomic.Uint64
}

// maxUint64 raises a to at least v (monotonic high-water mark).
func maxUint64(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// TCPStats is a snapshot of a host's transport counters, letting demos
// and tests assert that no message was lost across peer restarts and
// that the session layer multiplexes rather than multiplying sockets.
type TCPStats struct {
	Sent            uint64 // envelopes accepted into a session's queue or delivered locally
	Delivered       uint64 // envelopes handed to this host's inboxes
	Dups            uint64 // retransmitted frames dropped by dedup
	Drops           uint64 // envelopes dropped: unknown peer, closed host, full queue, encode error
	Resent          uint64 // frames rewritten on a fresh conn after a failure
	Redials         uint64 // conns re-established after an initial success
	AckTimeouts     uint64 // conns declared dead for ack silence
	AcksSent        uint64 // standalone cumulative ack frames written
	AcksReceived    uint64 // standalone cumulative ack frames read
	AcksPiggybacked uint64 // acks carried on outgoing data frames instead of standalone
	BadEnvelopes    uint64 // frames acked but not deliverable (unknown tag, decode error, unknown node)
	Pings           uint64 // keepalive probes written on idle sessions
	Pongs           uint64 // keepalive replies received
	DeadPeers       uint64 // idle conns declared dead by keepalive probing (no pong)
	CreditStalls    uint64 // logical links that exhausted delivery credit (empty→non-empty spool transitions)
	CreditStallNS   uint64 // cumulative ns links spent with frames staged in their spool
	InboxStalls     uint64 // bounded blocking waits on a full node inbox
	InboxStallNS    uint64 // cumulative ns spent in those waits
	SpoolHighWater  uint64 // deepest any logical link's staging queue has been
	Queued          int    // frames currently awaiting acknowledgement across all sessions
	Spooled         int    // frames currently staged in per-link flow-control spools
	Sessions        int    // live outgoing sessions (one per remote process dialed)
	AcceptedConns   int    // live accepted conns (one per remote process dialing in)
}

// Stats returns a snapshot of the host's transport counters.
func (h *TCPHost) Stats() TCPStats {
	queued, spooled := 0, 0
	h.mu.Lock()
	sessions := len(h.links)
	acceptedConns := len(h.accepted)
	for _, l := range h.links {
		l.mu.Lock()
		queued += l.unacked()
		l.mu.Unlock()
	}
	for _, st := range h.rcv {
		st.mu.Lock()
		spooled += st.spooled
		st.mu.Unlock()
	}
	h.mu.Unlock()
	return TCPStats{
		Queued:          queued,
		Spooled:         spooled,
		Sessions:        sessions,
		AcceptedConns:   acceptedConns,
		Sent:            h.counters.sent.Load(),
		Delivered:       h.counters.delivered.Load(),
		Dups:            h.counters.dups.Load(),
		Drops:           h.counters.drops.Load(),
		Resent:          h.counters.resent.Load(),
		Redials:         h.counters.redials.Load(),
		AckTimeouts:     h.counters.ackTimeouts.Load(),
		AcksSent:        h.counters.acksSent.Load(),
		AcksReceived:    h.counters.acksReceived.Load(),
		AcksPiggybacked: h.counters.acksPiggybacked.Load(),
		BadEnvelopes:    h.counters.badEnv.Load(),
		Pings:           h.counters.pings.Load(),
		Pongs:           h.counters.pongs.Load(),
		DeadPeers:       h.counters.deadPeers.Load(),
		CreditStalls:    h.counters.creditStalls.Load(),
		CreditStallNS:   h.counters.creditStallNS.Load(),
		InboxStalls:     h.counters.inboxStalls.Load(),
		InboxStallNS:    h.counters.inboxStallNS.Load(),
		SpoolHighWater:  h.counters.spoolHighWater.Load(),
	}
}

var _ Port = (*TCPNode)(nil)

// NewTCPHost starts a host listening on listenAddr. addrs maps every
// logical node of the deployment to its hosting process's address;
// many nodes may share one address (they are colocated). The host
// reads the map without copying it, so the deployment's SETUP phase
// owns it: finish every write (e.g. filling in ":0" binds) before any
// goroutine sends — a write racing any send's read is a plain map data
// race, not merely a missed route. Attach logical nodes with Node,
// likewise before peers start sending to them (see Node).
func NewTCPHost(listenAddr string, addrs map[core.ProcessID]string) (*TCPHost, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcp: listen %s: %w", listenAddr, err)
	}
	h := &TCPHost{
		addr:     ln.Addr().String(),
		ln:       ln,
		addrs:    addrs,
		done:     make(chan struct{}),
		links:    make(map[string]*peerLink),
		rcv:      make(map[string]*rcvState),
		accepted: make(map[net.Conn]struct{}),
	}
	empty := make(map[core.ProcessID]*TCPNode)
	h.nodes.Store(&empty)
	noRoutes := make(map[core.ProcessID]*peerLink)
	h.routes.Store(&noRoutes)
	h.wg.Add(1)
	go h.acceptLoop()
	return h, nil
}

// NewTCPHostDir is NewTCPHost; the directory argument is ignored.
//
// Deprecated: a host keeps no state on disk. Use NewTCPHost.
func NewTCPHostDir(listenAddr string, addrs map[core.ProcessID]string, _ string) (*TCPHost, error) {
	return NewTCPHost(listenAddr, addrs)
}

// Node attaches logical process id to the host and returns its port.
// Attach every node before remote peers can address it: an inbound
// frame for an unattached node is acknowledged and dropped (counted in
// Stats().BadEnvelopes) — it must not wedge the session's cumulative
// ack stream — so the sender will not retransmit it after the node
// appears.
func (h *TCPHost) Node(id core.ProcessID) (*TCPNode, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, errors.New("tcp: host closed")
	}
	old := *h.nodes.Load()
	if _, ok := old[id]; ok {
		return nil, fmt.Errorf("tcp: node %d already attached", id)
	}
	n := &TCPNode{h: h, id: id, inbox: make(chan Envelope, inboxCap)}
	next := make(map[core.ProcessID]*TCPNode, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[id] = n
	h.nodes.Store(&next)
	return n, nil
}

// NewTCPNode starts a single-node host: one logical process per OS
// process, the pre-session-layer deployment shape. addrs must contain
// the node's own listen address. Closing the node closes its host.
func NewTCPNode(id core.ProcessID, addrs map[core.ProcessID]string) (*TCPNode, error) {
	addr, ok := addrs[id]
	if !ok {
		return nil, fmt.Errorf("tcp: no address for process %d", id)
	}
	h, err := NewTCPHost(addr, addrs)
	if err != nil {
		return nil, err
	}
	n, err := h.Node(id)
	if err != nil {
		h.Close()
		return nil, err
	}
	return n, nil
}

// Addr returns the host's bound listen address (useful with ":0").
func (h *TCPHost) Addr() string { return h.addr }

// DialFunc dials a remote host address; it has the shape of
// net.DialTimeout with the network fixed to "tcp".
type DialFunc func(addr string, timeout time.Duration) (net.Conn, error)

// SetDialer installs a custom dialer used by every peerLink (re)dial
// from now on — the hook a conn-level chaos proxy wraps every session
// through. Passing nil restores net.DialTimeout.
func (h *TCPHost) SetDialer(fn DialFunc) {
	if fn == nil {
		h.dialFn.Store(nil)
		return
	}
	h.dialFn.Store(&fn)
}

// dialPeer resolves the dialer hook and connects to addr.
func (h *TCPHost) dialPeer(addr string) (net.Conn, error) {
	if fn := h.dialFn.Load(); fn != nil {
		return (*fn)(addr, dialTimeout)
	}
	return net.DialTimeout("tcp", addr, dialTimeout)
}

// SetInjector installs a fault injector consulted on every send —
// including the in-process fast path between colocated nodes, so
// memory and TCP deployments see the same scripted faults. Passing nil
// removes it; the pass-through cost is one atomic nil check per send.
// Injection happens above the session layer: a delayed envelope is
// re-submitted whole after its delay, a dropped one never reaches the
// retransmission queue (the loss is permanent, unlike conn-level loss,
// which sessions repair).
func (h *TCPHost) SetInjector(inj Injector) {
	if inj == nil {
		h.inj.Store(nil)
		return
	}
	h.inj.Store(&inj)
}

// injectOne applies the installed injector to one send. It reports
// whether the caller should proceed with the normal immediate path;
// false means the envelope was consumed here (dropped, or rescheduled
// to run after a delay). Duplicate copies are dispatched here.
func (h *TCPHost) injectOne(inj Injector, from, to core.ProcessID, payload Message, hop int) bool {
	drop, delay, dup := inj.Decide(from, to)
	if drop {
		h.counters.drops.Add(1)
		return false
	}
	for i := 0; i < dup; i++ {
		h.sendMaybeAfter(delay, from, to, payload, hop)
	}
	if delay > 0 {
		h.sendMaybeAfter(delay, from, to, payload, hop)
		return false
	}
	return true
}

// sendMaybeAfter dispatches through the injector-free path, after a
// delay when d > 0. Deliveries racing Close are dropped by the normal
// closed checks in linkTo/deliverLocal.
func (h *TCPHost) sendMaybeAfter(d time.Duration, from, to core.ProcessID, payload Message, hop int) {
	if d <= 0 {
		h.sendDirect(from, to, payload, hop)
		return
	}
	time.AfterFunc(d, func() { h.sendDirect(from, to, payload, hop) })
}

// Addr returns the hosting process's listen address.
func (n *TCPNode) Addr() string { return n.h.addr }

// Host returns the session layer this node is attached to.
func (n *TCPNode) Host() *TCPHost { return n.h }

// ID returns the node's process ID.
func (n *TCPNode) ID() core.ProcessID { return n.id }

// Inbox returns incoming envelopes; closed when the host closes.
func (n *TCPNode) Inbox() <-chan Envelope { return n.inbox }

// Stats returns the hosting process's transport counters.
func (n *TCPNode) Stats() TCPStats { return n.h.Stats() }

// Close tears down the node's whole host: a logical node cannot
// outlive its process.
func (n *TCPNode) Close() { n.h.Close() }

// Send dispatches a payload with hop 0. Delivery is reliable as long as
// the peer process (or a restarted process at its address) eventually
// comes back: the session retransmits until acknowledged, and a full
// retransmission queue applies backpressure (bounded by the session's
// stall timeout) rather than dropping. Messages are dropped — and
// counted in Stats — only for unknown peers, unregistered payload
// types, a closed host, or a peer gone past the stall timeout.
func (n *TCPNode) Send(to core.ProcessID, payload Message) {
	n.h.sendHop(n.id, to, payload, 0)
}

// SendHop dispatches a payload with an explicit hop depth.
func (n *TCPNode) SendHop(to core.ProcessID, payload Message, hop int) {
	n.h.sendHop(n.id, to, payload, hop)
}

// SendBatch dispatches a burst of payloads to one logical destination
// as a single queue append on the shared session: the burst is encoded
// up front, appended under one session lock with contiguous seqs, and
// coalesced by the writer goroutine into one framed write on the wire.
// A colocated destination receives the burst under one inbox lock.
func (n *TCPNode) SendBatch(to core.ProcessID, payloads []Message, hop int) {
	n.h.sendBatch(n.id, to, payloads, hop)
}

// Broadcast fans payload out to every member of dst, encoding the
// tagged payload body once. Destinations colocated on one remote
// process share a session, and each run of them that is contiguous in
// the set's bit order coalesces into one queue append and one framed
// write (colocated IDs are contiguous in every deployment this repo
// builds; interleaved IDs still work, paying one append per run).
func (n *TCPNode) Broadcast(dst core.Set, payload Message, hop int) {
	n.h.broadcast(n.id, dst, payload, hop)
}

// localNode resolves a destination hosted on this process, nil if the
// destination is remote (or unknown).
func (h *TCPHost) localNode(to core.ProcessID) *TCPNode {
	return (*h.nodes.Load())[to]
}

// deliverLocal hands an envelope between two nodes of the same host —
// no socket, no codec, no session. A full inbox applies backpressure
// only up to the same bounded stall the remote paths use (Send's
// contract: a consumer gone for good gets a counted drop, it does not
// wedge the sending protocol goroutine). Reports whether the envelope
// was delivered.
func (n *TCPNode) deliverLocal(env Envelope) bool {
	n.closedMu.Lock()
	defer n.closedMu.Unlock()
	if n.closed {
		return false
	}
	select {
	case n.inbox <- env:
		n.noteDelivered()
		return true
	case <-n.h.done:
		return false
	default:
	}
	if n.stalledRecently() {
		return false
	}
	return n.awaitInbox(env, n.h.done) == deliverOK
}

func (h *TCPHost) sendHop(from, to core.ProcessID, payload Message, hop int) {
	if p := h.inj.Load(); p != nil && !h.injectOne(*p, from, to, payload, hop) {
		return
	}
	h.sendDirect(from, to, payload, hop)
}

// sendDirect is the injector-free single-envelope send path.
func (h *TCPHost) sendDirect(from, to core.ProcessID, payload Message, hop int) {
	env := Envelope{From: from, To: to, Hop: hop, Payload: payload}
	if ln := h.localNode(to); ln != nil {
		if ln.deliverLocal(env) {
			h.counters.sent.Add(1)
			h.counters.delivered.Add(1)
		} else {
			h.counters.drops.Add(1)
		}
		return
	}
	l := h.linkTo(to)
	if l == nil || !l.send(&env) {
		h.counters.drops.Add(1)
		return
	}
	h.counters.sent.Add(1)
}

func (h *TCPHost) sendBatch(from, to core.ProcessID, payloads []Message, hop int) {
	if len(payloads) == 0 {
		return
	}
	// An installed injector must decide every envelope individually, so
	// the burst degrades to per-envelope sends (same rule as the
	// in-memory network's batchable check).
	if p := h.inj.Load(); p != nil {
		inj := *p
		for _, pl := range payloads {
			if h.injectOne(inj, from, to, pl, hop) {
				h.sendDirect(from, to, pl, hop)
			}
		}
		return
	}
	if ln := h.localNode(to); ln != nil {
		// One inbox-lock acquisition for the whole burst, mirroring the
		// in-memory shard path. Close takes closedMu first, so the
		// closed flag cannot flip mid-burst: check it once.
		delivered, dropped := 0, 0
		ln.closedMu.Lock()
		if ln.closed {
			dropped = len(payloads)
		} else {
			for _, pl := range payloads {
				env := Envelope{From: from, To: to, Hop: hop, Payload: pl}
				select {
				case ln.inbox <- env:
					ln.noteDelivered()
					delivered++
					continue
				case <-h.done:
					dropped++
					continue
				default:
				}
				// Full inbox: same bounded, once-per-window stall as
				// every other delivery path.
				if !ln.stalledRecently() && ln.awaitInbox(env, h.done) == deliverOK {
					delivered++
				} else {
					dropped++
				}
			}
		}
		ln.closedMu.Unlock()
		if delivered > 0 {
			h.counters.sent.Add(uint64(delivered))
			h.counters.delivered.Add(uint64(delivered))
		}
		if dropped > 0 {
			h.counters.drops.Add(uint64(dropped))
		}
		return
	}
	if len(payloads) == 1 {
		h.sendHop(from, to, payloads[0], hop)
		return
	}
	l := h.linkTo(to)
	if l == nil {
		h.counters.drops.Add(uint64(len(payloads)))
		return
	}
	frames := getFrameSlice()
	dropped := 0
	env := Envelope{From: from, To: to, Hop: hop}
	for _, pl := range payloads {
		env.Payload = pl
		if buf := l.encodeData(&env); buf != nil {
			frames = append(frames, buf)
		} else {
			dropped++
		}
	}
	accepted := l.enqueueFrames(frames)
	dropped += len(frames) - accepted
	putFrameSlice(frames)
	if accepted > 0 {
		h.counters.sent.Add(uint64(accepted))
	}
	if dropped > 0 {
		h.counters.drops.Add(uint64(dropped))
	}
}

func (h *TCPHost) broadcast(from core.ProcessID, dst core.Set, payload Message, hop int) {
	if dst == 0 {
		return
	}
	// Per-envelope injection: the fan-out degrades to single sends so
	// each link gets its own Decide call.
	if p := h.inj.Load(); p != nil {
		inj := *p
		for v := uint64(dst); v != 0; v &= v - 1 {
			to := core.ProcessID(bits.TrailingZeros64(v))
			if h.injectOne(inj, from, to, payload, hop) {
				h.sendDirect(from, to, payload, hop)
			}
		}
		return
	}
	// Local destinations take the in-process path; remote destinations
	// sharing a session coalesce: the tagged payload body is encoded
	// exactly once, and each contiguous run of destinations on the same
	// session becomes one queue append handed to the writer goroutine
	// (see flushRun for why even single-frame runs skip the inline
	// write).
	var tagged []byte
	var runFrames [][]byte // lazily a pooled getFrameSlice
	var cur *peerLink
	encodeBroken := false
	sent, dropped, local := 0, 0, 0
	flushRun := func() {
		if cur == nil || len(runFrames) == 0 {
			return
		}
		// Even a single-frame run goes through the writer goroutine
		// (enqueueFrames) rather than the inline-write path: a
		// broadcast is never an isolated send — its sibling frames and
		// the replies they trigger are microseconds away — and routing
		// it through the writer lets concurrent clients' frames to the
		// same process coalesce into one syscall.
		accepted := cur.enqueueFrames(runFrames)
		sent += accepted
		dropped += len(runFrames) - accepted
		runFrames = runFrames[:0]
	}
	for v := uint64(dst); v != 0; v &= v - 1 {
		to := bits.TrailingZeros64(v)
		if ln := h.localNode(to); ln != nil {
			if ln.deliverLocal(Envelope{From: from, To: to, Hop: hop, Payload: payload}) {
				local++
			} else {
				dropped++
			}
			continue
		}
		l := h.linkTo(to)
		if l == nil {
			dropped++
			continue
		}
		if encodeBroken {
			// Encoding fails identically for every remote destination;
			// drop them one by one so later LOCAL destinations still
			// get their encoding-free delivery above.
			dropped++
			continue
		}
		if tagged == nil {
			scratch := getFrameBuf()
			var err error
			tagged, err = appendTaggedPayload(scratch, payload)
			if err != nil {
				putFrameBuf(scratch) // the failed append returns nil
				tagged = nil
				encodeBroken = true
				dropped++
				continue
			}
		}
		buf := l.encodeDataTagged(from, to, hop, tagged)
		if buf == nil {
			dropped++
			continue
		}
		if l != cur {
			flushRun()
			cur = l
		}
		if runFrames == nil {
			runFrames = getFrameSlice()
		}
		runFrames = append(runFrames, buf)
	}
	flushRun()
	if runFrames != nil {
		putFrameSlice(runFrames)
	}
	if tagged != nil {
		putFrameBuf(tagged)
	}
	if local > 0 {
		h.counters.delivered.Add(uint64(local))
	}
	if sent+local > 0 {
		h.counters.sent.Add(uint64(sent + local))
	}
	if dropped > 0 {
		h.counters.drops.Add(uint64(dropped))
	}
}

// linkTo returns the shared session carrying traffic to the process
// hosting logical node `to`, creating it (and its writer goroutine) on
// first use. The resolution is memoized in the lock-free routes map,
// so the canonicalization (which may hit the resolver) runs once per
// logical destination — and outside h.mu, so a slow resolver never
// stalls the accept loop, Stats, or sends to other peers.
func (h *TCPHost) linkTo(to core.ProcessID) *peerLink {
	if l := (*h.routes.Load())[to]; l != nil {
		return l
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	addr, ok := h.addrs[to]
	h.mu.Unlock()
	if !ok {
		return nil
	}
	key := canonicalAddr(addr)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	l, ok := h.links[key]
	if !ok {
		// The session is keyed by the canonical form but keeps dialing
		// the configured string, so every redial re-resolves it — a
		// peer restarting behind a DNS failover to a new IP stays
		// reachable.
		l = newPeerLink(h, addr, h.rcvPeerLocked(key))
		h.links[key] = l
		h.wg.Add(1)
		go l.run()
	}
	old := *h.routes.Load()
	next := make(map[core.ProcessID]*peerLink, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[to] = l
	h.routes.Store(&next)
	return l
}

// Close stops the listener, tears down sessions and accepted conns,
// and closes every node inbox once all I/O goroutines have drained.
func (h *TCPHost) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	links := make([]*peerLink, 0, len(h.links))
	for _, l := range h.links {
		links = append(links, l)
	}
	accepted := make([]net.Conn, 0, len(h.accepted))
	for c := range h.accepted {
		accepted = append(accepted, c)
	}
	h.mu.Unlock()
	close(h.done) // before closing conns: links re-check it after dial
	_ = h.ln.Close()
	for _, l := range links {
		l.shutdown()
	}
	for _, c := range accepted {
		_ = c.Close()
	}
	h.wg.Wait()
	for _, n := range *h.nodes.Load() {
		n.closedMu.Lock()
		n.closed = true
		close(n.inbox)
		n.closedMu.Unlock()
	}
}

func (h *TCPHost) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return
		}
		setKeepAlive(conn)
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			_ = conn.Close()
			return
		}
		h.accepted[conn] = struct{}{}
		h.wg.Add(1)
		h.mu.Unlock()
		go h.serveConn(conn)
	}
}

// canonicalAddr resolves a configured dial string to the canonical
// "ip:port" form — the form the remote host announces in its hellos
// (its bound ln.Addr()). Sessions, dedup state, and the piggyback
// rendezvous are all keyed by this string, so a deployment whose addrs
// map says "localhost:7700" must land on the same records as the
// peer's announced "127.0.0.1:7700"; without normalization the two
// spellings would silently split the session state (and with it the
// piggybacked-ack path). IPv4 resolution is preferred so that on
// dual-stack machines "localhost" keys as "127.0.0.1:p" — the form an
// IPv4-bound listener announces — rather than the resolver's RFC-6724
// pick of "[::1]:p". An unresolvable string falls back to itself (the
// dial, which uses the configured string and re-resolves every redial,
// will fail and retry anyway). A residual mismatch — a wildcard or
// IPv6-only bind whose announced form no dial string resolves to —
// degrades safely: state splits, piggybacked acks fall back to
// standalone acks, delivery stays reliable. Hosts should listen on
// concrete addresses.
func canonicalAddr(addr string) string {
	if ta, err := net.ResolveTCPAddr("tcp4", addr); err == nil {
		return ta.String()
	}
	if ta, err := net.ResolveTCPAddr("tcp", addr); err == nil {
		return ta.String()
	}
	return addr
}

// rcvPeer returns the stable receive-state record for a remote
// process, creating it on first use. Records are never replaced, so
// links can hold the pointer for the host's lifetime as their
// piggyback source.
func (h *TCPHost) rcvPeer(addr string) *rcvState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rcvPeerLocked(addr)
}

// rcvPeerLocked is rcvPeer for callers already holding h.mu (linkTo
// constructs links under it).
func (h *TCPHost) rcvPeerLocked(addr string) *rcvState {
	st := h.rcv[addr]
	if st == nil {
		st = &rcvState{}
		h.rcv[addr] = st
	}
	return st
}

// peekLink returns the existing outgoing session to a remote process
// address, nil if this host never sent to it (piggybacked acks then
// have nothing to trim).
func (h *TCPHost) peekLink(addr string) *peerLink {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.links[addr]
}

// stateFor resumes or resets the dedup state for a peer incarnation.
func (h *TCPHost) stateFor(addr string, nonce, firstSeq uint64) *rcvState {
	st := h.rcvPeer(addr)
	st.mu.Lock()
	if st.nonce != nonce {
		st.nonce = nonce
		st.delivered = firstSeq - 1
		st.conveyed = 0
	}
	st.mu.Unlock()
	st.hasPeer.Store(true)
	return st
}

// rcvFrame is one decoded data frame of a receive burst.
type rcvFrame struct {
	seq uint64
	env Envelope
	ok  bool // decoded successfully
}

// rcvBurstMax bounds how many buffered frames one read wakeup decodes
// before delivering; it mirrors the send side's coalescing and keeps
// the one-lock-per-burst critical section short.
const rcvBurstMax = 64

// frameBuffered reports whether br holds one complete frame, so a
// burst can keep decoding without ever blocking on the socket while
// decoded envelopes sit undelivered.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, err := br.Peek(4)
	if err != nil {
		return false
	}
	n := binary.LittleEndian.Uint32(hdr)
	return n <= maxFrame && uint32(br.Buffered()-4) >= n
}

// serveConn handles one accepted connection: parse the hello, then
// deliver data frames in seq order, acking cumulatively. Each read
// wakeup decodes a burst of buffered frames and delivers the whole
// burst under ONE dedup-lock acquisition (mirroring the send side's
// one-lock-per-burst queue append); piggybacked acks are applied once
// per burst. Standalone acks are coalesced off the latency path: one
// ack per ackEvery frames under load, or one after an ackDelay quiet
// window — both far inside the sender's retransmitTimeout — and
// suppressed entirely when this host's reverse-direction data frames
// already piggybacked the ack (rcvState.conveyed). Inbox delivery
// selects against the host's done channel, so a full inbox can never
// wedge shutdown.
func (h *TCPHost) serveConn(conn net.Conn) {
	defer h.wg.Done()
	defer func() {
		_ = conn.Close()
		h.mu.Lock()
		delete(h.accepted, conn)
		h.mu.Unlock()
	}()
	const (
		ackEvery = 64
		ackDelay = 25 * time.Millisecond
	)
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	scratch := getFrameBuf()
	defer func() { putFrameBuf(scratch) }()

	kind, body, err := readFrame(br, &scratch)
	if err != nil || kind != frameHello {
		return
	}
	peerAddr, nonce, firstSeq, err := parseHello(body)
	if err != nil || firstSeq == 0 || peerAddr == "" {
		// Legitimate senders number frames from 1 and announce their
		// listen address; firstSeq 0 would underflow the dedup resume
		// point and blackhole the stream.
		return
	}
	st := h.stateFor(peerAddr, nonce, firstSeq)
	// Spooled frames are already acked: they must reach their inbox (or
	// shed via the crash-stop verdict) before this serve loop goes away,
	// because no retransmission will ever carry them again.
	defer h.flushSpools(st)
	st.mu.Lock()
	d := st.delivered
	st.mu.Unlock()
	// Immediate ack of the resume point lets the sender trim its queue
	// without waiting for data to flow.
	if writeAck(bw, d) != nil {
		return
	}
	h.counters.acksSent.Add(1)

	// revLink is this host's outgoing session to the same process, the
	// target of piggybacked acks read off the peer's dataAck frames.
	// Resolved lazily: it may not exist yet (or ever, for one-way
	// traffic).
	var revLink *peerLink

	burst := make([]rcvFrame, 0, rcvBurstMax)
	pendingAck := false
	spooled := false
	sinceAck := 0
	// The burst arena: frame bodies land in its chunk, payloads in its
	// slabs. The serve loop's reference rotates to a fresh arena after
	// each delivered burst (see the ownership contract in arena.go).
	a := getArena()
	defer func() { a.release() }()
	for {
		if (pendingAck || spooled) && br.Buffered() == 0 {
			// Wait for the next frame only up to the ack-delay window (or
			// the much shorter spool-retry tick while frames are staged);
			// Peek consumes nothing, so a timeout between frames is
			// safe, and the deadline is cleared before the frame read.
			wait := ackDelay
			if spooled {
				wait = spoolRetryDelay
			}
			_ = conn.SetReadDeadline(time.Now().Add(wait))
			_, err := br.Peek(1)
			_ = conn.SetReadDeadline(time.Time{})
			if err != nil {
				var ne net.Error
				if !errors.As(err, &ne) || !ne.Timeout() {
					return
				}
				if spooled {
					st.mu.Lock()
					spooled = h.drainSpools(st)
					st.mu.Unlock()
					if !pendingAck {
						continue
					}
				}
				st.mu.Lock()
				d := st.delivered
				conveyed := st.conveyed
				st.mu.Unlock()
				if conveyed >= d {
					// The reverse traffic already carried this ack in
					// full; nothing is owed.
					pendingAck, sinceAck = false, 0
					continue
				}
				if writeAck(bw, d) != nil {
					return
				}
				h.counters.acksSent.Add(1)
				pendingAck, sinceAck = false, 0
				continue
			}
		}
		// Collect a burst: one blocking read, then every complete frame
		// already buffered, decoded before any lock is taken.
		burst = burst[:0]
		pongOwed := false
		dead := false
		var pbNonce, pbAck uint64 // piggybacked ack, applied once per burst
		for {
			kind, body, err := readFrameArena(br, a)
			if err != nil {
				dead = true
				break
			}
			envOff := 8
			switch kind {
			case frameData:
				if len(body) < 8 {
					dead = true
				}
			case frameDataAck:
				if len(body) < dataAckEnvOff-dataSeqOff {
					dead = true
					break
				}
				if ackNonce := binary.LittleEndian.Uint64(body[8:]); ackNonce != 0 {
					ack := binary.LittleEndian.Uint64(body[16:])
					if ackNonce != pbNonce {
						// A nonce change mid-burst (reverse link
						// redialed) must not lose the earlier ack.
						if pbNonce != 0 && revLinkFor(&revLink, h, peerAddr) != nil {
							revLink.applyAck(pbNonce, pbAck)
						}
						pbNonce, pbAck = ackNonce, ack
					} else if ack > pbAck {
						pbAck = ack
					}
				}
				envOff = dataAckEnvOff - dataSeqOff
			case framePing:
				pongOwed = true
				if frameBuffered(br) && len(burst) < rcvBurstMax {
					continue
				}
				kind = 0 // nothing to append; fallthrough to burst end
			default:
				if frameBuffered(br) && len(burst) < rcvBurstMax {
					continue // tolerate unknown frame kinds
				}
				kind = 0
			}
			if dead {
				break
			}
			if kind == frameData || kind == frameDataAck {
				f := rcvFrame{seq: binary.LittleEndian.Uint64(body)}
				f.env, err = decodeEnvelopeArena(body[envOff:], a)
				f.ok = err == nil
				burst = append(burst, f)
			}
			if len(burst) >= rcvBurstMax || !frameBuffered(br) {
				break
			}
		}
		if pbNonce != 0 && revLinkFor(&revLink, h, peerAddr) != nil {
			revLink.applyAck(pbNonce, pbAck)
		}
		if len(burst) > 0 {
			// Deliver the burst under one dedup-lock acquisition. The
			// lock also serializes against an overlapping serve loop for
			// the same session (a redial racing the old conn's drain),
			// keeping within-incarnation delivery exactly-once and FIFO.
			nodes := *h.nodes.Load()
			var delivered, dups, bad, dropped uint64
			st.mu.Lock()
			for i := range burst {
				f := &burst[i]
				if f.seq <= st.delivered {
					dups++
					f.env.Release()
					continue
				}
				if f.ok {
					if ln := nodes[f.env.To]; ln != nil {
						switch h.deliverFlow(st, ln, f.env) {
						case deliverOK:
							delivered++
						case deliverSpooled:
							// The frame waits on its link's staging queue;
							// it is counted when the drain pops it.
						case deliverStalled:
							// This link's consumer stopped draining
							// (crash-stop): drop ITS frames after the
							// bounded stall — mirroring the send side's
							// sendStallTimeout — instead of wedging the
							// whole process-pair session behind st.mu.
							dropped++
							f.env.Release()
						case deliverClosed:
							st.mu.Unlock()
							return
						}
					} else {
						// Ack it anyway: a frame for a node this host
						// does not carry would otherwise be
						// retransmitted forever.
						bad++
						f.env.Release()
					}
				} else {
					bad++
				}
				st.delivered = f.seq
			}
			d = st.delivered
			spooled = h.drainSpools(st)
			st.mu.Unlock()
			if delivered > 0 {
				h.counters.delivered.Add(delivered)
			}
			if dups > 0 {
				h.counters.dups.Add(dups)
			}
			if bad > 0 {
				h.counters.badEnv.Add(bad)
			}
			if dropped > 0 {
				h.counters.drops.Add(dropped)
			}
			pendingAck = true
			sinceAck += len(burst)
			// Rotate the serve loop's arena reference: this burst's
			// arena recycles as soon as its last consumer releases, and
			// the next burst starts on a fresh (pooled) one.
			a.release()
			a = getArena()
		} else {
			// Nothing was decoded out of the chunk (ping/unknown-only
			// wakeup); reuse it in place instead of letting it grow.
			a.chunk = a.chunk[:0]
		}
		if pongOwed {
			if writePong(bw) != nil {
				return
			}
		}
		if dead {
			return
		}
		if pendingAck && sinceAck >= ackEvery {
			if st.conveyedWithin(d, uint64(sinceAck)) {
				// Piggybacked acks are keeping up (the sender's unacked
				// window stays small); skip the standalone ack but keep
				// the quiet-window one armed for the tail of the burst.
				sinceAck = 0
				continue
			}
			if writeAck(bw, d) != nil {
				return
			}
			h.counters.acksSent.Add(1)
			pendingAck, sinceAck = false, 0
		}
	}
}

// revLinkFor lazily resolves (and caches in *l) the host's outgoing
// session to addr.
func revLinkFor(l **peerLink, h *TCPHost, addr string) *peerLink {
	if *l == nil {
		*l = h.peekLink(addr)
	}
	return *l
}

// Delivery verdicts.
type deliverVerdict int

const (
	deliverOK      deliverVerdict = iota
	deliverStalled                // inbox full past the stall bound; frame dropped
	deliverClosed                 // host shutting down
	deliverSpooled                // staged on the link's flow-control spool
)

// linkKey packs a logical (from, to) pair into the spool map key.
func linkKey(from, to core.ProcessID) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// deliverFlow hands one inbound envelope to node ln over the logical
// link (env.From → env.To), preserving per-link FIFO through the
// link's staging queue. The caller holds st.mu.
//
// The fast path is the old one: a non-blocking inbox send. What changed
// is the slow path — a full inbox used to make the serve loop block (or
// drop) with st.mu held, head-of-line-blocking every colocated link on
// the shared session. Now the frame is staged on ITS link's spool and
// the burst moves on; the session only falls back to the bounded
// blocking wait when that one link exhausts its credit window, and even
// then the wait charges only the hot link (its sender sees the stalled
// acks; colocated links keep flowing through the round-robin drain).
func (h *TCPHost) deliverFlow(st *rcvState, ln *TCPNode, env Envelope) deliverVerdict {
	key := linkKey(env.From, env.To)
	sp := st.spools[key]
	if sp == nil || len(sp.q) == 0 {
		select {
		case ln.inbox <- env:
			ln.noteDelivered()
			return deliverOK
		case <-h.done:
			return deliverClosed
		default:
		}
		if ln.stalledRecently() {
			return deliverStalled
		}
		if sp == nil {
			if st.spools == nil {
				st.spools = make(map[uint64]*linkSpool)
			}
			sp = &linkSpool{node: ln}
			st.spools[key] = sp
			st.order = append(st.order, sp)
		}
		st.stage(sp, env, &h.counters)
		return deliverSpooled
	}
	// The spool is non-empty: FIFO on this link means queueing behind it.
	if len(sp.q) >= linkCreditWindow {
		// Credit exhausted. The bounded blocking wait applies to the
		// spool head (oldest frame first); hitting the bound means the
		// consumer is gone — crash-stop — and the whole spool sheds.
		if ln.stalledRecently() {
			h.shedSpool(st, sp)
			return deliverStalled
		}
		head := sp.q[0]
		switch ln.awaitInbox(head, h.done) {
		case deliverOK:
			sp.pop(st, &h.counters)
			h.counters.delivered.Add(1)
		case deliverClosed:
			return deliverClosed
		default:
			h.shedSpool(st, sp)
			return deliverStalled
		}
	}
	st.stage(sp, env, &h.counters)
	return deliverSpooled
}

// stage appends env to sp's queue. Caller holds st.mu.
func (st *rcvState) stage(sp *linkSpool, env Envelope, c *tcpCounters) {
	if len(sp.q) == 0 {
		now := time.Now().UnixNano()
		sp.sinceNS, sp.headNS = now, now
		c.creditStalls.Add(1)
	}
	sp.q = append(sp.q, env)
	st.spooled++
	if len(sp.q) > sp.highWater {
		sp.highWater = len(sp.q)
		maxUint64(&c.spoolHighWater, uint64(sp.highWater))
	}
}

// pop removes sp's head (already delivered by the caller) and updates
// the progress clock. Caller holds st.mu.
func (sp *linkSpool) pop(st *rcvState, c *tcpCounters) {
	now := time.Now().UnixNano()
	sp.headNS = now
	sp.q[0] = Envelope{}
	sp.q = sp.q[1:]
	st.spooled--
	if len(sp.q) == 0 {
		sp.q = nil // let the drained backing array go
		c.creditStallNS.Add(uint64(now - sp.sinceNS))
	}
}

// drainSpools makes one round-robin pass over the staging queues,
// popping as many frames as each inbox accepts without blocking, and
// reports whether any staged frames remain. A spool that has made no
// progress for sendStallTimeout with frames waiting marks its node
// stalled (crash-stop) and sheds. Caller holds st.mu.
func (h *TCPHost) drainSpools(st *rcvState) bool {
	n := len(st.order)
	if n == 0 || st.spooled == 0 {
		return false
	}
	for i := 0; i < n; i++ {
		sp := st.order[(st.rrPos+i)%n]
		for len(sp.q) > 0 {
			select {
			case sp.node.inbox <- sp.q[0]:
				sp.node.noteDelivered()
				sp.pop(st, &h.counters)
				h.counters.delivered.Add(1)
				continue
			default:
			}
			if time.Now().UnixNano()-sp.headNS > int64(sendStallTimeout) {
				sp.node.stalledAtNS.Store(time.Now().UnixNano())
				h.shedSpool(st, sp)
			}
			break
		}
	}
	if n > 0 {
		st.rrPos = (st.rrPos + 1) % n
	}
	return st.spooled > 0
}

// shedSpool drops every staged frame of one link — the crash-stop
// verdict for its consumer, mirroring deliverStalled on the direct
// path. Caller holds st.mu.
func (h *TCPHost) shedSpool(st *rcvState, sp *linkSpool) {
	if len(sp.q) == 0 {
		return
	}
	h.counters.drops.Add(uint64(len(sp.q)))
	h.counters.creditStallNS.Add(uint64(time.Now().UnixNano() - sp.sinceNS))
	st.spooled -= len(sp.q)
	for i := range sp.q {
		sp.q[i].Release()
		sp.q[i] = Envelope{}
	}
	sp.q = nil
}

// flushSpools drains every staging queue before a serve loop returns:
// spooled frames are already acked, so they must reach their inbox (or
// shed via the crash-stop verdict) — they cannot ride a retransmission,
// and another serve loop for the session may never come.
func (h *TCPHost) flushSpools(st *rcvState) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, sp := range st.order {
		for len(sp.q) > 0 {
			select {
			case sp.node.inbox <- sp.q[0]:
				sp.node.noteDelivered()
				sp.pop(st, &h.counters)
				h.counters.delivered.Add(1)
				continue
			default:
			}
			if sp.node.stalledRecently() {
				h.shedSpool(st, sp)
				break
			}
			switch sp.node.awaitInbox(sp.q[0], h.done) {
			case deliverOK:
				sp.pop(st, &h.counters)
				h.counters.delivered.Add(1)
			default:
				// Stalled consumer or closing host: either way these
				// frames' delivery chance is gone.
				h.shedSpool(st, sp)
			}
		}
	}
}
