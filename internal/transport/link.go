package transport

import (
	"bufio"
	"encoding/binary"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/core"
)

// A peerLink is one host's managed session to a remote process: ONE
// physical TCP connection carrying the traffic of every logical (from,
// to) pair between the two processes. It replaces both the seed's
// cache-forever tcpConn and the pre-session design's link-per-node
// scheme: frames are sequenced and kept in a bounded retransmission
// queue until the peer acknowledges them, so a message written into a
// dying socket (the ROADMAP ack-loss hang) is re-sent on the next
// connection — and the queue, acks, redial and keepalive machinery are
// paid once per process pair, not once per logical node pair. The link
// redials with backoff on write errors, on the peer closing the conn,
// and on ack silence (retransmitTimeout with no cumulative-ack
// progress), which covers the case where writes into a dead socket
// still "succeed" locally because the peer vanished without a FIN.
// Idle sessions probe the peer with ping frames (heartbeatInterval) so
// a partitioned peer is detected — and counted in Stats().DeadPeers —
// even when no data is outstanding to trip the ack-silence check;
// kernel TCP keepalives (keepAlivePeriod) back this up for long-idle
// conns.
//
// Senders only enqueue frames and wake the session's writer goroutine
// (runConn), the one piece of code that writes to the socket: it owns
// the conn lifecycle, coalesces every pending frame into a single
// buffered write per wakeup, stamps the piggybacked acks and trims the
// queue. A per-conn reader feeds cumulative acks back. Because the
// writer is also the only trimmer, returning acked frame buffers to
// the pool can never race a write still reading them.
//
// # Retransmission and ack invariants
//
// The reliable-channel semantics of the model (§3.1) rest on these,
// which transport.Conformance and the restart tests pin. They are per
// session, and logical links inherit them: every (from, to) pair
// between two processes rides one session, so per-logical-link FIFO
// follows from session FIFO plus seq assignment under the session
// lock.
//
//  1. Sequencing: every data frame on a session carries a seq assigned
//     under the session lock, contiguous and ascending within a
//     session incarnation (nonce). queue[head:] always holds the
//     unacked frames in ascending seq order.
//  2. Retention: a frame leaves the queue only when the peer's
//     cumulative ack covers its seq (acked ≥ seq) or the host closes.
//     Redials re-send every retained frame on the new conn — delivery
//     is at-least-once across arbitrary conn churn, for every logical
//     link multiplexed on the session.
//  3. Cumulative acks: the receiver acks the highest contiguously
//     delivered seq per (process, nonce); acks are coalesced (one per
//     ackEvery frames under load, or after the quiet window) and never
//     go backwards. An ack covering seq s implies every frame ≤ s was
//     handed to its destination inbox exactly once.
//  4. Dedup: the receiver tracks the last delivered seq per
//     (process, nonce); retransmitted frames at or below it are acked
//     but not redelivered. A restarted sender process presents a fresh
//     nonce and starts a new stream (exactly-once within an
//     incarnation, at-least-once across receiver restarts — the
//     protocols tolerate duplicates by design).
//  5. Liveness: ack silence for retransmitTimeout with frames
//     outstanding declares the conn dead and redials; an idle conn
//     whose peer stops answering keepalive pings is declared dead
//     after heartbeatMiss probes; a sender blocked on a full queue for
//     sendStallTimeout drops the send and counts it in Stats
//     (crash-stop peers must not wedge quorum protocols).
//  6. Progress accounting: maxSent ≥ acked always; sentIdx marks the
//     first queued frame not yet written to the current conn, so a
//     reconnect resumes from the oldest unacked frame, never skipping
//     or reordering.

const (
	// maxUnacked bounds the retransmission queue; a sender hitting the
	// bound blocks until the peer acks, mirroring the backpressure of
	// a full in-memory inbox.
	maxUnacked = 4096
	// retransmitTimeout is the ack-silence window after which the link
	// declares the conn dead and redials.
	retransmitTimeout = 250 * time.Millisecond
	dialTimeout       = 2 * time.Second
	dialBackoffMin    = 5 * time.Millisecond
	dialBackoffMax    = 500 * time.Millisecond
	// sendStallTimeout bounds how long a full retransmission queue may
	// block a sender. A live peer acks within milliseconds, so hitting
	// this means the peer is gone for good (crash-stop): the send is
	// dropped and counted rather than wedging the protocol goroutine —
	// quorum protocols must keep making progress past dead servers.
	sendStallTimeout = 2 * time.Second
	// compactAt is the trimmed-prefix length that triggers queue
	// compaction; trimming itself just advances the head index.
	compactAt = 1024
)

// Keepalive knobs. Variables, not constants, so the partition tests
// can shrink the probe cadence; production code should treat them as
// fixed.
var (
	// keepAlivePeriod is the kernel TCP keepalive interval set on every
	// dialed and accepted conn — the backstop that eventually surfaces
	// a vanished peer as a read error even if the transport itself went
	// quiet.
	keepAlivePeriod = 15 * time.Second
	// heartbeatInterval is the application-level probe cadence on idle
	// established sessions: every interval with no traffic and nothing
	// queued, the writer sends a ping frame the peer answers with a
	// pong. Unlike ack silence this needs no outstanding data, so a
	// silently partitioned peer is detected from a fully idle session.
	heartbeatInterval = 1 * time.Second
	// heartbeatMiss is how many consecutive unanswered pings declare
	// the conn dead (counted in Stats().DeadPeers, conn closed; the
	// next send redials).
	heartbeatMiss = 3
)

// setKeepAlive arms the kernel TCP keepalive on a conn; one helper so
// dialed (link.go) and accepted (tcp.go) conns cannot diverge.
func setKeepAlive(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetKeepAlive(true)
		_ = tc.SetKeepAlivePeriod(keepAlivePeriod)
	}
}

type sendFrame struct {
	seq uint64
	buf []byte // complete wire frame: length prefix, kind, seq, envelope
}

type peerLink struct {
	h     *TCPHost
	addr  string // remote process's listen address (the session key)
	nonce uint64 // session incarnation: a restarted sender is a new stream

	// rcvSt is this host's receive-side dedup state for the same remote
	// process — the source of piggybacked acks: data frames to the peer
	// carry the cumulative delivered seq of the peer's reverse-direction
	// stream (stamped at write time), so bidirectional traffic
	// acknowledges itself without standalone ack frames. The pointer is
	// stable for the host's lifetime.
	rcvSt *rcvState

	mu        sync.Mutex
	space     chan struct{} // closed+replaced when a trim frees a full queue or the host closes
	queue     []sendFrame   // queue[head:] = unacked frames, ascending seq
	head      int           // trimmed prefix length (acked, not yet compacted)
	nextSeq   uint64        // seq assigned to the next enqueued frame
	acked     uint64        // highest cumulative ack from the peer
	maxSent   uint64        // highest seq ever written to any conn
	sentIdx   int           // queue index of the first frame not yet written on the current conn
	conn      net.Conn      // current conn; Close()d by host shutdown to unblock I/O
	readerErr error         // set by the current conn's ack reader
	closed    bool          // host shutting down: stop blocking senders
	pings     int           // consecutive unanswered keepalive probes on the current conn

	notify chan struct{} // buffered(1): new frames or ack progress
}

func newPeerLink(h *TCPHost, addr string, rcvSt *rcvState) *peerLink {
	nonce := rand.Uint64()
	for nonce == 0 {
		nonce = rand.Uint64() // 0 means "no ack" in dataAck frames
	}
	return &peerLink{
		h:       h,
		addr:    addr,
		rcvSt:   rcvSt,
		nonce:   nonce,
		nextSeq: 1,
		notify:  make(chan struct{}, 1),
		space:   make(chan struct{}),
	}
}

// broadcastSpace wakes every sender blocked on a full queue; callers
// hold l.mu. Senders wait only while the queue is full, so only a trim
// that frees a full queue and shutdown call it — replacing the channel
// on every trim would cost an allocation per trim that nobody waits on.
func (l *peerLink) broadcastSpace() {
	close(l.space)
	l.space = make(chan struct{})
}

// unacked reports the live queue length; callers hold l.mu.
func (l *peerLink) unacked() int { return len(l.queue) - l.head }

// beginDataFrame starts a framed data frame for this session: header
// placeholder, a fixed-width seq slot (filled under the session lock at
// enqueue time) and — once the peer process has ever presented itself
// as a sender — the dataAck ack slots (stamped at write time). The
// caller appends the envelope body and passes the result to
// finishDataFrame.
func (l *peerLink) beginDataFrame() []byte {
	buf := getFrameBuf()
	if l.rcvSt.hasPeer.Load() {
		buf = beginFrame(buf, frameDataAck)
		buf = append(buf,
			0, 0, 0, 0, 0, 0, 0, 0, // seq slot
			0, 0, 0, 0, 0, 0, 0, 0, // ackNonce slot
			0, 0, 0, 0, 0, 0, 0, 0) // ack slot
	} else {
		buf = beginFrame(buf, frameData)
		buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // seq slot
	}
	return buf
}

// finishDataFrame completes a frame begun by beginDataFrame, returning
// nil for unencodable or oversized payloads: the receiver would kill
// the conn on such a frame and the link would retransmit it forever,
// so it is rejected here as a counted drop (the buffer goes back to
// the pool).
func finishDataFrame(buf []byte, err error) []byte {
	if err != nil || len(buf)-4 > maxFrame {
		putFrameBuf(buf)
		return nil
	}
	return finishFrame(buf)
}

// encodeData builds a complete framed data frame for env.
func (l *peerLink) encodeData(env *Envelope) []byte {
	buf, err := appendEnvelope(l.beginDataFrame(), env)
	return finishDataFrame(buf, err)
}

// encodeDataTagged is encodeData for a pre-encoded tag+payload body
// (broadcast encodes the payload once and stamps each destination's
// routing header around it).
func (l *peerLink) encodeDataTagged(from, to core.ProcessID, hop int, tagged []byte) []byte {
	buf := l.beginDataFrame()
	buf = binary.AppendVarint(buf, int64(from))
	buf = binary.AppendVarint(buf, int64(to))
	buf = binary.AppendVarint(buf, int64(hop))
	buf = append(buf, tagged...)
	return finishDataFrame(buf, nil)
}

// stampAcks patches the piggyback slots of a dataAck frame with the
// current (nonce, delivered) snapshot of the peer's reverse stream.
// Only the session's writer goroutine stamps, and once a frame is
// queued nothing else touches its bytes until the writer itself trims
// it, so patching in place is race-free; retransmissions are
// re-stamped and therefore always carry a current ack.
func stampAcks(buf []byte, nonce, ack uint64) {
	binary.LittleEndian.PutUint64(buf[dataAckNonceOff:], nonce)
	binary.LittleEndian.PutUint64(buf[dataAckOff:], ack)
}

// send encodes env as a data frame and enqueues it, reporting false
// for unencodable payloads, host shutdown, and a peer gone past the
// stall bound (see enqueue).
func (l *peerLink) send(env *Envelope) bool {
	buf := l.encodeData(env)
	return buf != nil && l.enqueue(buf) == 1
}

// enqueue appends encoded frames to the retransmission queue under one
// lock acquisition, assigning contiguous seqs (FIFO within the call),
// and wakes the writer goroutine, which coalesces whatever is queued
// into one buffered write. A full queue blocks the sender until the
// peer acks — the same backpressure a full in-memory inbox applies;
// channels are reliable in the model (§3.1), never lossy — but only up
// to sendStallTimeout, reset whenever the call makes progress: a peer
// that is gone for good must not wedge the sending protocol goroutine,
// so the rest of the frames are then dropped. It owns the frames:
// unaccepted ones go back to the pool. Returns how many were accepted.
func (l *peerLink) enqueue(frames ...[]byte) int {
	accepted := 0
	var deadline time.Time
	l.mu.Lock()
	for accepted < len(frames) && !l.closed {
		if l.unacked() < maxUnacked {
			buf := frames[accepted]
			seq := l.nextSeq
			l.nextSeq++
			binary.LittleEndian.PutUint64(buf[dataSeqOff:], seq)
			l.queue = append(l.queue, sendFrame{seq: seq, buf: buf})
			accepted++
			deadline = time.Time{}
			continue
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(sendStallTimeout)
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			break // peer presumed crashed; counted as a drop
		}
		space := l.space
		l.mu.Unlock()
		timer := time.NewTimer(remain)
		select {
		case <-space:
		case <-timer.C:
		case <-l.h.done:
		}
		timer.Stop()
		l.mu.Lock()
	}
	l.mu.Unlock()
	for _, buf := range frames[accepted:] {
		putFrameBuf(buf)
	}
	if accepted > 0 {
		l.wake()
	}
	return accepted
}

func (l *peerLink) wake() {
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// run is the session's writer goroutine: wait for work, keep a conn
// up, stream the queue, redial and re-send on failure.
func (l *peerLink) run() {
	defer l.h.wg.Done()
	established := false
	for {
		// Don't (re)dial until there is something to send.
		l.mu.Lock()
		empty := l.unacked() == 0
		l.mu.Unlock()
		if empty {
			select {
			case <-l.notify:
			case <-l.h.done:
				return
			}
			continue
		}
		conn := l.dial()
		if conn == nil {
			return // host closing
		}
		if established {
			l.h.counters.redials.Add(1)
		}
		established = true
		l.runConn(conn)
		_ = conn.Close()
		l.mu.Lock()
		l.conn = nil
		l.readerErr = nil
		l.mu.Unlock()
		// Acks piggybacked onto this conn may have died with it; let
		// the serve loop resume standalone acking until frames on the
		// next conn re-convey.
		l.rcvSt.resetConveyed()
		select {
		case <-l.h.done:
			return
		default:
		}
	}
}

// dial connects to the peer with exponential backoff, returning nil
// only when the host is shutting down. Dialed conns get kernel TCP
// keepalives so a silently vanished peer eventually surfaces as a read
// error even without transport traffic.
func (l *peerLink) dial() net.Conn {
	backoff := dialBackoffMin
	for {
		select {
		case <-l.h.done:
			return nil
		default:
		}
		conn, err := l.h.dialPeer(l.addr)
		if err == nil {
			setKeepAlive(conn)
			l.mu.Lock()
			l.conn = conn
			l.readerErr = nil
			l.mu.Unlock()
			// Re-check shutdown: Close may have swept links before we
			// registered the conn; done is closed before that sweep.
			select {
			case <-l.h.done:
				_ = conn.Close()
				return nil
			default:
			}
			return conn
		}
		select {
		case <-l.h.done:
			return nil
		case <-time.After(jitteredBackoff(backoff)):
		}
		if backoff *= 2; backoff > dialBackoffMax {
			backoff = dialBackoffMax
		}
	}
}

// jitteredBackoff spreads a backoff ceiling into a uniform sample from
// [base/2, base]. Pure exponential backoff synchronizes every link that
// lost its conn at the same instant — after a partition heals, N peers
// redial the restarted host in lockstep waves. Jitter decorrelates the
// waves while keeping the expected wait at 3/4 of the ceiling.
func jitteredBackoff(base time.Duration) time.Duration {
	if base <= 1 {
		return base
	}
	half := base / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// runConn drives one connection until it fails or the host closes:
// hello, then batches of pending frames, trimming the queue as acks
// arrive, treating ack silence as a dead conn, and probing an idle
// peer with keepalive pings.
func (l *peerLink) runConn(conn net.Conn) {
	bw := bufio.NewWriter(conn)
	l.mu.Lock()
	l.sentIdx = l.head // everything unacked is re-sent on this conn
	l.pings = 0
	firstSeq := l.nextSeq
	if l.unacked() > 0 {
		firstSeq = l.queue[l.head].seq
	}
	l.mu.Unlock()

	hello := appendHello(getFrameBuf(), l.h.addr, l.nonce, firstSeq)
	_, err := bw.Write(hello)
	putFrameBuf(hello)
	if err != nil || bw.Flush() != nil {
		return
	}
	l.h.wg.Add(1)
	go l.readAcks(conn)

	// One reusable timer serves every wait in the loop below (writer
	// waits are strictly sequential); allocating a fresh timer per wait
	// used to be ~20% of the transport's allocation volume.
	wait := time.NewTimer(time.Hour)
	defer wait.Stop()
	rearm := func(d time.Duration) {
		if !wait.Stop() {
			select {
			case <-wait.C:
			default:
			}
		}
		wait.Reset(d)
	}

	var batch []sendFrame
	for {
		l.mu.Lock()
		// Trim acked frames by advancing the head index (O(popped));
		// the prefix is compacted away once it grows. The writer is
		// the only trimmer and the only writer, so the buffers it
		// returns here are no longer referenced by any write.
		full := l.unacked() >= maxUnacked
		popped := 0
		for l.head+popped < len(l.queue) && l.queue[l.head+popped].seq <= l.acked {
			putFrameBuf(l.queue[l.head+popped].buf)
			popped++
		}
		if popped > 0 {
			l.head += popped
			if l.sentIdx < l.head {
				l.sentIdx = l.head
			}
			if l.head == len(l.queue) {
				l.queue = l.queue[:0]
				l.sentIdx, l.head = 0, 0
			} else if l.head >= compactAt {
				n := copy(l.queue, l.queue[l.head:])
				l.queue = l.queue[:n]
				l.sentIdx -= l.head
				l.head = 0
			}
			if full {
				l.broadcastSpace() // senders blocked on the full queue
			}
		}
		if l.readerErr != nil {
			l.mu.Unlock()
			return
		}
		pending := l.queue[l.sentIdx:]
		if len(pending) == 0 {
			if l.unacked() == 0 {
				l.mu.Unlock()
				// Idle: wait for work, but probe the peer at the
				// heartbeat cadence so a silent partition is detected
				// without any data in flight. The death verdict is
				// checked when the NEXT interval fires, so every probe
				// — including the heartbeatMiss-th — gets a full
				// interval for its pong before it counts as missed.
				rearm(heartbeatInterval)
				select {
				case <-l.notify:
					continue
				case <-wait.C:
					l.mu.Lock()
					missed := l.pings >= heartbeatMiss
					l.mu.Unlock()
					if missed {
						// heartbeatMiss consecutive probes went a full
						// interval each without a pong (and no data
						// acks were owed): the conn is dead even
						// though nothing is queued. Close it; the next
						// send redials.
						l.h.counters.deadPeers.Add(1)
						return
					}
					if !l.sendPing(bw) {
						return
					}
					continue
				case <-l.h.done:
					return
				}
			}
			// Everything written, waiting for acks: silence past the
			// retransmit window means the conn is dead even if writes
			// kept succeeding (peer gone without a FIN).
			ackedBefore := l.acked
			l.mu.Unlock()
			rearm(retransmitTimeout)
			select {
			case <-l.notify:
				continue
			case <-wait.C:
				l.mu.Lock()
				progress := l.acked > ackedBefore
				l.mu.Unlock()
				if !progress {
					l.h.counters.ackTimeouts.Add(1)
					return
				}
				continue
			case <-l.h.done:
				return
			}
		}
		batch = append(batch[:0], pending...)
		resent := 0
		for _, f := range batch {
			if f.seq <= l.maxSent {
				resent++
			}
		}
		if last := batch[len(batch)-1].seq; last > l.maxSent {
			l.maxSent = last
		}
		l.sentIdx = len(l.queue)
		l.mu.Unlock()
		if resent > 0 {
			l.h.counters.resent.Add(uint64(resent))
		}
		// Stamp one ack snapshot across the whole batch's dataAck
		// frames — piggybacking costs one snapshot per coalesced write,
		// not per frame.
		nonce, ack := l.rcvSt.ackSnapshot()
		piggybacked := uint64(0)
		err := error(nil)
		for _, f := range batch {
			if f.buf[4] == frameDataAck {
				stampAcks(f.buf, nonce, ack)
				if nonce != 0 && ack != 0 {
					piggybacked++ // frames stamped with ack 0 convey nothing
				}
			}
			if _, err = bw.Write(f.buf); err != nil {
				break
			}
		}
		if err == nil {
			err = bw.Flush()
		}
		if err == nil && piggybacked > 0 {
			l.rcvSt.noteConveyed(ack)
			l.h.counters.acksPiggybacked.Add(piggybacked)
		}
		if err != nil {
			return
		}
	}
}

// sendPing writes one keepalive probe on an idle conn; runConn calls
// it from the writer goroutine. Reports false when the conn should be
// abandoned.
func (l *peerLink) sendPing(bw *bufio.Writer) bool {
	l.mu.Lock()
	if l.readerErr != nil || l.unacked() > 0 {
		// New traffic or a dead conn beat the probe; the main loop
		// handles either.
		ok := l.readerErr == nil
		l.mu.Unlock()
		return ok
	}
	l.pings++
	l.mu.Unlock()
	if writeEmptyFrame(bw, framePing) != nil {
		return false
	}
	l.h.counters.pings.Add(1)
	return true
}

// applyAck applies a cumulative ack that arrived piggybacked on the
// peer's reverse-direction data frames (read by serveConn, not by this
// session's own ack reader). The nonce check discards acks for a
// previous incarnation of this sender: after a restart the peer may
// briefly stamp the old stream's counters, which must not ack the new
// stream's seqs. l.nonce is immutable after construction.
//
// Unlike the rare standalone acks, piggybacked acks arrive on every
// reverse data frame, so waking the writer per ack would cost a
// goroutine switch per message. The writer is woken only once the
// untrimmed backlog is worth a trim pass (well before senders block on
// a full queue); otherwise progress is observed at the writer's next
// natural wakeup, and the ack-silence check sees l.acked directly.
func (l *peerLink) applyAck(nonce, ack uint64) {
	if nonce != l.nonce {
		return
	}
	l.mu.Lock()
	progress := ack > l.acked
	if progress {
		l.acked = ack
		l.pings = 0 // the peer is alive; reset the probe budget
	}
	mustWake := progress && l.unacked() >= maxUnacked/2
	l.mu.Unlock()
	if mustWake {
		l.wake()
	}
}

// readAcks consumes cumulative acks and keepalive pongs from one conn;
// any read error closes that conn and, if it is still the session's
// current one, flags the writer to redial.
func (l *peerLink) readAcks(conn net.Conn) {
	defer l.h.wg.Done()
	br := bufio.NewReader(conn)
	scratch := getFrameBuf()
	defer func() { putFrameBuf(scratch) }() // scratch may be regrown by readFrame
	for {
		kind, body, err := readFrame(br, &scratch)
		if err == nil && kind == frameAck {
			var a uint64
			if a, _, err = decUvarint(body); err == nil {
				l.mu.Lock()
				if a > l.acked {
					l.acked = a
				}
				l.pings = 0
				l.mu.Unlock()
				l.h.counters.acksReceived.Add(1)
				l.wake()
				continue
			}
		}
		if err == nil && kind == framePong {
			l.mu.Lock()
			l.pings = 0
			l.mu.Unlock()
			l.h.counters.pongs.Add(1)
			continue
		}
		if err == nil {
			continue // tolerate unknown frame kinds from newer peers
		}
		l.mu.Lock()
		if l.conn == conn && l.readerErr == nil {
			l.readerErr = err
		}
		l.mu.Unlock()
		_ = conn.Close()
		l.wake()
		return
	}
}

// shutdown force-closes the session's current conn and releases any
// sender blocked on a full queue (host shutdown).
func (l *peerLink) shutdown() {
	l.mu.Lock()
	l.closed = true
	conn := l.conn
	l.broadcastSpace()
	l.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}
