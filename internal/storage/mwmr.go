package storage

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/transport"
)

// This file is the MWMR (multi-writer multi-reader) variant of the
// storage: an ABD-style emulation over the refined quorum system's
// class-3 quorums, with writes ordered by 〈timestamp, writer-id〉 tags
// compared lexicographically. Unlike the SWMR protocol of Figures 5-7,
// which exploits synchrony (the 2Δ timer) and quorum classes 1 and 2
// for sub-3-round operations under Byzantine servers, the MWMR variant
// is fully asynchronous and crash-tolerant:
//
//   - a write is two phases: a read phase that discovers the maximum
//     tag at some quorum, then a write phase that stores the value
//     under 〈maxTS+1, writerID〉 at some quorum;
//   - a read is one phase plus a writeback, with a fast path: when
//     every member of some contained class-3 quorum reports the same
//     maximum tag, the value provably already resides at a quorum and
//     the writeback is skipped — the multi-writer analogue of the
//     paper's best-case fast reads.
//
// The fast path is safe in the crash model because server tags are
// monotone: if a full quorum Q reports tag t, every later phase-1
// quorum intersects Q (Property 1) in a server whose tag is still
// ≥ t, so no later operation selects an older tag. Durable servers
// extend the argument across kill -9: monotonicity only survives a
// restart for tags the WAL has fsynced, so MWReadAck.Synced marks
// whether the report is behind the fsync horizon and only synced
// reports count toward the fast-path quorum (unsynced ones still
// seed tag selection — a lost tag is only ever replaced by a higher
// one). Tolerating Byzantine servers additionally requires
// authenticated tags: with an auth.Deployment installed (see auth.go)
// writers sign their tags, servers countersign read acks, and clients
// discard acks that fail verification — completing once a fully
// verified class-3 quorum remains.
//
// Every writer must use a distinct writer ID; KVClient derives it from
// the port's process ID, which deployments already keep unique.

// Tag orders MWMR writes: lexicographic on (TS, Writer). The zero Tag
// is the initial tag of the register (before any write).
type Tag struct {
	TS     int64
	Writer core.ProcessID
}

// Less reports whether t orders strictly before u.
func (t Tag) Less(u Tag) bool {
	if t.TS != u.TS {
		return t.TS < u.TS
	}
	return t.Writer < u.Writer
}

// IsZero reports whether t is the initial tag.
func (t Tag) IsZero() bool { return t == Tag{} }

// String renders the tag as 〈ts,writer〉 for errors and logs.
func (t Tag) String() string {
	return "〈" + strconv.FormatInt(t.TS, 10) + "," + strconv.Itoa(int(t.Writer)) + "〉"
}

// Packed folds the tag into one int64 that preserves the lexicographic
// order: TS in the high bits, writer ID in the low 16. It lets the
// histcheck package — which orders operations by a single int64
// timestamp — check MWMR histories unchanged. Writer IDs are process
// IDs, far below 2^16 (core.MaxProcesses = 64).
func (t Tag) Packed() int64 { return t.TS<<16 | int64(t.Writer) }

// MWMR protocol messages. Seq is the issuing client's operation
// sequence number; replies travel point-to-point back to that client,
// so (client, Seq) pairs never collide and stale acks are filtered by
// Seq alone (clients run one operation — on one key — at a time, so
// acks need not echo the key). Each client incarnation starts its
// sequence at a random 62-bit nonce: a fresh process reusing a slot
// must not match acks the reliable links retransmit from its
// predecessor's operations (which may concern a different key). Key
// addresses one register of the server's keyspace.

// MWReadReq queries a server's current 〈tag, value〉 for one key (the
// read phase of both mw-reads and mw-writes).
type MWReadReq struct {
	Seq int64
	Key string
	// TagOnly marks a writer's tag query: the caller only needs the
	// maximum timestamp to pick a higher one, so the ack omits the
	// value and both signatures and the client counts it unverified.
	// This is safe where a full read is not: a Byzantine server lying
	// in a tag query can only inflate the writer's next timestamp
	// (tags stay bound to their genuine writers by the write-phase
	// signature), never smuggle a forged value–writer binding into a
	// returned read. Cuts the authenticated write's MAC bill from
	// ~2·quorum to ~1 per operation.
	TagOnly bool
}

// MWReadAck carries the server's current pair back.
type MWReadAck struct {
	Seq int64
	Tag Tag
	Val string
	// Synced reports whether the pair is covered by the server's WAL
	// fsync horizon (always true on a volatile server). Only synced
	// reports count toward the read fast path: a tag that a kill -9
	// could still erase from this server must not contribute to the
	// quorum that lets a reader skip its writeback.
	Synced bool
	// WSig is the writer's signature over 〈key, tag, digest(val)〉,
	// forwarded verbatim from the write that installed the pair. Empty
	// on unauthenticated deployments and for the zero tag.
	WSig []byte
	// SSig is the answering server's countersignature over the ack
	// (binding this request's Seq — see auth.go). Empty on
	// unauthenticated deployments.
	SSig []byte
}

// MWWriteReq asks a server to store 〈tag, val〉 under a key if tag is
// newer than what it holds (the write phase of mw-writes and read
// writebacks).
type MWWriteReq struct {
	Seq int64
	Key string
	Tag Tag
	Val string
	// Sig is Tag.Writer's signature over 〈key, tag, digest(val)〉.
	// Read writebacks forward the original writer's signature. Empty
	// on unauthenticated deployments and for zero-tag writebacks.
	Sig []byte
}

// MWWriteAck acknowledges an MWWriteReq.
type MWWriteAck struct {
	Seq int64
}

// mwClient is the MWMR client behind KVClient, one per shard group: a
// client port, reused quorum trackers, the per-phase sequence counter,
// and the operation in flight as a step function (Get, Put or CAS; see
// kv.go). Like the SWMR clients, an mwClient runs one operation at a
// time; concurrency comes from deploying many clients. There is no
// timeout knob: its phases never arm the 2Δ timer (the protocol is
// asynchronous), and they are wait-free while a correct quorum is
// reachable.
type mwClient struct {
	client
	seq int64
	tr  *core.QuorumTracker
	// applied tracks the servers that applied the current CAS; built on
	// the client's first CAS, reset by each later one.
	applied *core.QuorumTracker

	// The operation in flight: its key and value, and the phase it is
	// in — a read phase then a write phase (Get, and Put, whose read
	// phase is tagOnly), or a single CAS phase.
	phase   mwPhase
	tagOnly bool
	key     string
	val     string
	tag     Tag       // the write phase's tag (Put: the result)
	cas     CASResult // the CAS verdict so far
	refused core.Set  // servers that refused the CAS

	// Read-phase scratch, reset per phase: the maximum tag seen and
	// the set of servers that reported it as synced (durably held, so
	// eligible to support the fast path — volatile servers report
	// everything synced).
	maxTag  Tag
	maxVal  string
	maxSig  []byte // writer signature accompanying maxTag (writeback forwarding)
	withMax core.Set

	// Authenticated-deployment state (nil/zero when auth is off).
	signer   auth.Signer   // signs this client's own write/CAS tags
	verifier auth.Verifier // checks read-ack signatures; failures are discarded
	rejected uint64        // read acks discarded for failed verification
	bodyBuf  []byte        // canonical signing-body scratch
	dmemo    digestMemo    // last value digest (signing bodies repeat one value)

	// Memo of a writer signature verified earlier in the CURRENT read
	// phase: a quorum's acks overwhelmingly repeat one 〈key, tag, val,
	// wsig〉 tuple, and re-verifying it per ack would double the phase's
	// MAC bill. Sound because only an exact match of all four skips;
	// invalidated at phase start so a revocation takes effect no later
	// than the next operation. The fields themselves survive
	// invalidation as retained allocations — successive phases over the
	// same register re-verify but rarely need to re-clone.
	vValid bool
	vKey   string
	vTag   Tag
	vVal   string
	vSig   []byte
}

func newMWClient(rqs *core.RQS, port transport.Port) mwClient {
	// Random seq start: acks retransmitted to a restarted client
	// process (same slot, fresh incarnation) must not match the new
	// incarnation's sequence numbers. 2^62 of headroom remains.
	return mwClient{client: client{rqs: rqs, port: port}, tr: rqs.NewTracker(), seq: rand.Int63n(1 << 62)}
}

// setAuth installs this client's key material: a verifier to screen
// read acks and (for writers) a signer for its own tags. Must be set
// before the first operation.
func (c *mwClient) setAuth(signer auth.Signer, verifier auth.Verifier) {
	c.signer, c.verifier = signer, verifier
}

// signTag returns this client's writer signature for 〈key, tag, val〉,
// or nil when the deployment is unauthenticated.
func (c *mwClient) signTag(key string, tag Tag, val string) []byte {
	if c.signer == nil {
		return nil
	}
	c.bodyBuf = tagBodyD(c.bodyBuf[:0], key, tag, c.dmemo.of(val))
	return c.signer.Sign(c.bodyBuf)
}

// verifyReadAck checks a read ack's server countersignature and — for
// non-zero tags — the writer signature on the reported pair. With no
// verifier installed everything passes.
func (c *mwClient) verifyReadAck(from core.ProcessID, key string, ack MWReadAck) bool {
	if c.verifier == nil {
		return true
	}
	d := c.dmemo.of(ack.Val)
	c.bodyBuf = ackBodyD(c.bodyBuf[:0], from, c.seq, key, ack.Tag, d, ack.Synced)
	if !c.verifier.Verify(from, c.bodyBuf, ack.SSig) {
		return false
	}
	if ack.Tag.IsZero() {
		// The initial ⊥ pair predates every writer; only the
		// countersignature vouches for it.
		return true
	}
	if c.vValid && ack.Tag == c.vTag && key == c.vKey && ack.Val == c.vVal && bytes.Equal(ack.WSig, c.vSig) {
		return true
	}
	c.bodyBuf = tagBodyD(c.bodyBuf[:0], key, ack.Tag, d)
	if !c.verifier.Verify(ack.Tag.Writer, c.bodyBuf, ack.WSig) {
		return false
	}
	// Clone into the memo: ack.Val/ack.WSig may alias a receive arena
	// that recycles after the envelope releases. The previous phase's
	// clones are reused when the contents match (the common case —
	// phase after phase over one register sees one tuple).
	if key != c.vKey {
		c.vKey = strings.Clone(key)
	}
	if ack.Val != c.vVal {
		c.vVal = strings.Clone(ack.Val)
	}
	if !bytes.Equal(ack.WSig, c.vSig) {
		c.vSig = bytes.Clone(ack.WSig)
	}
	c.vTag, c.vValid = ack.Tag, true
	return true
}

// mwPhase is the phase an mwClient's operation is in.
type mwPhase int

const (
	phaseRead mwPhase = iota
	phaseWrite
	phaseCAS
)

// Deliver feeds a reply to the phase in flight.
func (c *mwClient) Deliver(env transport.Envelope) Step {
	switch c.phase {
	case phaseRead:
		if !c.readAck(env) {
			return Step{}
		}
		return c.afterRead()
	case phaseWrite:
		ack, isAck := env.Payload.(MWWriteAck)
		env.Release()
		if isAck && ack.Seq == c.seq && c.tr.Add(env.From) {
			if _, ok := c.tr.Contained(core.Class3); ok {
				return Step{Done: true}
			}
		}
		return Step{}
	}
	return c.casAck(env)
}

// Expire is never called: MWMR phases arm no timer.
func (c *mwClient) Expire() Step { return Step{} }

// readPhase broadcasts MWReadReq for the key; its acks (readAck) track
// the maximum tag and who reported it, until some class-3 quorum
// responded. A tagOnly phase is the writer's cut-down read: its acks
// carry no value and no signatures and are counted unverified (see
// MWReadReq.TagOnly for why that is sound); only maxTag is meaningful
// afterwards.
func (c *mwClient) readPhase(tagOnly bool) Step {
	c.seq++
	c.phase, c.tagOnly = phaseRead, tagOnly
	c.tr.Reset()
	c.maxTag, c.maxVal, c.maxSig, c.withMax = Tag{}, NoValue, nil, core.EmptySet
	c.vValid = false
	return Step{Send: MWReadReq{Seq: c.seq, Key: c.key, TagOnly: tagOnly}}
}

// readAck counts one read-phase reply, verifying it on authenticated
// deployments, and reports whether the phase ended.
func (c *mwClient) readAck(env transport.Envelope) bool {
	ack, isAck := env.Payload.(MWReadAck)
	switch {
	case !isAck || ack.Seq != c.seq:
		env.Release()
		return false
	case c.tagOnly:
		if c.maxTag.Less(ack.Tag) {
			c.maxTag = ack.Tag
		}
	case !c.verifyReadAck(env.From, c.key, ack):
		// A forged, tampered, or replayed ack: discard it without
		// counting the sender toward the quorum. The phase still
		// completes once a fully verified class-3 quorum answers.
		c.rejected++
		env.Release()
		return false
	case c.maxTag.Less(ack.Tag):
		val := ack.Val
		if env.Aliased() {
			// The adopted value may outlive the envelope (it is the
			// phase's result); unalias it from the receive arena.
			val = strings.Clone(val)
		}
		// Clone the writer signature too: it is forwarded in the
		// writeback and must outlive both the receive arena and this
		// phase.
		c.maxTag, c.maxVal, c.maxSig, c.withMax = ack.Tag, val, bytes.Clone(ack.WSig), core.EmptySet
		if ack.Synced {
			c.withMax = core.NewSet(env.From)
		}
	case ack.Tag == c.maxTag && ack.Synced:
		c.withMax = c.withMax.Add(env.From)
	}
	env.Release()
	if c.tr.Add(env.From) {
		_, ok := c.tr.Contained(core.Class3)
		return ok
	}
	return false
}

// afterRead continues an operation once its read phase ended. A Get
// returns at once when the servers that reported the maximum tag
// contain a class-3 quorum — the value provably resides at a quorum
// (the uncontended fast path) — and writes it back otherwise. A Put
// writes its value under 〈maxTS+1, clientID〉.
func (c *mwClient) afterRead() Step {
	if !c.tagOnly {
		if _, ok := c.rqs.ContainedQuorum(c.withMax, core.Class3); ok {
			return Step{Done: true}
		}
		return c.writePhase(c.maxTag, c.maxVal, c.maxSig)
	}
	tag := Tag{TS: c.maxTag.TS + 1, Writer: c.port.ID()}
	return c.writePhase(tag, c.val, c.signTag(c.key, tag, c.val))
}

// writePhase broadcasts MWWriteReq〈tag, val〉 for the key; it ends once
// some class-3 quorum acked. sig is the tag's writer signature (the
// client's own for fresh writes, the original writer's for writebacks;
// nil when auth is off).
func (c *mwClient) writePhase(tag Tag, val string, sig []byte) Step {
	c.seq++
	c.phase, c.tag = phaseWrite, tag
	c.tr.Reset()
	return Step{Send: MWWriteReq{Seq: c.seq, Key: c.key, Tag: tag, Val: val, Sig: sig}}
}
