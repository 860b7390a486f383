package storage

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Hooks let the fault-injection layer turn a server Byzantine. All hooks
// are optional; a zero Hooks value is an honest server. Hooks run on the
// server's goroutine, outside the server's state locks (a hook may call
// back into accessors like HistorySnapshot). Hooks apply to every key of
// the keyspace; the chaos scenarios that use them address the legacy
// key-"" register.
type Hooks struct {
	// ForgeHistory, if non-nil, replaces the history sent in read acks
	// (state forging, as the Byzantine servers of the Theorem 3 proof do
	// when they revert to σ0 or fabricate σ1).
	ForgeHistory func() History
	// DropWrite, if non-nil and returning true, silently ignores a write
	// request ("forgetting" rounds, as in execution ex4 of Figure 4).
	DropWrite func(from core.ProcessID, req WriteReq) bool
	// DropRead, if non-nil and returning true, silently ignores a read
	// request.
	DropRead func(from core.ProcessID, req ReadReq) bool
	// ForgeMWRead, if non-nil, replaces the 〈tag, value〉 this server
	// reports in MWMR read acks — the Byzantine stale/forged-tag mode:
	// returning an old tag makes the server deny completed writes,
	// returning a fabricated 〈ts, writer-id〉 tag makes it invent them.
	// Whether either lie can reach a reader's return value is exactly
	// the class-3 intersection question the chaos campaigns test. On an
	// authenticated deployment the forged ack carries no valid
	// signatures (the hook bypasses the signing path, exactly like a
	// compromised server that does not hold the writers' keys), so
	// verifying clients discard it.
	ForgeMWRead func(from core.ProcessID) (Tag, string)
	// ReplayMWRead, if non-nil and returning true, makes the server
	// answer the MWMR read with a *captured* earlier ack — the first
	// one it ever served for that key — with only the Seq field
	// rewritten to match the current request. This is the Byzantine
	// replay attack against authenticated tags: the stale pair carries
	// a perfectly valid writer signature, and only the server
	// countersignature (which binds the requesting client's fresh seq)
	// exposes the reuse. Until a first ack has been captured for the
	// key the server answers honestly.
	ReplayMWRead func(from core.ProcessID) bool
}

// serverBurst bounds how many inbox envelopes the server drains per
// wakeup. One burst takes each touched shard's lock once per key-run
// and batches same-destination acks into one transport submission,
// which is what amortizes per-message locking when many clients hit
// one server. The bound keeps a flooded server from starving Stop.
//
// Fairness across keys: a burst is served strictly in inbox arrival
// order (FIFO), never grouped or reordered by key, so a hot key cannot
// starve requests for other keys — a cold key's request is answered in
// the same burst it arrives in, after at most the serverBurst-1
// envelopes queued ahead of it. TestBurstKeyFairness pins this bound.
const serverBurst = 64

// kvShardCount is the fixed number of shards of a server's keyspace.
// Requests for keys on different shards contend only on the shard
// mutex, never a global one; 16 shards keep per-shard maps small
// without measurable lookup overhead.
const kvShardCount = 16

// regState is the full per-key register state: the SWMR history of
// Figure 6 plus the tag-ordered MWMR register. States are created
// lazily on first touch; History stays nil until the first SWMR write
// (nil-safe: History.Slot and Clone treat nil as empty).
type regState struct {
	history History
	// histShared marks the history map as referenced by previously
	// handed-out read acks: the next write copies it instead of
	// mutating in place (copy-on-write), so read acks share one
	// snapshot between writes instead of deep-cloning per read.
	histShared bool
	mwTag      Tag    // MWMR register: current tag ...
	mwVal      string // ... and value, monotone in tag order
	// mwSig is the writer signature that arrived with the current
	// 〈mwTag, mwVal〉 pair (nil on unauthenticated deployments). Read
	// acks forward it so clients can re-verify the pair's provenance.
	// The slice is never mutated in place — a newer write replaces the
	// reference — so acks already queued keep a consistent snapshot.
	mwSig []byte
}

// kvShard is one shard of the keyspace: a mutex and the states of the
// keys that hash to it.
type kvShard struct {
	mu   sync.Mutex
	regs map[string]*regState
}

// reg returns the shard's state for key, creating it lazily. Callers
// hold sh.mu. The inserted map key is cloned: request keys decoded off
// the TCP path alias a recycled receive arena and must not outlive the
// envelope that carried them.
func (sh *kvShard) reg(key string) *regState {
	r := sh.regs[key]
	if r == nil {
		r = &regState{}
		sh.regs[strings.Clone(key)] = r
	}
	return r
}

// peek returns the shard's state for key without creating it — the
// staleness pre-check on writes must not let unverified requests
// populate the register map. Callers hold sh.mu.
func (sh *kvShard) peek(key string) *regState { return sh.regs[key] }

// shardOf maps a key to its shard (FNV-1a; deterministic so tests can
// construct same-shard and cross-shard key sets).
func shardOf(key string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % kvShardCount)
}

// mwState is a precomputed forged MWMR reply (phase 1 of handleBurst).
type mwState struct {
	tag Tag
	val string
}

// ackBucket accumulates one burst's replies to a single destination at
// a single hop depth, flushed through Port.SendBatch.
type ackBucket struct {
	to   core.ProcessID
	hop  int
	msgs []transport.Message
}

// syncBatch is one group-commit round's acks, parked until the
// syncer's next fdatasync covers the round's WAL records.
type syncBatch struct {
	acks []ackBucket
	n    int
}

// Server is one storage server. It hosts a keyspace of registers over
// a single port: per key, the SWMR history of Figure 6 and the
// tag-ordered MWMR register (mwmr.go), behind a sharded map with
// per-shard mutexes, created lazily on first touch. The key-less
// protocol clients (Writer/Reader, MWWriter/MWReader) address key "".
// Run processes its inbox until the port's inbox closes; Stop aborts
// earlier.
//
// The inbox is drained in bursts (up to serverBurst envelopes per
// wakeup): the burst executes in arrival order holding one shard lock
// at a time (consecutive same-shard requests — all of them, for
// single-key workloads — share one acquisition) and its acks are
// grouped per destination into batched sends.
type Server struct {
	id    core.ProcessID
	port  transport.Port
	hooks Hooks

	// Authenticated-deployment state (nil when auth is off — see
	// auth.go). The server verifies writer signatures before applying
	// writes, countersigns its read acks, and silently drops writes
	// whose signature fails (the sender is either Byzantine or outside
	// the deployment; an honest quorum still acks). authBuf and
	// replayCap are touched only by the server goroutine.
	signer       auth.Signer
	verifier     auth.Verifier
	authRejects  atomic.Uint64
	authBuf      []byte
	appendSigner auth.AppendSigner    // signer's append form, nil if unsupported
	sigSlab      []byte               // countersignature slab (see signAck)
	dmemo        digestMemo           // last value digest (bursts repeat one value)
	replayCap    map[string]MWReadAck // Hooks.ReplayMWRead capture, keyed by register

	shards [kvShardCount]kvShard

	// acks is the per-burst reply accumulator; buckets and their msgs
	// slices are reused across bursts (the transports do not retain
	// the payload slice past the SendBatch call). Only the server
	// goroutine touches it. roAcks accumulates the burst's MWMR read
	// acks, which flush at the end of the burst without waiting for
	// any group commit in flight: they never claim durability (the
	// Synced bit says exactly what survives a crash), so holding them
	// behind an fsync would only add latency.
	acks     []ackBucket
	acksUsed int
	roAcks   []ackBucket
	roUsed   int

	// Durability (nil for a volatile server — see durable.go). The wal
	// receives one record per applied mutation during phase 2. Group
	// commit is leader-style: at most one fdatasync is ever in flight,
	// and while it runs the server loop keeps draining its inbox,
	// accumulating every new burst's records and mutation acks into ONE
	// held batch (s.acks/burstLogged). When the syncer signals the
	// round complete, the held batch is handed over as the next round.
	// One disk flush therefore covers everything that arrived during
	// the previous flush — the classic group-commit pipeline — instead
	// of each small burst paying its own round. The invariant is an ack
	// horizon: no ack leaves while any record appended before it is
	// still un-synced, so acks never expose state a kill -9 could
	// erase. Bursts that touch a fully synced log (every burst of a
	// pure-read workload) flush inline.
	wal           *wal.Log
	walBuf        []byte // encode scratch (server goroutine only)
	snapBuf       []byte // compaction encode scratch (syncer only)
	walEncodeFail atomic.Bool
	maxSegments   int  // compaction trigger
	burstLogged   int  // records appended, not yet handed to the syncer
	syncBusy      bool // a commit round is in flight (run loop only)
	syncCh        chan syncBatch
	syncIdleCh    chan struct{}    // syncer → run loop: round complete
	syncFree      chan []ackBucket // recycled ack-bucket slices
	walDead       chan struct{}    // closed by the syncer on WAL failure
	syncerDone    chan struct{}

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewServer creates a server bound to the given port.
func NewServer(port transport.Port, hooks Hooks) *Server {
	s := &Server{
		id:    port.ID(),
		port:  port,
		hooks: hooks,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for i := range s.shards {
		s.shards[i].regs = make(map[string]*regState)
	}
	return s
}

// SetAuth installs the server's key material: its own signer for
// countersigning read acks and the deployment verifier for screening
// incoming writes. Must be called before Start.
func (s *Server) SetAuth(signer auth.Signer, verifier auth.Verifier) {
	s.signer, s.verifier = signer, verifier
	s.appendSigner, _ = signer.(auth.AppendSigner)
}

// signAck returns the server's countersignature over body. With an
// append-capable signer the signature is carved from a slab instead of
// allocated per ack — servers countersign every read ack they serve,
// so this is one allocation per ack on the hot path otherwise. Slab
// chunks are retained by the acks that carry them; a filled slab is
// simply dropped for a fresh one.
func (s *Server) signAck(body []byte) []byte {
	if s.appendSigner == nil {
		return s.signer.Sign(body)
	}
	if cap(s.sigSlab)-len(s.sigSlab) < 64 {
		s.sigSlab = make([]byte, 0, 4096)
	}
	n := len(s.sigSlab)
	s.sigSlab = s.appendSigner.AppendSign(s.sigSlab, body)
	return s.sigSlab[n:len(s.sigSlab):len(s.sigSlab)]
}

// AuthRejects returns how many write/CAS requests this server refused
// to apply because the writer signature failed verification. Safe for
// concurrent use.
func (s *Server) AuthRejects() uint64 { return s.authRejects.Load() }

// Start launches the server loop in its own goroutine.
func (s *Server) Start() {
	go s.run()
}

// Stop terminates the server loop and waits for it to exit. Safe for
// concurrent use: the stop channel closes exactly once. A durable
// server's log is released only after the loop has drained, so no
// in-flight burst can race the close.
func (s *Server) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
	if s.wal != nil {
		s.wal.Close()
	}
}

// RegSnapshot is the captured state of one key's register.
type RegSnapshot struct {
	History History
	MWTag   Tag
	MWVal   string
	MWSig   []byte // writer signature of the pair (authenticated deployments)
}

// ServerState is a full keyspace snapshot, keyed by register key.
type ServerState map[string]RegSnapshot

// StateSnapshot deep-copies the server's entire keyspace, for carrying
// state across a scripted crash/restart and for assertions.
func (s *Server) StateSnapshot() ServerState {
	out := make(ServerState)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for key, reg := range sh.regs {
			out[key] = RegSnapshot{History: reg.history.Clone(), MWTag: reg.mwTag, MWVal: reg.mwVal, MWSig: bytes.Clone(reg.mwSig)}
		}
		sh.mu.Unlock()
	}
	return out
}

// SetState replaces the server's entire keyspace with a deep copy of
// st (the restart half of StateSnapshot).
func (s *Server) SetState(st ServerState) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.regs = make(map[string]*regState)
		sh.mu.Unlock()
	}
	for key, snap := range st {
		sh := &s.shards[shardOf(key)]
		sh.mu.Lock()
		sh.regs[key] = &regState{history: snap.History.Clone(), mwTag: snap.MWTag, mwVal: snap.MWVal, mwSig: bytes.Clone(snap.MWSig)}
		sh.mu.Unlock()
	}
}

// HistorySnapshot returns a deep copy of the server's current history
// for the legacy key-"" register, for assertions and Byzantine state
// capture. Legacy: keyspace-wide capture is StateSnapshot.
func (s *Server) HistorySnapshot() History {
	sh := &s.shards[shardOf("")]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if reg := sh.regs[""]; reg != nil {
		return reg.history.Clone()
	}
	return make(History)
}

// MWSnapshot returns the current tag and value of the legacy key-""
// MWMR register, for assertions on server state. Legacy: keyspace-wide
// capture is StateSnapshot.
func (s *Server) MWSnapshot() (Tag, string) {
	sh := &s.shards[shardOf("")]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if reg := sh.regs[""]; reg != nil {
		return reg.mwTag, reg.mwVal
	}
	return Tag{}, NoValue
}

// SetHistory overwrites the legacy key-"" register's history (used by
// fault injection to forge state transitions that a Byzantine process
// may perform). Legacy: keyspace-wide restore is SetState.
func (s *Server) SetHistory(h History) {
	sh := &s.shards[shardOf("")]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	reg := sh.reg("")
	reg.history = h.Clone()
	reg.histShared = false
}

// SetMW overwrites the legacy key-"" MWMR register state (used with
// MWSnapshot to carry state across a scripted crash/restart, and by
// fault injection). Legacy: keyspace-wide restore is SetState.
func (s *Server) SetMW(tag Tag, val string) {
	sh := &s.shards[shardOf("")]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	reg := sh.reg("")
	// Forged state has no provenance; any previously stored writer
	// signature no longer matches the pair.
	reg.mwTag, reg.mwVal, reg.mwSig = tag, val, nil
}

func (s *Server) run() {
	defer close(s.done)
	if s.wal != nil {
		s.syncCh = make(chan syncBatch, 1)
		s.syncIdleCh = make(chan struct{}, 1)
		s.syncFree = make(chan []ackBucket, 2)
		s.walDead = make(chan struct{})
		s.syncerDone = make(chan struct{})
		go s.syncer()
		// Runs before close(s.done): the syncer finishes its round
		// before Stop releases the log.
		defer func() { close(s.syncCh); <-s.syncerDone }()
	}
	var burst []transport.Envelope
	for {
		select {
		case <-s.stop:
			return
		case <-s.walDead: // nil (never ready) on a volatile server
			return
		case <-s.syncIdleCh: // nil (never ready) on a volatile server
			// The commit round completed and its acks are out. Hand
			// over whatever accumulated while it ran as the next round.
			s.syncBusy = false
			if s.burstLogged > 0 || s.acksUsed > 0 {
				s.burstLogged = 0
				if !s.enqueueSync() {
					return
				}
				s.syncBusy = true
			}
		case env, ok := <-s.port.Inbox():
			if !ok {
				return
			}
			burst = append(burst[:0], env)
			// Opportunistically drain what else is already queued, so a
			// contended server pays one lock round and one ack batch per
			// burst instead of per message.
		fill:
			for len(burst) < serverBurst {
				select {
				case env, ok := <-s.port.Inbox():
					if !ok {
						break fill
					}
					burst = append(burst, env)
				default:
					break fill
				}
			}
			if !s.handleBurst(burst) {
				// Durability failed: the server must not keep serving
				// (and acking) state its log cannot guarantee.
				return
			}
		}
	}
}

// handleBurst executes one drained burst: hooks run first (unlocked —
// they may call back into the server), then every surviving request is
// applied in arrival order holding one shard lock at a time (runs of
// same-shard requests share one acquisition), and finally the
// accumulated acks flush as per-destination batches — inline on a
// volatile server, or via the syncer's group commit on a durable one
// whose log has un-synced records. It reports false when the WAL
// failed: the acks are dropped (they would acknowledge non-durable
// state) and the caller stops the loop.
func (s *Server) handleBurst(burst []transport.Envelope) bool {
	// Phase 1: fault-injection hooks, outside the locks. Dropped
	// requests are nilled out; forged read acks are precomputed, one
	// hook call per surviving read, exactly as unbatched serving did.
	var forged []History
	var forgedMW []mwState
	var replay []bool
	hasForge := s.hooks.ForgeHistory != nil
	hasMWForge := s.hooks.ForgeMWRead != nil
	hasReplay := s.hooks.ReplayMWRead != nil
	for i := range burst {
		switch req := burst[i].Payload.(type) {
		case WriteReq:
			if s.hooks.DropWrite != nil && s.hooks.DropWrite(burst[i].From, req) {
				burst[i].Payload = nil
			}
		case ReadReq:
			if s.hooks.DropRead != nil && s.hooks.DropRead(burst[i].From, req) {
				burst[i].Payload = nil
			} else if hasForge {
				if forged == nil {
					forged = make([]History, len(burst))
				}
				forged[i] = s.hooks.ForgeHistory()
			}
		case MWReadReq:
			if hasMWForge {
				if forgedMW == nil {
					forgedMW = make([]mwState, len(burst))
				}
				tag, val := s.hooks.ForgeMWRead(burst[i].From)
				forgedMW[i] = mwState{tag: tag, val: val}
			}
			if hasReplay {
				if replay == nil {
					replay = make([]bool, len(burst))
				}
				replay[i] = s.hooks.ReplayMWRead(burst[i].From)
			}
		}
	}

	// Phase 2: apply the burst in arrival order. The currently-locked
	// shard is cached across iterations: a single-key (or single-shard)
	// burst — every key-less legacy workload — still pays exactly one
	// lock acquisition, while mixed-key bursts re-lock only at shard
	// boundaries, preserving FIFO fairness across keys.
	locked := -1
	lock := func(key string) *kvShard {
		si := shardOf(key)
		if si != locked {
			if locked >= 0 {
				s.shards[locked].mu.Unlock()
			}
			s.shards[si].mu.Lock()
			locked = si
		}
		return &s.shards[si]
	}
	for i := range burst {
		env := &burst[i]
		switch req := env.Payload.(type) {
		case WriteReq:
			if env.Aliased() {
				req.Val = strings.Clone(req.Val)
			}
			if applyWrite(lock(req.Key).reg(req.Key), req) && s.wal != nil {
				s.logMutation(req)
			}
			s.ack(env.From, env.Hop+1, WriteAck{TS: req.TS, Round: req.Round})
		case ReadReq:
			var h History
			if hasForge {
				h = forged[i]
			} else {
				// Share the live map as an immutable snapshot; the
				// next write copies before mutating.
				reg := lock(req.Key).reg(req.Key)
				reg.histShared = true
				h = reg.history
			}
			s.ack(env.From, env.Hop+1, ReadAck{ReadNo: req.ReadNo, Round: req.Round, History: h})
		case MWWriteReq:
			sh := lock(req.Key)
			cur := Tag{}
			if reg := sh.peek(req.Key); reg != nil {
				cur = reg.mwTag
			}
			if cur.Less(req.Tag) {
				// Verify only writes that would actually apply. A
				// superseded write mutates nothing whatever its signature
				// says, so acking it unverified admits nothing into the
				// register — and under write contention most concurrent
				// writes ARE superseded on arrival (of k racing tags a
				// server applies only the running maxima, ~ln k of them),
				// which keeps the signed write path near the unsigned
				// one's cost.
				if !s.verifyWrite(req.Key, req.Tag, req.Val, req.Sig) {
					// A write whose claimed writer did not sign it:
					// silently drop (no apply, no ack). Honest writers are
					// unaffected — their quorum completes at the servers
					// that verified.
					s.authRejects.Add(1)
					continue
				}
				if env.Aliased() {
					req.Val = strings.Clone(req.Val)
					req.Sig = bytes.Clone(req.Sig)
				}
				if applyMW(sh.reg(req.Key), req.Tag, req.Val, req.Sig) && s.wal != nil {
					s.logMutation(req)
				}
			}
			s.ack(env.From, env.Hop+1, MWWriteAck{Seq: req.Seq})
		case MWReadReq:
			if hasMWForge {
				// A Byzantine server may lie about Synced like it lies
				// about the pair; class-3 masking covers both. The forged
				// ack deliberately carries no signatures: the hook models
				// a compromised server process, which holds neither the
				// writers' keys (to sign the fabricated pair) nor a will
				// to countersign honestly — verifying clients discard it.
				s.ackNow(env.From, env.Hop+1, MWReadAck{Seq: req.Seq, Tag: forgedMW[i].tag, Val: forgedMW[i].val, Synced: true})
			} else if hasReplay && replay[i] && s.serveReplay(env, req) {
				// Served a captured stale ack with only Seq rewritten.
			} else if req.TagOnly {
				// A writer's tag query: no value, no signatures (see
				// MWReadReq.TagOnly — a lie here only inflates the
				// writer's next timestamp).
				reg := lock(req.Key).reg(req.Key)
				s.ackNow(env.From, env.Hop+1, MWReadAck{Seq: req.Seq, Tag: reg.mwTag, Synced: s.walSynced()})
			} else {
				reg := lock(req.Key).reg(req.Key)
				ack := MWReadAck{Seq: req.Seq, Tag: reg.mwTag, Val: reg.mwVal, Synced: s.walSynced(), WSig: reg.mwSig}
				if s.signer != nil {
					s.authBuf = ackBodyD(s.authBuf[:0], s.id, req.Seq, req.Key, ack.Tag, s.dmemo.of(ack.Val), ack.Synced)
					ack.SSig = s.signAck(s.authBuf)
				}
				if hasReplay {
					s.captureAck(req.Key, ack)
				}
				s.ackNow(env.From, env.Hop+1, ack)
			}
		case KVCASReq:
			// Conditional apply: install 〈Tag, Val〉 iff the register
			// still holds exactly the expected tag. Tags never revisit
			// a value (they are monotone and Expect < Tag), so at most
			// one same-Expect CAS can observe Applied=true here — the
			// quorum-intersection argument for at-most-one CAS winner
			// per version rests on this (see kv.go). Strict equality
			// also rejects a client re-CASing an expect it already won
			// (its retry proposes the same tag but the register moved).
			sh := lock(req.Key)
			reg := sh.peek(req.Key)
			cur := Tag{}
			if reg != nil {
				cur = reg.mwTag
			}
			applied := false
			if cur == req.Expect {
				// As for MWWriteReq: only a CAS that would install its
				// pair needs its signature checked — a mismatched Expect
				// no-ops regardless.
				if !s.verifyWrite(req.Key, req.Tag, req.Val, req.Sig) {
					s.authRejects.Add(1)
					continue
				}
				if env.Aliased() {
					req.Val = strings.Clone(req.Val)
					req.Sig = bytes.Clone(req.Sig)
				}
				reg = sh.reg(req.Key)
				applied = applyCAS(reg, req.Expect, req.Tag, req.Val, req.Sig)
				if applied && s.wal != nil {
					s.logMutation(req)
				}
			}
			ack := KVCASAck{Seq: req.Seq, Applied: applied}
			if reg != nil {
				ack.Tag, ack.Val = reg.mwTag, reg.mwVal
			}
			s.ack(env.From, env.Hop+1, ack)
		}
	}
	if locked >= 0 {
		s.shards[locked].mu.Unlock()
	}

	// Everything the keyspace (or the WAL buffer) retains from this
	// burst has been cloned or encoded above, so the envelopes' receive
	// arenas can recycle now — acks parked for a group commit carry only
	// server-owned state.
	for i := range burst {
		burst[i].Release()
	}

	// Read acks leave immediately, ahead of any group commit in
	// flight: what they expose is qualified by Synced, so no fsync has
	// to cover them. Reordering ahead of parked mutation acks is safe —
	// every client matches replies by sequence number.
	s.flushBuckets(s.roAcks, s.roUsed)
	s.roUsed = 0

	// Group commit: if this burst logged records, or a commit round is
	// in flight (so the keyspace may expose state whose records are
	// not yet durable), the burst's acks park until a covering
	// fdatasync. With a round already running they simply stay
	// accumulated in s.acks — the idle signal hands them over as one
	// batch, which is where the amortization comes from. Otherwise —
	// a volatile server, or any burst on a fully synced log — the acks
	// flush inline below. When the run loop (and so the syncer) is not
	// running — tests drive handleBurst directly — the commit happens
	// synchronously instead.
	if s.wal != nil && (s.burstLogged > 0 || s.syncBusy) {
		if s.syncCh != nil {
			if s.syncBusy {
				return true // held for the next round
			}
			s.burstLogged = 0
			if !s.enqueueSync() {
				return false
			}
			s.syncBusy = true
			return true
		}
		s.burstLogged = 0
		if !s.syncWAL() {
			for i := 0; i < s.acksUsed; i++ {
				s.acks[i].msgs = s.acks[i].msgs[:0]
			}
			s.acksUsed = 0
			return false
		}
	}

	// Phase 3: flush acks, one batched send per (destination, hop).
	s.flushBuckets(s.acks, s.acksUsed)
	s.acksUsed = 0
	return true
}

// verifyWrite checks the writer signature on an MWMR write or CAS
// apply against the claimed Tag.Writer. Zero-tag writebacks (the
// initial ⊥ pair, which applyMW ignores anyway) carry no signature
// and pass. Trivially true without a verifier. Server goroutine only.
func (s *Server) verifyWrite(key string, tag Tag, val string, sig []byte) bool {
	if s.verifier == nil || tag.IsZero() {
		return true
	}
	s.authBuf = tagBodyD(s.authBuf[:0], key, tag, s.dmemo.of(val))
	return s.verifier.Verify(tag.Writer, s.authBuf, sig)
}

// captureAck records the first honest read ack served for key, for
// Hooks.ReplayMWRead to re-serve later. The ack's Val/WSig are
// server-owned (cloned on apply), so retaining them is safe.
func (s *Server) captureAck(key string, ack MWReadAck) {
	if s.replayCap == nil {
		s.replayCap = make(map[string]MWReadAck)
	}
	if _, ok := s.replayCap[key]; !ok {
		s.replayCap[strings.Clone(key)] = ack
	}
}

// serveReplay re-serves the ack captured for the request's key with
// only the Seq field rewritten — the Byzantine replay attack. The
// writer signature on the stale pair is still perfectly valid; the
// server countersignature, which binds the *original* request's seq,
// is what fails verification at an authenticated client. Reports
// false when nothing has been captured for the key yet.
func (s *Server) serveReplay(env *transport.Envelope, req MWReadReq) bool {
	cap, ok := s.replayCap[req.Key]
	if !ok {
		return false
	}
	cap.Seq = req.Seq
	s.ackNow(env.From, env.Hop+1, cap)
	return true
}

// flushBuckets sends the first n accumulated buckets and resets their
// message slices for reuse.
func (s *Server) flushBuckets(buckets []ackBucket, n int) {
	for i := 0; i < n; i++ {
		b := &buckets[i]
		if len(b.msgs) == 1 {
			s.port.SendHop(b.to, b.msgs[0], b.hop)
		} else {
			s.port.SendBatch(b.to, b.msgs, b.hop)
		}
		b.msgs = b.msgs[:0]
	}
}

// addAck appends one reply to a bucket accumulator, grouping by
// destination and hop depth, reusing bucket capacity across bursts.
func addAck(buckets []ackBucket, used *int, to core.ProcessID, hop int, msg transport.Message) []ackBucket {
	for i := 0; i < *used; i++ {
		if buckets[i].to == to && buckets[i].hop == hop {
			buckets[i].msgs = append(buckets[i].msgs, msg)
			return buckets
		}
	}
	if *used < len(buckets) {
		b := &buckets[*used]
		b.to, b.hop = to, hop
		b.msgs = append(b.msgs[:0], msg)
	} else {
		buckets = append(buckets, ackBucket{to: to, hop: hop, msgs: []transport.Message{msg}})
	}
	*used++
	return buckets
}

// ack queues one reply on the burst's group-commit-gated flush: it
// leaves only once every record appended before it is durable.
func (s *Server) ack(to core.ProcessID, hop int, msg transport.Message) {
	s.acks = addAck(s.acks, &s.acksUsed, to, hop, msg)
}

// ackNow queues one reply on the burst's immediate flush (read acks,
// which carry their own durability qualifier).
func (s *Server) ackNow(to core.ProcessID, hop int, msg transport.Message) {
	s.roAcks = addAck(s.roAcks, &s.roUsed, to, hop, msg)
}

// walSynced reports whether every record appended to the WAL is
// already covered by an fdatasync — trivially true on a volatile
// server. Exactly when this holds, the keyspace state a read ack
// exposes is guaranteed to survive a kill -9.
func (s *Server) walSynced() bool {
	return s.wal == nil || (s.burstLogged == 0 && !s.syncBusy)
}

// enqueueSync hands the accumulated acks to the syncer as one commit
// round and swaps in a recycled (or nil) ack buffer. Only called with
// no round in flight, so the send never blocks on a busy syncer. It
// reports false when the WAL has already failed — the server must
// stop (dropping the acks, which would acknowledge non-durable state).
func (s *Server) enqueueSync() bool {
	batch := syncBatch{acks: s.acks, n: s.acksUsed}
	var fresh []ackBucket
	select {
	case fresh = <-s.syncFree:
	default:
	}
	s.acks, s.acksUsed = fresh, 0
	select {
	case s.syncCh <- batch:
		return true
	case <-s.walDead:
		return false
	}
}

// syncer is the durable server's group-commit goroutine: one commit
// round at a time — wal.Sync (one fdatasync covering every record
// appended so far, including any that landed after the round's acks
// were handed over), then flush the round's acks, then signal the run
// loop so it hands over the batch that accumulated meanwhile. While
// the fdatasync blocks, the server loop keeps serving — that overlap
// is what lets one disk flush amortize over many bursts. On a WAL
// failure it drops the round's acks and closes walDead, which stops
// the server loop: an ack must never acknowledge state the log cannot
// guarantee.
func (s *Server) syncer() {
	defer close(s.syncerDone)
	for batch := range s.syncCh {
		if !s.syncWAL() {
			close(s.walDead)
			for range s.syncCh { // unblock a producer mid-send
			}
			return
		}
		s.flushBatch(&batch)
		select {
		case s.syncIdleCh <- struct{}{}:
		default:
		}
	}
}

// flushBatch sends one round's acks (post-fsync) and recycles the
// bucket slice for the server loop.
func (s *Server) flushBatch(b *syncBatch) {
	s.flushBuckets(b.acks, b.n)
	select {
	case s.syncFree <- b.acks:
	default:
	}
}

// applyWrite implements lines 2-7 of Figure 6 against one key's
// register: for every round m ≤ rnd, store the pair unless a
// *different* pair already occupies the slot, and merge the class-2
// quorum ids into the final round's slot. Callers hold the register's
// shard mutex; if the current history map is shared with outstanding
// read acks it is copied first (the acks keep the old, now-immutable
// snapshot). It reports whether the row changed (the WAL logs exactly
// those requests); re-applying the same request changes nothing, which
// is what makes log replay and redelivery idempotent.
func applyWrite(reg *regState, req WriteReq) bool {
	if req.Round < 1 || req.Round > 3 {
		return false
	}
	pair := Pair{TS: req.TS, Val: req.Val}
	row := reg.history[req.TS] // a copy: the live row moves only below
	changed := false
	for m := 1; m <= req.Round; m++ {
		slot := &row[m-1]
		if !slot.Pair.IsBottom() && slot.Pair != pair {
			continue
		}
		if slot.Pair != pair {
			slot.Pair, changed = pair, true
		}
		if m == req.Round && slot.addSets(req.Sets) {
			changed = true
		}
	}
	if !changed {
		return false
	}
	if reg.histShared {
		reg.history = reg.history.Clone()
		reg.histShared = false
	}
	if reg.history == nil {
		reg.history = make(History)
	}
	reg.history[req.TS] = row
	return true
}

// applyMW applies one MWMR write: the register adopts 〈tag, val, sig〉
// only if tag strictly exceeds the current one. Reports whether the
// state changed. Monotonicity makes replay idempotent: a logged tag
// replayed onto a register that already adopted it (or moved past it)
// is a no-op. Callers hold the shard mutex. sig must be an immutable
// slice the register may retain (nil when auth is off).
func applyMW(reg *regState, tag Tag, val string, sig []byte) bool {
	if reg.mwTag.Less(tag) {
		reg.mwTag, reg.mwVal, reg.mwSig = tag, val, sig
		return true
	}
	return false
}

// applyCAS conditionally applies one CAS: install 〈tag, val, sig〉 iff
// the register still holds exactly expect. Reports whether it applied.
// Tags never revisit a value, so a replayed CAS whose effect is
// already in the register finds mwTag == tag ≠ expect and no-ops.
// Callers hold the shard mutex.
func applyCAS(reg *regState, expect, tag Tag, val string, sig []byte) bool {
	if reg.mwTag == expect {
		reg.mwTag, reg.mwVal, reg.mwSig = tag, val, sig
		return true
	}
	return false
}
