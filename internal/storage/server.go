package storage

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Hooks is empty and ignored: a Byzantine server is an honest one
// behind a port that rewrites what it sends (internal/adversary).
//
// Deprecated: it keeps the benchmark module's calls building.
type Hooks struct{}

// serverBurst bounds how many inbox envelopes the server drains per
// wakeup. A durable server hands each burst's WAL records to group
// commit together, so one fdatasync covers the whole burst. The bound
// keeps a flooded server from starving Stop.
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
// without measurable lookup overhead, and bound how long a compaction
// StateSnapshot holds any one lock.
const kvShardCount = 16

// regState is the full per-key register state: the SWMR history of
// Figure 6 plus the tag-ordered MWMR register. States are created
// lazily on first apply.
type regState struct {
	// rows is the SWMR history, ts-ascending: a suffix read is a binary
	// search plus a copy of the suffix, and the honest writer's next
	// timestamp appends. Writes mutate it in place; read acks carry
	// copies (Server.suffix).
	rows  []TSRow
	mwTag Tag    // MWMR register: current tag ...
	mwVal string // ... and value, monotone in tag order
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

// Server is one storage server. It hosts a keyspace of registers over
// a single port: per key, the SWMR history of Figure 6 and the
// tag-ordered MWMR register (mwmr.go), behind a sharded map with
// per-shard mutexes, created lazily on first apply. The SWMR clients
// (Writer/Reader) address key "".
// Run processes its inbox until the port's inbox closes; Stop aborts
// earlier.
//
// The inbox is drained in bursts (up to serverBurst envelopes per
// wakeup) and each burst is served in arrival order, one handler per
// request kind, each holding its key's shard lock only around the
// apply.
type Server struct {
	id   core.ProcessID
	port transport.Port

	// Authenticated-deployment state (nil when auth is off — see
	// auth.go). The server verifies writer signatures before applying
	// writes, countersigns its read acks, and silently drops writes
	// whose signature fails (the sender is either Byzantine or outside
	// the deployment; an honest quorum still acks). authBuf is touched
	// only by the server goroutine.
	signer       auth.Signer
	verifier     auth.Verifier
	authRejects  atomic.Uint64
	authBuf      []byte
	appendSigner auth.AppendSigner // signer's append form, nil if unsupported
	sigSlab      []byte            // countersignature slab (see signAck)
	rowSlab      []TSRow           // read-ack row slab (see suffix)
	dmemo        digestMemo        // last value digest (bursts repeat one value)

	shards [kvShardCount]kvShard

	// Durability (nil for a volatile server — see durable.go). The wal
	// receives one record per applied mutation. Group commit is
	// leader-style: at most one fdatasync is ever in flight, and while
	// it runs the server loop keeps draining its inbox, appending every
	// new burst's records and parking its gated replies in acks. When
	// the syncer signals the round complete, what accumulated is handed
	// over as the next round, so one disk flush covers everything that
	// arrived during the previous one. The invariant is an ack horizon:
	// no gated reply leaves while any record appended before it is
	// still un-synced, so acks never expose state a kill -9 could
	// erase. On a fully synced log (every burst of a pure-read
	// workload) replies leave at once.
	wal           *wal.Log
	walBuf        []byte // encode scratch (server goroutine only)
	snapBuf       []byte // compaction encode scratch (syncer only)
	walEncodeFail atomic.Bool
	maxSegments   int                  // compaction trigger
	acks          []transport.Envelope // replies parked for the next round (run loop only)
	burstLogged   int                  // records appended, not yet handed to the syncer
	syncBusy      bool                 // a commit round is in flight (run loop only)
	syncCh        chan []transport.Envelope
	syncIdleCh    chan struct{} // syncer → run loop: round complete
	walDead       chan struct{} // closed by the syncer on WAL failure
	syncerDone    chan struct{}

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewServer creates a server bound to the given port.
func NewServer(port transport.Port, _ Hooks) *Server {
	s := &Server{
		id:   port.ID(),
		port: port,
		stop: make(chan struct{}),
		done: make(chan struct{}),
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

// HandleEnvelope serves one request synchronously, for a volatile
// server driven from a single goroutine (sim.Lockstep) instead of by
// Start. The caller owns serialization and must not mix it with Start.
func (s *Server) HandleEnvelope(env transport.Envelope) {
	s.handleBurst([]transport.Envelope{env})
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
			out[key] = RegSnapshot{History: historyOf(reg.rows), MWTag: reg.mwTag, MWVal: reg.mwVal, MWSig: bytes.Clone(reg.mwSig)}
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
		sh := s.lock(key)
		sh.regs[key] = &regState{rows: snap.History.Rows(0), mwTag: snap.MWTag, mwVal: snap.MWVal, mwSig: bytes.Clone(snap.MWSig)}
		sh.mu.Unlock()
	}
}

func (s *Server) run() {
	defer close(s.done)
	if s.wal != nil {
		s.syncCh = make(chan []transport.Envelope, 1)
		s.syncIdleCh = make(chan struct{}, 1)
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
			if !s.commit() {
				return
			}
		case env, ok := <-s.port.Inbox():
			if !ok {
				return
			}
			burst = append(burst[:0], env)
			// Opportunistically drain what else is already queued, so
			// one group-commit hand-over covers the whole burst.
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

// handleBurst serves one drained burst in arrival order, one handler
// per request kind, releasing each envelope once its handler has
// cloned what the keyspace keeps. Then it hands whatever the burst
// logged to group commit. It reports false when the WAL failed: the
// parked acks are dropped (they would acknowledge non-durable state)
// and the caller stops the loop.
func (s *Server) handleBurst(burst []transport.Envelope) bool {
	for i := range burst {
		env := &burst[i]
		switch req := env.Payload.(type) {
		case WriteReq:
			s.handleWrite(env, req)
		case ReadReq:
			s.handleRead(env, req)
		case MWWriteReq:
			s.handleMWWrite(env, req)
		case MWReadReq:
			s.handleMWRead(env, req)
		case KVCASReq:
			s.handleCAS(env, req)
		}
		env.Release()
	}
	return s.commit()
}

// handleWrite serves a SWMR write or reader writeback (Figure 6, lines
// 2–7): store the pair, log it if the row changed, acknowledge.
func (s *Server) handleWrite(env *transport.Envelope, req WriteReq) {
	if env.Aliased() {
		req.Val = strings.Clone(req.Val)
	}
	if s.applyWrite(req) && s.wal != nil {
		s.logMutation(req)
	}
	s.reply(env, WriteAck{TS: req.TS, Round: req.Round})
}

// handleRead serves a SWMR read (Figure 6): reply with the key's
// history from the reader's last atomic return on (ReadReq.From).
func (s *Server) handleRead(env *transport.Envelope, req ReadReq) {
	s.reply(env, ReadAck{ReadNo: req.ReadNo, Round: req.Round, Rows: s.suffix(req.Key, req.From)})
}

// handleMWWrite serves an MWMR write: the register adopts a newer tag.
func (s *Server) handleMWWrite(env *transport.Envelope, req MWWriteReq) {
	// Verify only writes that would actually apply. A superseded write
	// mutates nothing whatever its signature says, so acking it
	// unverified admits nothing into the register — and under write
	// contention most concurrent writes ARE superseded on arrival (of k
	// racing tags a server applies only the running maxima, ~ln k of
	// them), which keeps the signed write path near the unsigned one's
	// cost.
	if cur, _, _ := s.mw(req.Key); cur.Less(req.Tag) {
		if !s.admit(env, req.Key, req.Tag, &req.Val, &req.Sig) {
			return
		}
		if s.applyMW(req) && s.wal != nil {
			s.logMutation(req)
		}
	}
	s.reply(env, MWWriteAck{Seq: req.Seq})
}

// handleMWRead serves an MWMR read: reply with the key's 〈tag, value〉,
// the writer signature that came with it, and whether the state is
// already durable; countersigned on an authenticated deployment.
func (s *Server) handleMWRead(env *transport.Envelope, req MWReadReq) {
	tag, val, sig := s.mw(req.Key)
	ack := MWReadAck{Seq: req.Seq, Tag: tag, Synced: s.walSynced()}
	if req.TagOnly {
		// A writer's tag query: no value, no signatures (see
		// MWReadReq.TagOnly — a lie here only inflates the writer's
		// next timestamp).
		s.reply(env, ack)
		return
	}
	ack.Val, ack.WSig = val, sig
	if s.signer != nil {
		s.authBuf = ackBodyD(s.authBuf[:0], s.id, req.Seq, req.Key, ack.Tag, s.dmemo.of(ack.Val), ack.Synced)
		ack.SSig = s.signAck(s.authBuf)
	}
	s.reply(env, ack)
}

// handleCAS serves a conditional write: install 〈Tag, Val〉 iff the
// register still holds exactly the expected tag. Tags never revisit a
// value (they are monotone and Expect < Tag), so at most one
// same-Expect CAS can observe Applied=true here — the
// quorum-intersection argument for at-most-one CAS winner per version
// rests on this (see kv.go). Strict equality also rejects a client
// re-CASing an expect it already won (its retry proposes the same tag
// but the register moved).
func (s *Server) handleCAS(env *transport.Envelope, req KVCASReq) {
	ack := KVCASAck{Seq: req.Seq}
	ack.Tag, ack.Val, _ = s.mw(req.Key)
	if ack.Tag == req.Expect {
		// As for MWWriteReq: only a CAS that would install its pair
		// needs its signature checked — a mismatched Expect no-ops.
		if !s.admit(env, req.Key, req.Tag, &req.Val, &req.Sig) {
			return
		}
		if ack.Applied = s.applyCAS(req); ack.Applied {
			if s.wal != nil {
				s.logMutation(req)
			}
			ack.Tag, ack.Val = req.Tag, req.Val
		}
	}
	s.reply(env, ack)
}

// reply answers env. It leaves at once when every record appended so
// far is durable (always, on a volatile server), and so does an MWMR
// read ack, whose Synced bit says exactly what survives a crash. Any
// other reply parks until the next group commit's fdatasync. A read
// ack overtaking parked acks is safe: clients match replies by
// sequence number.
func (s *Server) reply(env *transport.Envelope, msg transport.Message) {
	if _, ro := msg.(MWReadAck); ro || s.walSynced() {
		s.port.SendHop(env.From, msg, env.Hop+1)
		return
	}
	s.acks = append(s.acks, transport.Envelope{To: env.From, Hop: env.Hop + 1, Payload: msg})
}

// admit screens a write that would apply: it verifies the writer
// signature and clones the value and signature out of the envelope's
// receive arena. A write whose claimed writer did not sign it is
// counted and dropped — no apply, no ack. Honest writers are
// unaffected: their quorum completes at the servers that verified.
func (s *Server) admit(env *transport.Envelope, key string, tag Tag, val *string, sig *[]byte) bool {
	if !s.verifyWrite(key, tag, *val, *sig) {
		s.authRejects.Add(1)
		return false
	}
	if env.Aliased() {
		*val, *sig = strings.Clone(*val), bytes.Clone(*sig)
	}
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

// walSynced reports whether every record appended to the WAL is
// already covered by an fdatasync — trivially true on a volatile
// server. Exactly when this holds, the keyspace state a reply exposes
// is guaranteed to survive a kill -9, and no reply is parked.
func (s *Server) walSynced() bool {
	return s.wal == nil || (s.burstLogged == 0 && !s.syncBusy)
}

// commit hands the records logged and the acks parked since the last
// round to the syncer as the next commit round, unless a round is in
// flight (its completion calls commit again). When the run loop (and
// so the syncer) is not running — tests drive handleBurst directly —
// the round runs inline. It reports false when the WAL has failed: the
// server must stop, dropping the acks.
func (s *Server) commit() bool {
	if s.syncBusy || (s.burstLogged == 0 && len(s.acks) == 0) {
		return true
	}
	acks := s.acks
	// The syncer owns the handed-over slice; size the next round's like it.
	s.acks, s.burstLogged = make([]transport.Envelope, 0, len(acks)), 0
	if s.syncCh == nil {
		return s.flush(acks)
	}
	select {
	case s.syncCh <- acks:
		s.syncBusy = true
		return true
	case <-s.walDead:
		return false
	}
}

// flush makes every record appended so far durable, then sends the
// acks parked behind them. On a WAL failure it drops the acks and
// reports false.
func (s *Server) flush(acks []transport.Envelope) bool {
	if !s.syncWAL() {
		return false
	}
	for _, a := range acks {
		s.port.SendHop(a.To, a.Payload, a.Hop)
	}
	return true
}

// syncer is the durable server's group-commit goroutine: one commit
// round at a time — wal.Sync (one fdatasync covering every record
// appended so far, including any that landed after the round was
// handed over), then send the round's acks, then signal the run loop
// so it hands over what accumulated meanwhile. While the fdatasync
// blocks, the server loop keeps serving — that overlap is what lets one
// disk flush amortize over many bursts. On a WAL failure it closes
// walDead, which stops the server loop: an ack must never acknowledge
// state the log cannot guarantee.
func (s *Server) syncer() {
	defer close(s.syncerDone)
	for acks := range s.syncCh {
		if !s.flush(acks) {
			close(s.walDead)
			return
		}
		select {
		case s.syncIdleCh <- struct{}{}:
		default:
		}
	}
}

// lock returns key's shard with its mutex held.
func (s *Server) lock(key string) *kvShard {
	sh := &s.shards[shardOf(key)]
	sh.mu.Lock()
	return sh
}

// rowSlabLen is the row capacity of a fresh read-ack slab.
const rowSlabLen = 64

// suffix copies key's history rows at or above from, for a read ack
// (nil if there are none). It costs a binary search plus the suffix's
// length, whatever the history's. The copy is carved from a slab, as
// signAck carves signatures: chunks are retained by the acks that
// carry them, and a filled slab is dropped for a fresh one. The copied
// rows share their Sets slices with the register, which Slot.addSets
// never writes through. Server goroutine only.
func (s *Server) suffix(key string, from int64) []TSRow {
	sh := s.lock(key)
	defer sh.mu.Unlock()
	reg := sh.regs[key]
	if reg == nil {
		return nil
	}
	tail := rowsFrom(reg.rows, from)
	if len(tail) == 0 {
		return nil
	}
	if cap(s.rowSlab)-len(s.rowSlab) < len(tail) {
		s.rowSlab = make([]TSRow, 0, max(len(tail), rowSlabLen))
	}
	n := len(s.rowSlab)
	s.rowSlab = append(s.rowSlab, tail...)
	return s.rowSlab[n:len(s.rowSlab):len(s.rowSlab)]
}

// mw returns key's MWMR register: 〈tag, value〉 and the writer
// signature that came with it (the zero tag and ⊥ if never written).
func (s *Server) mw(key string) (Tag, string, []byte) {
	sh := s.lock(key)
	defer sh.mu.Unlock()
	if reg := sh.regs[key]; reg != nil {
		return reg.mwTag, reg.mwVal, reg.mwSig
	}
	return Tag{}, NoValue, nil
}

// applyWrite implements lines 2-7 of Figure 6 against one key's
// register: for every round m ≤ rnd, store the pair unless a
// *different* pair already occupies the slot, and merge the class-2
// quorum ids into the final round's slot. The history is mutated in
// place: read acks hold copies of their rows, and Slot.addSets never
// writes through a Sets slice an ack shares. It reports whether the
// row changed (the WAL logs exactly those requests); re-applying the
// same request changes nothing, which is what makes log replay and
// redelivery idempotent. req.Val must be server-owned.
func (s *Server) applyWrite(req WriteReq) bool {
	if req.Round < 1 || req.Round > 3 {
		return false
	}
	sh := s.lock(req.Key)
	defer sh.mu.Unlock()
	reg := sh.reg(req.Key)
	pair := Pair{TS: req.TS, Val: req.Val}
	i, found := slices.BinarySearchFunc(reg.rows, req.TS, cmpRowTS)
	var row Row // a copy: the live row moves only below
	if found {
		row = reg.rows[i].Row
	}
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
	if found {
		reg.rows[i].Row = row
	} else {
		reg.rows = slices.Insert(reg.rows, i, TSRow{TS: req.TS, Row: row})
	}
	return true
}

// applyMW applies one MWMR write: the register adopts 〈tag, val, sig〉
// only if tag strictly exceeds the current one. Reports whether the
// state changed. Monotonicity makes replay idempotent: a logged tag
// replayed onto a register that already adopted it (or moved past it)
// is a no-op. req.Val and req.Sig must be server-owned (sig is nil
// when auth is off).
func (s *Server) applyMW(req MWWriteReq) bool {
	sh := s.lock(req.Key)
	defer sh.mu.Unlock()
	reg := sh.reg(req.Key)
	if reg.mwTag.Less(req.Tag) {
		reg.mwTag, reg.mwVal, reg.mwSig = req.Tag, req.Val, req.Sig
		return true
	}
	return false
}

// applyCAS conditionally applies one CAS: install 〈tag, val, sig〉 iff
// the register still holds exactly expect. Reports whether it applied.
// Tags never revisit a value, so a replayed CAS whose effect is
// already in the register finds mwTag == tag ≠ expect and no-ops.
func (s *Server) applyCAS(req KVCASReq) bool {
	sh := s.lock(req.Key)
	defer sh.mu.Unlock()
	reg := sh.reg(req.Key)
	if reg.mwTag == req.Expect {
		reg.mwTag, reg.mwVal, reg.mwSig = req.Tag, req.Val, req.Sig
		return true
	}
	return false
}
