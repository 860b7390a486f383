package storage

import (
	"fmt"
	"sync"

	"repro/internal/transport"
	"repro/internal/wal"
)

// Durability layer of the storage server: a wal.Log under the keyspace.
//
// Every mutation a handler applies is appended, after the apply, as a
// WAL record (the request message itself, serialized through the
// transport codec). The syncer goroutine group-commits: one fdatasync
// covers every record appended since the last, and only then do the
// acks parked behind them leave. Acks therefore never leave for state
// that could not survive a kill -9; if the log fails, the server stops
// instead of acknowledging non-durable state.
//
// Replay applies the logged requests through the same per-key apply
// helpers the live path uses. All three are idempotent, so
// re-replaying a suffix (after a crash mid-compaction) converges:
//   - applyWrite stores a pair unless a different pair holds the slot;
//     re-applying the same pair and quorum sets is a no-op.
//   - applyMW applies only when the logged tag exceeds the register
//     tag; a replayed older-or-equal tag is a no-op.
//   - applyCAS applies only when the register holds exactly the
//     expected tag; after the first apply the register has moved past
//     it.

// DurableOptions configure NewDurableServer.
type DurableOptions struct {
	// SegmentBytes is the WAL rotation threshold (0 = wal default).
	SegmentBytes int64
	// NoSync skips fdatasync — benchmark-only, to price the fsync tax.
	NoSync bool
	// MaxSegments triggers compaction (snapshot + segment cleanup)
	// once the log spans more than this many segments. 0 = 4.
	MaxSegments int
	// Hooks are passed through to the WAL for crash-point injection.
	Hooks wal.Hooks
}

// registerWALTypes registers the message types a durable server
// serializes into its log. transport.Register is idempotent, so this
// composes with the sim-layer TCP registration.
var registerWALTypesOnce sync.Once

func registerWALTypes() {
	registerWALTypesOnce.Do(func() {
		transport.Register(WriteReq{})
		transport.Register(MWWriteReq{})
		transport.Register(KVCASReq{})
		transport.Register(ServerState{})
	})
}

// NewDurableServer creates a server whose keyspace is backed by a
// write-ahead log in dir. If dir already holds a log, the keyspace is
// rebuilt by replaying the latest snapshot plus the record suffix —
// the recovery path a kill -9'd server takes when it rejoins.
func NewDurableServer(port transport.Port, _ Hooks, dir string, opts DurableOptions) (*Server, error) {
	registerWALTypes()
	l, err := wal.Open(dir, wal.Options{
		SegmentBytes: opts.SegmentBytes,
		NoSync:       opts.NoSync,
		Hooks:        opts.Hooks,
	})
	if err != nil {
		return nil, err
	}
	s := NewServer(port, Hooks{})
	if err := l.Replay(s.installSnapshot, s.replayRecord); err != nil {
		l.Close()
		return nil, err
	}
	s.wal = l
	s.maxSegments = opts.MaxSegments
	if s.maxSegments <= 0 {
		s.maxSegments = 4
	}
	return s, nil
}

// installSnapshot rebuilds the keyspace from a compaction snapshot
// (an encoded ServerState).
func (s *Server) installSnapshot(b []byte) error {
	m, err := transport.DecodeMessage(b)
	if err != nil {
		return err
	}
	st, ok := m.(ServerState)
	if !ok {
		return fmt.Errorf("storage: wal snapshot holds %T, want ServerState", m)
	}
	s.SetState(st)
	return nil
}

// replayRecord re-applies one logged mutation. It runs before Start,
// so no other goroutine touches the shards.
func (s *Server) replayRecord(b []byte) error {
	m, err := transport.DecodeMessage(b)
	if err != nil {
		return err
	}
	switch req := m.(type) {
	case WriteReq:
		s.applyWrite(req)
	case MWWriteReq:
		// The logged record carries the writer signature, so replay
		// restores the pair's provenance along with the pair — a
		// restarted authenticated server can countersign read acks for
		// state it recovered from disk.
		s.applyMW(req)
	case KVCASReq:
		s.applyCAS(req)
	default:
		return fmt.Errorf("storage: unknown wal record type %T", m)
	}
	return nil
}

// WALStats reports the server's log activity counters; ok is false
// for a volatile server. The Fsyncs/Appends ratio is the measured
// group-commit amortization.
func (s *Server) WALStats() (stats wal.Stats, ok bool) {
	if s.wal == nil {
		return wal.Stats{}, false
	}
	return s.wal.Stats(), true
}

// logMutation buffers one applied mutation as a WAL record. Called by
// the handlers on the server goroutine, after the apply — it only
// appends to the in-memory pending buffer; the covering fdatasync
// happens on the syncer goroutine in syncWAL.
func (s *Server) logMutation(req transport.Message) {
	buf, err := transport.EncodeMessage(s.walBuf[:0], req)
	if err != nil {
		// Unreachable for registered types; latch so syncWAL stops the
		// server rather than acking an unlogged mutation. burstLogged
		// still counts the loss, so the burst's acks park and the latch
		// is seen before any of them leaves.
		s.walEncodeFail.Store(true)
		s.burstLogged++
		return
	}
	s.walBuf = buf
	s.wal.Append(buf)
	s.burstLogged++
}

// syncWAL group-commits every record appended so far. Runs on the
// syncer goroutine (snapBuf is its private scratch; wal.Log and
// StateSnapshot are internally locked). It reports false when
// durability could not be established — the caller must drop the
// parked acks and stop the server.
func (s *Server) syncWAL() bool {
	if s.walEncodeFail.Load() {
		return false
	}
	if err := s.wal.Sync(); err != nil {
		return false
	}
	if s.wal.Segments() > s.maxSegments {
		// Compaction failure is not fatal to this commit: the records
		// are already durable. The wal latches its own error; the next
		// Sync surfaces it. Mutations the server goroutine appends
		// between this StateSnapshot and the Compact are safe: Compact
		// rotates before flushing, so post-snapshot records land in the
		// fresh segment (outside the snapshot's coverage) and replay
		// idempotently on top of it.
		if buf, err := transport.EncodeMessage(s.snapBuf[:0], s.StateSnapshot()); err == nil {
			s.snapBuf = buf
			_ = s.wal.Compact(buf)
		}
	}
	return true
}
