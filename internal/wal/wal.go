// Package wal implements a write-ahead segment log with CRC-framed
// records, size-bounded segment rotation, and snapshot-based
// compaction. It is the durability layer under the storage server
// keyspace and the consensus acceptor: callers buffer one record per
// state mutation with Append and make a whole burst durable with one
// Sync (group commit — one fdatasync per 64-envelope burst, not one
// per op). On restart, Replay streams the latest snapshot plus the
// log suffix past it, truncating a torn tail so recovery always lands
// on a past-perfect prefix of what was acknowledged.
//
// On-disk layout (all inside one directory, one Log per directory):
//
//	seg-00000042.wal   append-only record segments, 8-byte magic header
//	snap-00000041.snap wal.Snapshot covering every segment <= 41
//
// Record framing inside a segment:
//
//	u32 length | u32 crc32(IEEE, body) | body
//
// Snapshots are written atomically (temp file + fsync + rename + dir
// fsync), so a crash anywhere during compaction leaves either the old
// or the new snapshot visible, never a partial one. Old segments are
// deleted only after the covering snapshot is durable.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

const (
	segPrefix  = "seg-"
	segSuffix  = ".wal"
	snapPrefix = "snap-"
	snapSuffix = ".snap"

	segMagic  = "RQSWAL01"
	snapMagic = "RQSSNP01"

	recordHeader = 8 // u32 length + u32 crc32

	// maxRecordBytes bounds a single record so a corrupt length field
	// cannot ask replay to allocate gigabytes.
	maxRecordBytes = 1 << 30

	// DefaultSegmentBytes is the rotation threshold when
	// Options.SegmentBytes is zero.
	DefaultSegmentBytes = 1 << 20
)

// ErrSimulatedCrash is returned by writes once Hooks.FailAfterNBytes
// bytes have been written. It marks the Log permanently failed, the
// same way a real I/O error would.
var ErrSimulatedCrash = errors.New("wal: simulated crash (FailAfterNBytes)")

// errBadMagic marks a segment whose header bytes are present but
// wrong. Unlike a torn tail it cannot be produced by a crash —
// createSegment fsyncs the header before any record is acknowledged,
// and a torn header write leaves a short file, not eight wrong bytes —
// so Open refuses the directory instead of silently truncating.
var errBadMagic = errors.New("bad segment magic")

// Hooks are test-only fault injection points.
type Hooks struct {
	// FailAfterNBytes, when > 0, simulates a kill -9 mid-write: after
	// N cumulative bytes have reached segment files, the write that
	// crosses the boundary persists only its allowed prefix (a torn
	// write) and fails with ErrSimulatedCrash, as do all later writes.
	// Crash-safety sweeps open a fresh Log with every value of N and
	// assert replay recovers a clean prefix from each torn state.
	FailAfterNBytes int64
}

// Options configure a Log.
type Options struct {
	// SegmentBytes is the size threshold past which Sync rotates to a
	// fresh segment. Zero means DefaultSegmentBytes.
	SegmentBytes int64
	// NoSync skips the fdatasync in Sync and Compact. Benchmark-only:
	// it isolates the fsync tax from the framing/replay cost. Never
	// set it on a deployment whose acks promise durability.
	NoSync bool
	// Hooks inject test-only faults.
	Hooks Hooks
}

// Log is a write-ahead segment log. All methods are safe for
// concurrent use, though the intended shape is a single owning
// goroutine (the server burst loop) plus Close from the stopper.
type Log struct {
	mu   sync.Mutex
	dir  string
	opts Options

	active   *os.File // current append segment
	activeN  int      // its number
	firstN   int      // lowest live segment number
	size     int64    // bytes in active segment (valid prefix + pending flushed)
	pending  []byte   // framed records not yet written to the file
	snapN    int      // number of the newest valid snapshot, -1 if none
	written  int64    // cumulative bytes written (Hooks.FailAfterNBytes)
	dirty    bool     // bytes written to active since the last fdatasync
	replayed bool
	closed   bool
	failed   error // first write/sync error; latches the Log dead

	stats Stats
}

// Stats counts the Log's append/sync activity. The Fsyncs/Appends
// ratio is the group-commit amortization factor: how many mutations
// each fdatasync covered on average.
type Stats struct {
	// Appends is the number of records buffered via Append.
	Appends int64
	// Syncs is the number of Sync calls (clean Syncs with no new bytes
	// skip the fdatasync and count only here).
	Syncs int64
	// Fsyncs is the number of fdatasyncs actually issued (0 with
	// NoSync).
	Fsyncs int64
	// FsyncNanos is the cumulative wall time spent inside those
	// fdatasyncs — FsyncNanos/Fsyncs is the mean disk-flush latency
	// the group commit pays.
	FsyncNanos int64
}

// Stats returns a snapshot of the Log's activity counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Open scans dir (creating it if absent), validates every live
// segment, truncates a torn tail on the final one, and positions the
// log for appends. Call Replay before the first Append to rebuild
// state; a fresh directory replays nothing.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, snapN: -1}

	segs, snaps, err := l.scanDir()
	if err != nil {
		return nil, err
	}
	// Newest snapshot wins; older ones are leftovers from a crash
	// between snapshot write and cleanup.
	if len(snaps) > 0 {
		l.snapN = snaps[len(snaps)-1]
	}
	// Segments at or below the snapshot are already covered by it;
	// they survive only if a crash interrupted compaction cleanup.
	var live []int
	for _, n := range segs {
		if n > l.snapN {
			live = append(live, n)
		}
	}
	// Deletion runs oldest-first, so a crash mid-cleanup leaves a
	// contiguous suffix. A gap means the directory was tampered with.
	for i := 1; i < len(live); i++ {
		if live[i] != live[i-1]+1 {
			return nil, fmt.Errorf("wal: segment gap: seg-%d follows seg-%d", live[i], live[i-1])
		}
	}
	// Validate every live segment; only the final one may be torn.
	for i, n := range live {
		final := i == len(live)-1
		if err := l.validateSegment(n, final); err != nil {
			return nil, err
		}
	}
	if len(live) == 0 {
		n := l.snapN + 1
		if err := l.createSegment(n); err != nil {
			return nil, err
		}
		l.firstN = n
	} else {
		l.firstN = live[0]
		l.activeN = live[len(live)-1]
		if err := l.openActive(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// scanDir lists live segment and snapshot numbers, sorted ascending.
// Stray temp files from interrupted atomic writes are removed.
func (l *Log) scanDir() (segs, snaps []int, err error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case parseNumbered(name, segPrefix, segSuffix) >= 0:
			segs = append(segs, parseNumbered(name, segPrefix, segSuffix))
		case parseNumbered(name, snapPrefix, snapSuffix) >= 0:
			n := parseNumbered(name, snapPrefix, snapSuffix)
			if snapValid(filepath.Join(l.dir, name)) {
				snaps = append(snaps, n)
			}
		case len(name) > 4 && name[:4] == ".tmp":
			os.Remove(filepath.Join(l.dir, name))
		}
	}
	sort.Ints(segs)
	sort.Ints(snaps)
	return segs, snaps, nil
}

func parseNumbered(name, prefix, suffix string) int {
	if len(name) <= len(prefix)+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return -1
	}
	n := 0
	for _, c := range name[len(prefix) : len(name)-len(suffix)] {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func (l *Log) segPath(n int) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%08d%s", segPrefix, n, segSuffix))
}

func (l *Log) snapPath(n int) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%08d%s", snapPrefix, n, snapSuffix))
}

// validateSegment walks the records of segment n. A malformed record
// header, short body, or CRC mismatch in the final segment is a torn
// tail: the file is truncated back to the last whole record. The same
// state in an interior segment cannot be explained by a crash (later
// segments were created after it was sealed) and is rejected as
// corruption. Bad segment magic is rejected even on the final segment:
// no crash produces eight wrong header bytes (a torn header write
// leaves a short file, which IS truncate-recoverable), so truncating
// here would silently discard every acknowledged record in the segment
// instead of surfacing the external corruption to the operator.
func (l *Log) validateSegment(n int, final bool) error {
	valid, _, err := scanSegment(l.segPath(n), nil)
	if err != nil {
		if !final || errors.Is(err, errBadMagic) {
			return fmt.Errorf("wal: seg-%d: %w", n, err)
		}
		return os.Truncate(l.segPath(n), valid)
	}
	return nil
}

// scanSegment reads the segment at path, calling deliver (when
// non-nil) with each record body in order. It returns the byte length
// of the valid prefix and a non-nil error if anything past that
// prefix remains (torn tail or corruption).
func scanSegment(path string, deliver func([]byte) error) (validLen int64, n int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	if len(data) < len(segMagic) {
		if len(data) == 0 {
			return 0, 0, nil
		}
		return 0, 0, errors.New("torn segment header")
	}
	if string(data[:len(segMagic)]) != segMagic {
		return 0, 0, errBadMagic
	}
	off := int64(len(segMagic))
	for int64(len(data))-off >= recordHeader {
		length := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if length > maxRecordBytes {
			return off, n, errors.New("record length out of range")
		}
		end := off + recordHeader + int64(length)
		if end > int64(len(data)) {
			return off, n, errors.New("torn record body")
		}
		body := data[off+recordHeader : end]
		if crc32.ChecksumIEEE(body) != crc {
			return off, n, errors.New("record crc mismatch")
		}
		if deliver != nil {
			if derr := deliver(body); derr != nil {
				return off, n, derr
			}
		}
		off = end
		n++
	}
	if off != int64(len(data)) {
		return off, n, errors.New("torn record header")
	}
	return off, n, nil
}

// snapValid reports whether the snapshot file at path frames a body
// whose CRC matches. Snapshots are written atomically, so an invalid
// one means tampering, not a crash — it is simply ignored.
func snapValid(path string) bool {
	_, err := readSnap(path)
	return err == nil
}

func readSnap(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(snapMagic)+recordHeader || string(data[:len(snapMagic)]) != snapMagic {
		return nil, errors.New("wal: bad snapshot framing")
	}
	length := binary.LittleEndian.Uint32(data[len(snapMagic):])
	crc := binary.LittleEndian.Uint32(data[len(snapMagic)+4:])
	body := data[len(snapMagic)+recordHeader:]
	if int(length) != len(body) || crc32.ChecksumIEEE(body) != crc {
		return nil, errors.New("wal: snapshot crc mismatch")
	}
	return body, nil
}

// createSegment makes a fresh segment file with its magic header and
// durably records its existence in the directory.
func (l *Log) createSegment(n int) error {
	f, err := os.OpenFile(l.segPath(n), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := l.hookWrite(f, []byte(segMagic)); err != nil {
		f.Close()
		return err
	}
	if !l.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if err := syncDir(l.dir); err != nil {
			f.Close()
			return err
		}
	}
	l.active = f
	l.activeN = n
	l.size = int64(len(segMagic))
	return nil
}

// openActive opens the (already validated and truncated) final
// segment for appends.
func (l *Log) openActive() error {
	f, err := os.OpenFile(l.segPath(l.activeN), os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	l.size = info.Size()
	if l.size == 0 {
		// The crash tore even the magic header off; rewrite it.
		if _, err := l.hookWrite(f, []byte(segMagic)); err != nil {
			f.Close()
			return err
		}
		l.size = int64(len(segMagic))
	}
	if _, err := f.Seek(l.size, 0); err != nil {
		f.Close()
		return err
	}
	l.active = f
	return nil
}

// Replay streams the recovery sequence: the newest snapshot body (if
// any) to onSnapshot, then every record past it in append order to
// onRecord. It must run before the first Append. Either callback may
// be nil to skip that stream.
func (l *Log) Replay(onSnapshot func([]byte) error, onRecord func([]byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.replayed || len(l.pending) > 0 {
		return errors.New("wal: Replay must precede Append")
	}
	l.replayed = true
	if l.snapN >= 0 && onSnapshot != nil {
		body, err := readSnap(l.snapPath(l.snapN))
		if err != nil {
			return err
		}
		if err := onSnapshot(body); err != nil {
			return err
		}
	}
	for n := l.firstN; n <= l.activeN; n++ {
		if _, _, err := scanSegment(l.segPath(n), onRecord); err != nil {
			return fmt.Errorf("wal: replay seg-%d: %w", n, err)
		}
	}
	return nil
}

// Append buffers one framed record. Nothing reaches the file (or the
// kernel) until Sync; callers must not acknowledge the mutation
// before Sync returns nil.
func (l *Log) Append(body []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil || l.closed {
		return
	}
	var hdr [recordHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body))
	l.pending = append(l.pending, hdr[:]...)
	l.pending = append(l.pending, body...)
	l.stats.Appends++
}

// Sync makes every buffered record durable: one write plus one
// fdatasync for the whole burst (group commit). When the active
// segment has outgrown SegmentBytes it rotates to a fresh one, so a
// single Sync never splits a record across segments.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.failed != nil {
		return l.failed
	}
	if l.closed {
		return errors.New("wal: closed")
	}
	l.stats.Syncs++
	if len(l.pending) > 0 {
		n, err := l.hookWrite(l.active, l.pending)
		l.size += int64(n)
		l.dirty = l.dirty || n > 0
		if err != nil {
			l.failed = err
			return err
		}
		l.pending = l.pending[:0]
	}
	// A clean Sync (no bytes since the last fdatasync) is free: read-only
	// bursts must not pay the fsync tax for records already durable.
	if l.dirty && !l.opts.NoSync {
		t0 := time.Now()
		if err := l.active.Sync(); err != nil {
			l.failed = err
			return err
		}
		l.stats.FsyncNanos += time.Since(t0).Nanoseconds()
		l.stats.Fsyncs++
		l.dirty = false
	}
	if l.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.failed = err
			return err
		}
	}
	return nil
}

// rotateLocked seals the active segment and starts the next one.
func (l *Log) rotateLocked() error {
	if err := l.active.Close(); err != nil {
		return err
	}
	l.active = nil
	if err := l.createSegment(l.activeN + 1); err != nil {
		return err
	}
	// Every byte of the new active file is the fsynced header; no
	// pending fdatasync debt carries over from the sealed segment.
	l.dirty = false
	return nil
}

// Compact makes snapshot the new replay base: it seals the current
// segment, starts a fresh one, atomically publishes the snapshot
// covering everything sealed, and only then deletes the segments and
// snapshots it supersedes. A crash at any step leaves a recoverable
// directory (at worst with superseded files that the next Open
// skips).
//
// Contract: snapshot must cover every record a completed Sync has
// flushed, but NOT necessarily records still buffered via Append —
// under group commit the owning goroutine keeps appending while the
// syncer captures state and compacts, so a buffered record may
// postdate the snapshot. Compact therefore rotates BEFORE flushing:
// buffered records land in the fresh segment, which the snapshot does
// not supersede, and replay applies them idempotently on top of it.
// Flushing them first would seal them into a segment the snapshot
// deletes below — a lost acknowledged write once the next Sync acks
// them.
func (l *Log) Compact(snapshot []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.closed {
		return errors.New("wal: closed")
	}
	sealed := l.activeN
	if err := l.rotateLocked(); err != nil {
		l.failed = err
		return err
	}
	buf := make([]byte, 0, len(snapMagic)+recordHeader+len(snapshot))
	buf = append(buf, snapMagic...)
	var hdr [recordHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(snapshot)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(snapshot))
	buf = append(buf, hdr[:]...)
	buf = append(buf, snapshot...)
	if err := writeFileAtomic(l.snapPath(sealed), buf, !l.opts.NoSync); err != nil {
		l.failed = err
		return err
	}
	oldSnap := l.snapN
	l.snapN = sealed
	// Cleanup, oldest-first so a crash leaves a contiguous suffix.
	for n := l.firstN; n <= sealed; n++ {
		os.Remove(l.segPath(n))
	}
	if oldSnap >= 0 && oldSnap != sealed {
		os.Remove(l.snapPath(oldSnap))
	}
	l.firstN = sealed + 1
	if !l.opts.NoSync {
		if err := syncDir(l.dir); err != nil {
			l.failed = err
			return err
		}
	}
	return nil
}

// Segments reports how many live segment files the log spans — the
// compaction trigger for callers.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.activeN - l.firstN + 1
}

// SnapshotSeq returns the number of the newest snapshot, or -1. Test
// hook for compaction round-trips.
func (l *Log) SnapshotSeq() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapN
}

// Close flushes buffered records (without forcing an extra fsync
// beyond the Sync policy) and releases the segment file. Idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.syncLocked()
	l.closed = true
	if l.active != nil {
		if cerr := l.active.Close(); err == nil {
			err = cerr
		}
		l.active = nil
	}
	return err
}

// hookWrite writes b to f, honoring Hooks.FailAfterNBytes: the write
// that crosses the boundary lands only its allowed prefix — a torn
// write, exactly what a power cut leaves behind.
func (l *Log) hookWrite(f *os.File, b []byte) (int, error) {
	if limit := l.opts.Hooks.FailAfterNBytes; limit > 0 {
		remain := limit - l.written
		if remain <= 0 {
			return 0, ErrSimulatedCrash
		}
		if int64(len(b)) > remain {
			n, _ := f.Write(b[:remain])
			l.written += int64(n)
			return n, ErrSimulatedCrash
		}
	}
	n, err := f.Write(b)
	l.written += int64(n)
	return n, err
}

// writeFileAtomic replaces path with data: temp file in the same
// directory, write, fsync, rename over path, fsync the directory (the
// fsyncs only when sync is set). Readers see either the old or the new
// content, never a mix. WAL snapshots are written this way.
func writeFileAtomic(path string, data []byte, sync bool) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if sync {
		return syncDir(dir)
	}
	return nil
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
