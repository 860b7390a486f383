package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func record(i int) []byte {
	return []byte(fmt.Sprintf("record-%04d-%s", i, "payload-padding-to-make-it-nontrivial"))
}

// appendN appends and group-commits n records, returning the count
// whose Sync succeeded.
func appendN(t *testing.T, l *Log, n int) int {
	t.Helper()
	synced := 0
	for i := 0; i < n; i++ {
		l.Append(record(i))
		if err := l.Sync(); err != nil {
			return synced
		}
		synced = i + 1
	}
	return synced
}

// replayAll opens dir fresh and returns every replayed record plus
// the snapshot body (nil if none).
func replayAll(t *testing.T, dir string) (snap []byte, recs [][]byte) {
	t.Helper()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l.Close()
	err = l.Replay(
		func(b []byte) error { snap = append([]byte(nil), b...); return nil },
		func(b []byte) error { recs = append(recs, append([]byte(nil), b...)); return nil },
	)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return snap, recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := appendN(t, l, 10); n != 10 {
		t.Fatalf("synced %d of 10", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snap, recs := replayAll(t, dir)
	if snap != nil {
		t.Fatalf("unexpected snapshot %q", snap)
	}
	if len(recs) != 10 {
		t.Fatalf("replayed %d records, want 10", len(recs))
	}
	for i, r := range recs {
		if !bytes.Equal(r, record(i)) {
			t.Fatalf("record %d = %q, want %q", i, r, record(i))
		}
	}
}

// TestTornTailRecovery chops bytes off the end of the final segment —
// the state a kill -9 mid-write leaves — and requires replay to stop
// cleanly at the last whole record, for every possible cut point.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5)
	l.Close()
	seg := filepath.Join(dir, "seg-00000000.wal")
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(full) - 1; cut >= 0; cut-- {
		if err := os.WriteFile(seg, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, recs := replayAll(t, dir)
		// Every surviving record must be an exact prefix of what was
		// appended; the torn suffix must never surface.
		for i, r := range recs {
			if !bytes.Equal(r, record(i)) {
				t.Fatalf("cut %d: record %d = %q, want %q", cut, i, r, record(i))
			}
		}
		if len(recs) > 5 {
			t.Fatalf("cut %d: %d records from a 5-record log", cut, len(recs))
		}
		// replayAll's Open truncated the torn tail, so restore the
		// full image before the next, shorter cut.
		if err := os.WriteFile(seg, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCRCMismatchRejected flips one body byte. In the final segment
// that reads as a torn tail (the record and everything after it is
// dropped); in an interior segment it cannot be crash damage, so Open
// must refuse the directory.
func TestCRCMismatchRejected(t *testing.T) {
	t.Run("final-segment-truncates", func(t *testing.T) {
		dir := t.TempDir()
		l, _ := Open(dir, Options{})
		appendN(t, l, 3)
		l.Close()
		seg := filepath.Join(dir, "seg-00000000.wal")
		data, _ := os.ReadFile(seg)
		data[len(data)-1] ^= 0xff // corrupt the last record's body
		os.WriteFile(seg, data, 0o644)
		_, recs := replayAll(t, dir)
		if len(recs) != 2 {
			t.Fatalf("replayed %d records past a corrupt tail, want 2", len(recs))
		}
	})
	t.Run("final-segment-bad-magic-rejects", func(t *testing.T) {
		// Wrong magic bytes cannot be crash damage (a torn header write
		// leaves a short file; createSegment fsyncs the header before
		// any record is acked), so truncate-to-valid-prefix would
		// silently discard every acknowledged record in the segment.
		// Open must surface the corruption instead.
		dir := t.TempDir()
		l, _ := Open(dir, Options{})
		appendN(t, l, 3)
		l.Close()
		seg := filepath.Join(dir, "seg-00000000.wal")
		data, _ := os.ReadFile(seg)
		copy(data, "XXXXXXXX")
		os.WriteFile(seg, data, 0o644)
		if _, err := Open(dir, Options{}); err == nil {
			t.Fatal("Open truncated a bad-magic final segment instead of failing")
		}
	})
	t.Run("interior-segment-rejects", func(t *testing.T) {
		dir := t.TempDir()
		l, _ := Open(dir, Options{SegmentBytes: 64}) // force rotation
		appendN(t, l, 6)
		l.Close()
		if got := countSegments(t, dir); got < 2 {
			t.Fatalf("test needs >=2 segments, got %d", got)
		}
		seg := filepath.Join(dir, "seg-00000000.wal")
		data, _ := os.ReadFile(seg)
		data[len(data)-1] ^= 0xff
		os.WriteFile(seg, data, 0o644)
		if _, err := Open(dir, Options{}); err == nil {
			t.Fatal("Open accepted a corrupt interior segment")
		}
	})
}

func countSegments(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if parseNumbered(e.Name(), segPrefix, segSuffix) >= 0 {
			n++
		}
	}
	return n
}

// TestRotationCompactionRoundTrip drives the log across several
// rotations, compacts, appends more, and checks the reopened log
// replays snapshot + suffix exactly — with the superseded segments
// actually gone from disk.
func TestRotationCompactionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 96})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 20)
	if l.Segments() < 2 {
		t.Fatalf("expected rotation, have %d segment(s)", l.Segments())
	}
	state := []byte("state-after-20")
	if err := l.Compact(state); err != nil {
		t.Fatal(err)
	}
	if l.Segments() != 1 {
		t.Fatalf("post-compact segments = %d, want 1", l.Segments())
	}
	if countSegments(t, dir) != 1 {
		t.Fatalf("superseded segments still on disk: %d files", countSegments(t, dir))
	}
	// Records appended after the compaction form the replay suffix.
	for i := 0; i < 3; i++ {
		l.Append([]byte(fmt.Sprintf("post-%d", i)))
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	snap, recs := replayAll(t, dir)
	if !bytes.Equal(snap, state) {
		t.Fatalf("snapshot = %q, want %q", snap, state)
	}
	if len(recs) != 3 {
		t.Fatalf("suffix length %d, want 3", len(recs))
	}
	for i, r := range recs {
		if want := fmt.Sprintf("post-%d", i); string(r) != want {
			t.Fatalf("suffix[%d] = %q, want %q", i, r, want)
		}
	}
}

// TestCompactPreservesPendingRecords pins the group-commit/compaction
// race: under group commit the owning goroutine keeps appending while
// the syncer captures a state snapshot and compacts, so a buffered
// record can postdate the snapshot handed to Compact. That record must
// land in the fresh segment (outside the snapshot's coverage) and
// survive to replay — flushing it into the segment the snapshot
// supersedes would delete an acknowledged write.
func TestCompactPreservesPendingRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4)
	snapshot := []byte("covers-first-4-only")
	// The racing append: buffered after the snapshot was captured,
	// before Compact runs.
	l.Append([]byte("post-snapshot"))
	if err := l.Compact(snapshot); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil { // the ack-covering group commit
		t.Fatal(err)
	}
	l.Close()
	snap, recs := replayAll(t, dir)
	if !bytes.Equal(snap, snapshot) {
		t.Fatalf("snapshot = %q, want %q", snap, snapshot)
	}
	if len(recs) != 1 || string(recs[0]) != "post-snapshot" {
		t.Fatalf("post-snapshot record lost across compaction: suffix = %q", recs)
	}
}

// TestReplayIdempotence recovers the same directory twice and demands
// byte-identical results — restarting a restarted server must not
// drift.
func TestReplayIdempotence(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{SegmentBytes: 128})
	appendN(t, l, 8)
	l.Compact([]byte("base"))
	appendN(t, l, 4)
	l.Close()
	snap1, recs1 := replayAll(t, dir)
	snap2, recs2 := replayAll(t, dir)
	if !bytes.Equal(snap1, snap2) {
		t.Fatalf("snapshots differ: %q vs %q", snap1, snap2)
	}
	if len(recs1) != len(recs2) {
		t.Fatalf("record counts differ: %d vs %d", len(recs1), len(recs2))
	}
	for i := range recs1 {
		if !bytes.Equal(recs1[i], recs2[i]) {
			t.Fatalf("record %d differs across replays", i)
		}
	}
}

// TestStrayFilesIgnored covers the crash windows of atomic writes and
// compaction cleanup: leftover temp files and superseded segments
// must not confuse a reopen.
func TestStrayFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, Options{SegmentBytes: 96})
	appendN(t, l, 12)
	if err := l.Compact([]byte("base")); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2)
	l.Close()
	// A crash between CreateTemp and rename leaves a temp file.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-123"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A crash between snapshot publish and cleanup leaves superseded
	// segments (covered by the snapshot) behind.
	if err := os.WriteFile(filepath.Join(dir, "seg-00000000.wal"),
		[]byte(segMagic+"garbage-not-even-a-record"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, recs := replayAll(t, dir)
	if string(snap) != "base" {
		t.Fatalf("snapshot = %q, want base", snap)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2 (superseded segment leaked in?)", len(recs))
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-123")); !os.IsNotExist(err) {
		t.Fatal("stray temp file survived reopen")
	}
}

// TestFailAfterNBytesSweep is the dedis/tlc-style crash-safety sweep:
// simulate a kill -9 after every possible byte count written to the
// segment files, then recover. The invariant at every crash point:
// replay yields an exact prefix of the append sequence that includes
// every record whose Sync had returned nil before the crash.
func TestFailAfterNBytesSweep(t *testing.T) {
	const nRecords = 12
	reachedEnd := false
	for limit := int64(1); !reachedEnd && limit < 1<<14; limit++ {
		dir := t.TempDir()
		synced := 0
		l, err := Open(dir, Options{SegmentBytes: 80, NoSync: true,
			Hooks: Hooks{FailAfterNBytes: limit}})
		if err == nil {
			synced = appendN(t, l, nRecords)
			l.Close()
		}
		// else: the crash hit the very first segment header — the
		// directory holds a torn header and nothing was acknowledged.
		if synced == nRecords {
			reachedEnd = true // limit exceeded total bytes; sweep done
		}
		_, recs := replayAll(t, dir)
		if len(recs) < synced {
			t.Fatalf("limit %d: lost acknowledged records: replayed %d, synced %d",
				limit, len(recs), synced)
		}
		for i, r := range recs {
			if !bytes.Equal(r, record(i)) {
				t.Fatalf("limit %d: record %d = %q, want %q", limit, i, r, record(i))
			}
		}
	}
	if !reachedEnd {
		t.Fatal("sweep never reached a crash-free run; raise the limit bound")
	}
}

// TestWriteFileAtomic checks the write-rename helper replaces content
// wholesale.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	if err := writeFileAtomic(path, []byte("one"), true); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(path, []byte("two"), true); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "two" {
		t.Fatalf("content = %q, want two", got)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %d entries", len(entries))
	}
}
