package storage_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// earlyBudget is the limit within which an operation must finish when
// every server responds instantly; far below the deliberately huge 2Δ
// used by these tests, yet generous enough for a loaded CI machine.
const earlyBudget = 5 * time.Second

// TestWriteEarlyCompletionSkipsTimer asserts the round-1 fast path: when
// the whole universe acks, the 2Δ timer wait is provably redundant and
// the write must return immediately instead of sleeping the full timer.
func TestWriteEarlyCompletionSkipsTimer(t *testing.T) {
	c := sim.NewStorageCluster(core.Example7RQS(), sim.StorageOptions{Timeout: time.Hour})
	defer c.Stop()
	w := c.Writer()
	start := time.Now()
	res := w.Write("v")
	if d := time.Since(start); d > earlyBudget {
		t.Fatalf("write took %v with an 1h timer; early completion broken", d)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1 (all servers up)", res.Rounds)
	}
}

// TestReadEarlyCompletionSkipsTimer is the read-side counterpart: a
// round-1 read with the full universe responding must not sleep the 2Δ.
func TestReadEarlyCompletionSkipsTimer(t *testing.T) {
	c := sim.NewStorageCluster(core.Example7RQS(), sim.StorageOptions{Timeout: time.Hour})
	defer c.Stop()
	c.Writer().Write("v")
	r := c.Reader()
	start := time.Now()
	res := r.Read()
	if d := time.Since(start); d > earlyBudget {
		t.Fatalf("read took %v with an 1h timer; early completion broken", d)
	}
	if res.Val != "v" || res.Rounds != 1 {
		t.Fatalf("read = %+v, want v in 1 round", res)
	}
}

// TestTimerStillHonouredWhenServersMissing pins the other side of the
// early-completion argument: with a server down the universe never
// completes and no class-1 quorum acks, so a round-1 write must keep
// waiting for the full 2Δ even after a quorum acked — the QC'2 it
// carries forward depends on every ack within 2Δ. Round 2 is decided
// once QC'2's member has acked again, so the write pays 2Δ only once.
func TestTimerStillHonouredWhenServersMissing(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const timeout = 300 * time.Millisecond
	c := sim.NewStorageCluster(core.Example7RQS(), sim.StorageOptions{Timeout: timeout})
	defer c.Stop()
	c.CrashServers(core.NewSet(5)) // class-2 quorum {0..4} still acks
	w := c.Writer()
	start := time.Now()
	res := w.Write("v")
	d := time.Since(start)
	if d < timeout {
		t.Fatalf("write returned in %v < 2Δ=%v despite missing server", d, timeout)
	}
	if d >= 2*timeout {
		t.Fatalf("write took %v ≥ 2×2Δ=%v: round 2 waited out its timer after QC'2 acked", d, 2*timeout)
	}
	if res.Rounds != 2 {
		t.Fatalf("rounds = %d, want 2 (class-2 quorum path)", res.Rounds)
	}
}
