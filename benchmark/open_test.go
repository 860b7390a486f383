package main

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestIntendedSendTimeChargesTheStall: one client, one op due every
// millisecond, and the first op stalls for 50 ms. Timed from when each
// op was picked up, the 49 ops queued behind the stall would look
// instant; timed from their intended send instant each must show the
// part of the stall it sat through. Only lower bounds are asserted —
// a loaded machine makes every latency longer, never shorter.
func TestIntendedSendTimeChargesTheStall(t *testing.T) {
	const stall = 50 * time.Millisecond
	var ops []openOp
	for i := 0; i < 100; i++ {
		ops = append(ops, openOp{at: time.Duration(i) * time.Millisecond})
	}
	var first atomic.Bool
	clk := newClock()
	w := runOpen(clk, 1, func(context.Context, int, kvOp) bool {
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		return true
	}, ops, 100*time.Millisecond)

	if w.overdue != 0 || len(w.samples) != len(ops) {
		t.Fatalf("%d samples, %d overdue; want %d, 0", len(w.samples), w.overdue, len(ops))
	}
	start := w.bounds[0]
	for _, s := range w.samples {
		due := time.Duration(s.at - start)
		if due >= stall {
			continue
		}
		if want := stall - due - time.Millisecond; time.Duration(s.lat) < want {
			t.Errorf("op due at %v has latency %v: the stall it queued behind (≥ %v) was not charged to it",
				due, time.Duration(s.lat), want)
		}
	}
	if len(w.lag) != len(ops) {
		t.Errorf("generator lag has %d samples, want one per op (%d)", len(w.lag), len(ops))
	}
	if len(w.bounds) != slices+1 || len(w.cpu) != slices+1 {
		t.Errorf("%d boundaries, %d cpu readings; want %d each", len(w.bounds), len(w.cpu), slices+1)
	}
}

// TestOpenLoopDeadline: an op that is still not done a drain period
// after its step ended is a failure, and the step returns.
func TestOpenLoopDeadline(t *testing.T) {
	ops := []openOp{{at: 0}, {at: time.Millisecond}}
	clk := newClock()
	w := runOpen(clk, 1, func(ctx context.Context, _ int, _ kvOp) bool {
		<-ctx.Done() // a hung protocol wait, released by the step's deadline
		return false
	}, ops, 10*time.Millisecond)
	if w.overdue != 2 || len(w.samples) != 0 {
		t.Errorf("%d overdue, %d samples; want 2, 0", w.overdue, len(w.samples))
	}
}
