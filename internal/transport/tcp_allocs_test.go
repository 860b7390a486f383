//go:build !race

package transport_test

import "testing"

// TestTCPRoundTripAllocs bounds the TCP hot path's allocations: one
// Send → reply → receive round trip between two warmed TCPNodes, the
// loop BenchmarkTCPVsMemory/roundtrip/tcp times. AllocsPerRun counts
// every goroutine's mallocs, so the sessions' writer and serve loops
// are inside the bound too. The race detector allocates on its own,
// hence the build tag.
func TestTCPRoundTripAllocs(t *testing.T) {
	const maxAllocs = 6
	n0, n1 := benchTCPPair(t)
	defer n0.Close()
	defer n1.Close()
	go func() {
		reply := benchPayload()
		for env := range n1.Inbox() {
			env.Release()
			n1.Send(env.From, reply)
		}
	}()
	payload := benchPayload()
	roundTrip := func() {
		n0.Send(1, payload)
		env := <-n0.Inbox()
		env.Release()
	}
	// Warm both sessions, the frame and arena pools, and the queues'
	// backing arrays before counting.
	for i := 0; i < 2000; i++ {
		roundTrip()
	}
	if got := testing.AllocsPerRun(2000, roundTrip); got > maxAllocs {
		t.Fatalf("TCP round trip allocates %.0f times, want ≤ %d", got, maxAllocs)
	} else {
		t.Logf("TCP round trip: %.0f allocs", got)
	}
}
