package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// Conformance is the behavioural contract every Port implementation
// must satisfy to carry the paper's protocols: the reliable-channel
// semantics of §3.1 (delivery, per-sender FIFO order) plus the
// operational properties the demos depend on (surviving a peer process
// restart, clean shutdown under concurrent senders, large payloads).
// Delivery is exactly-once within a process incarnation and
// at-least-once across a restart: a restarted receiver may see again
// a message it delivered before the crash, and no transport keeps
// state on disk to prevent that.
// It runs against both the in-memory Network and TCPNode; transport
// implementations outside this package can reuse it through the
// ConformanceCluster interface.

// ConformanceCluster abstracts a running deployment of n processes for
// the conformance suite.
type ConformanceCluster interface {
	// Port returns the current port of process id (after Start, the
	// fresh process's port).
	Port(id core.ProcessID) Port
	// Stop takes process id down, abandoning its inbox; it reports
	// false if the transport cannot model a process crash, in which
	// case restart cases are skipped. While a process is down, sends
	// directed at it must not block indefinitely or panic.
	Stop(id core.ProcessID) bool
	// Start brings a stopped process back as a fresh process at the
	// same address.
	Start(id core.ProcessID)
	// Close tears the whole cluster down.
	Close()
}

// InjectorCluster is the optional extension a ConformanceCluster
// implements to opt into the fault-injection cases: SetInjector must
// install inj on every transport instance carrying cluster traffic
// (nil removes it).
type InjectorCluster interface {
	SetInjector(inj Injector)
}

// funcInjector adapts a plain function to Injector for the suite's
// scripted cases.
type funcInjector func(from, to core.ProcessID) (bool, time.Duration, int)

func (f funcInjector) Decide(from, to core.ProcessID) (bool, time.Duration, int) {
	return f(from, to)
}

// stabilityMsg is the PayloadStability case's payload: one string and
// one byte-slice field, the two kinds that alias the receive arena on
// the zero-copy path.
type stabilityMsg struct {
	Seq int
	S   string
	B   []byte
}

// stabilityContent builds the expected payload for seq — variable
// length, so consecutive messages land at different arena offsets.
func stabilityContent(seq int) stabilityMsg {
	s := fmt.Sprintf("stable-%04d-", seq)
	for i := 0; i < seq%17; i++ {
		s += "x"
	}
	b := make([]byte, seq%29)
	for i := range b {
		b[i] = byte(seq + i)
	}
	return stabilityMsg{Seq: seq, S: s, B: b}
}

func checkStability(t *testing.T, got stabilityMsg, when string) {
	t.Helper()
	want := stabilityContent(got.Seq)
	if got.S != want.S || string(got.B) != string(want.B) {
		t.Fatalf("payload %d mutated %s: got {S:%q B:%v}, want {S:%q B:%v}",
			got.Seq, when, got.S, got.B, want.S, want.B)
	}
}

// Conformance runs the suite; mk builds a fresh n-process cluster per
// case (the case owns it and closes it).
func Conformance(t *testing.T, mk func(t *testing.T, n int) ConformanceCluster) {
	Register("")
	Register(int(0))

	t.Run("BasicDelivery", func(t *testing.T) {
		c := mk(t, 3)
		defer c.Close()
		c.Port(0).SendHop(1, "hello", 4)
		env := conformanceRecv(t, c.Port(1))
		if env.From != 0 || env.To != 1 || env.Hop != 4 || env.Payload != "hello" {
			t.Errorf("unexpected envelope %+v", env)
		}
		c.Port(1).Send(0, "reply")
		if env := conformanceRecv(t, c.Port(0)); env.Payload != "reply" {
			t.Errorf("unexpected reply %+v", env)
		}
	})

	t.Run("ConcurrentSendersFIFO", func(t *testing.T) {
		const senders, msgs = 3, 200
		c := mk(t, senders+1)
		defer c.Close()
		var wg sync.WaitGroup
		for s := 1; s <= senders; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					c.Port(s).Send(0, i)
				}
			}(s)
		}
		next := make([]int, senders+1)
		for got := 0; got < senders*msgs; got++ {
			env := conformanceRecv(t, c.Port(0))
			i, ok := env.Payload.(int)
			if !ok {
				t.Fatalf("payload %T, want int", env.Payload)
			}
			if i != next[env.From] {
				t.Fatalf("sender %d delivered %d, want %d (per-sender FIFO broken)", env.From, i, next[env.From])
			}
			next[env.From]++
		}
		wg.Wait()
	})

	t.Run("LargePayload", func(t *testing.T) {
		c := mk(t, 2)
		defer c.Close()
		big := make([]byte, 1<<20)
		for i := range big {
			big[i] = byte(i)
		}
		c.Port(0).Send(1, string(big))
		env := conformanceRecv(t, c.Port(1))
		if s, ok := env.Payload.(string); !ok || s != string(big) {
			t.Errorf("large payload corrupted (got %d bytes, ok=%v)", len(s), ok)
		}
	})

	t.Run("DeliveryAfterPeerRestart", func(t *testing.T) {
		c := mk(t, 2)
		defer c.Close()
		// Prime the sender's connection so the restart leaves a dead
		// cached socket behind — the exact ROADMAP hang scenario.
		c.Port(0).Send(1, "prime")
		if env := conformanceRecv(t, c.Port(1)); env.Payload != "prime" {
			t.Fatalf("prime = %+v", env)
		}
		// Give process 0 receive state for process 1's first incarnation.
		c.Port(1).Send(0, "old-reply")
		if env := conformanceRecv(t, c.Port(0)); env.Payload != "old-reply" {
			t.Fatalf("old-reply = %+v", env)
		}
		if !c.Stop(1) {
			t.Skip("transport cannot model a process restart")
		}
		// Messages sent into the void must be retransmitted to the
		// fresh process, not silently lost.
		for i := 0; i < 5; i++ {
			c.Port(0).Send(1, fmt.Sprintf("down-%d", i))
		}
		c.Start(1)
		c.Port(0).Send(1, "up")
		want := map[string]bool{"up": true}
		for i := 0; i < 5; i++ {
			want[fmt.Sprintf("down-%d", i)] = true
		}
		for len(want) > 0 {
			env := conformanceRecv(t, c.Port(1))
			s, _ := env.Payload.(string)
			if s == "prime" {
				// A pre-stop message whose ack was lost in the restart
				// may legally be redelivered (at-least-once across
				// incarnations); post-stop messages may not duplicate.
				continue
			}
			if !want[s] {
				t.Fatalf("unexpected or duplicate payload %q (remaining %v)", s, want)
			}
			delete(want, s)
		}
		// The restarted process is a new sender incarnation: process 0
		// must reset its receive state for it rather than drop the new
		// incarnation's frames as duplicates of the old one's.
		c.Port(1).Send(0, "new-reply")
		if env := conformanceRecv(t, c.Port(0)); env.Payload != "new-reply" {
			t.Fatalf("restarted sender delivered %+v, want new-reply", env)
		}
	})

	t.Run("BatchFIFOWithinBatch", func(t *testing.T) {
		const batches, per = 20, 50
		c := mk(t, 2)
		defer c.Close()
		go func() {
			n := 0
			for b := 0; b < batches; b++ {
				msgs := make([]Message, per)
				for i := range msgs {
					msgs[i] = n
					n++
				}
				c.Port(0).SendBatch(1, msgs, 3)
			}
		}()
		for i := 0; i < batches*per; i++ {
			env := conformanceRecv(t, c.Port(1))
			if env.Payload != i || env.Hop != 3 {
				t.Fatalf("envelope %d = %+v, want payload %d hop 3 (batch order broken)", i, env, i)
			}
		}
	})

	t.Run("BroadcastDelivery", func(t *testing.T) {
		c := mk(t, 4)
		defer c.Close()
		// The destination set includes the sender: protocols broadcast
		// to quorums containing themselves.
		c.Port(0).Broadcast(core.NewSet(0, 1, 2), "bcast", 2)
		for _, id := range []core.ProcessID{0, 1, 2} {
			env := conformanceRecv(t, c.Port(id))
			if env.From != 0 || env.To != id || env.Hop != 2 || env.Payload != "bcast" {
				t.Errorf("process %d received %+v, want bcast from 0 at hop 2", id, env)
			}
		}
		// Process 3 was outside dst: per-sender FIFO means its next
		// delivery must be the direct send, not a stray broadcast copy.
		c.Port(0).Send(3, "direct")
		if env := conformanceRecv(t, c.Port(3)); env.Payload != "direct" {
			t.Errorf("process 3 received %+v, want the direct send only", env)
		}
	})

	t.Run("BatchAcrossPeerRestart", func(t *testing.T) {
		c := mk(t, 2)
		defer c.Close()
		c.Port(0).Send(1, "prime")
		if env := conformanceRecv(t, c.Port(1)); env.Payload != "prime" {
			t.Fatalf("prime = %+v", env)
		}
		if !c.Stop(1) {
			t.Skip("transport cannot model a process restart")
		}
		down := []Message{"down-0", "down-1", "down-2", "down-3", "down-4"}
		c.Port(0).SendBatch(1, down, 0)
		c.Start(1)
		c.Port(0).SendBatch(1, []Message{"up-0", "up-1"}, 0)
		want := map[string]bool{"up-0": true, "up-1": true}
		for _, m := range down {
			want[m.(string)] = true
		}
		for len(want) > 0 {
			env := conformanceRecv(t, c.Port(1))
			s, _ := env.Payload.(string)
			if s == "prime" {
				continue // legal at-least-once redelivery across incarnations
			}
			if !want[s] {
				t.Fatalf("unexpected or duplicate payload %q (remaining %v)", s, want)
			}
			delete(want, s)
		}
	})

	t.Run("BatchToCrashedDestination", func(t *testing.T) {
		c := mk(t, 3)
		defer c.Close()
		if !c.Stop(1) {
			t.Skip("transport cannot model a process crash")
		}
		// A batch aimed at a crashed process must return without
		// blocking indefinitely and must not panic...
		msgs := make([]Message, 100)
		for i := range msgs {
			msgs[i] = i
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			c.Port(0).SendBatch(1, msgs, 0)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("SendBatch to a crashed destination blocked")
		}
		// ...and traffic to live peers keeps flowing.
		c.Port(0).Send(2, "alive")
		if env := conformanceRecv(t, c.Port(2)); env.Payload != "alive" {
			t.Errorf("live peer received %+v, want alive", env)
		}
	})

	t.Run("CloseRace", func(t *testing.T) {
		c := mk(t, 4)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for s := 1; s < 4; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					c.Port(s).Send(0, i)
				}
			}(s)
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range c.Port(0).Inbox() {
			}
		}()
		time.Sleep(20 * time.Millisecond)
		done := make(chan struct{})
		go func() {
			c.Close() // must not panic or deadlock against live senders
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Close deadlocked against concurrent senders")
		}
		close(stop)
		wg.Wait()
		select {
		case <-drained:
		case <-time.After(10 * time.Second):
			t.Fatal("inbox never closed")
		}
	})

	t.Run("PayloadStability", func(t *testing.T) {
		// No payload may mutate after delivery: envelopes decoded out of
		// a shared receive arena stay intact while OTHER envelopes of the
		// same and later bursts are released and their arenas recycle.
		// Poisoning makes a premature recycle corrupt the held payloads
		// deterministically instead of silently.
		SetArenaPoison(true)
		defer SetArenaPoison(false)
		Register(stabilityMsg{})
		c := mk(t, 2)
		defer c.Close()
		const msgs = 600
		go func() {
			for i := 0; i < msgs; i++ {
				c.Port(0).Send(1, stabilityContent(i))
			}
		}()
		var held []Envelope
		for i := 0; i < msgs; i++ {
			env := conformanceRecv(t, c.Port(1))
			m, ok := env.Payload.(stabilityMsg)
			if !ok {
				t.Fatalf("payload %T, want stabilityMsg", env.Payload)
			}
			checkStability(t, m, "at delivery")
			if m.Seq%3 == 0 {
				held = append(held, env) // outlive the delivery burst
			} else {
				env.Release()
			}
		}
		// Every non-held envelope has been released and most of their
		// arenas have recycled under the held ones' feet; the held
		// payloads must still read back exactly as delivered.
		for i := range held {
			checkStability(t, held[i].Payload.(stabilityMsg), "after later bursts recycled")
			held[i].Release()
		}
	})

	t.Run("InjectorDuplication", func(t *testing.T) {
		c := mk(t, 2)
		defer c.Close()
		ic, ok := c.(InjectorCluster)
		if !ok {
			t.Skip("cluster does not support fault injection")
		}
		const msgs = 50
		ic.SetInjector(funcInjector(func(from, to core.ProcessID) (bool, time.Duration, int) {
			if from == 0 && to == 1 {
				return false, 0, 1 // one extra copy of everything
			}
			return false, 0, 0
		}))
		for i := 0; i < msgs; i++ {
			c.Port(0).Send(1, i)
		}
		got := make(map[int]int, msgs)
		for n := 0; n < 2*msgs; n++ {
			env := conformanceRecv(t, c.Port(1))
			got[env.Payload.(int)]++
		}
		for i := 0; i < msgs; i++ {
			if got[i] != 2 {
				t.Errorf("payload %d delivered %d times, want exactly 2", i, got[i])
			}
		}
	})

	t.Run("InjectorReorder", func(t *testing.T) {
		c := mk(t, 2)
		defer c.Close()
		ic, ok := c.(InjectorCluster)
		if !ok {
			t.Skip("cluster does not support fault injection")
		}
		// Delay every second envelope on 0→1 long enough to dominate
		// scheduling noise: the undelayed half overtakes it, so delivery
		// order must differ from send order (non-FIFO lossless channel).
		const msgs = 40
		var calls atomic.Int64
		ic.SetInjector(funcInjector(func(from, to core.ProcessID) (bool, time.Duration, int) {
			if from == 0 && to == 1 && calls.Add(1)%2 == 1 {
				return false, 150 * time.Millisecond, 0
			}
			return false, 0, 0
		}))
		for i := 0; i < msgs; i++ {
			c.Port(0).Send(1, i)
		}
		order := make([]int, 0, msgs)
		seen := make(map[int]bool, msgs)
		for n := 0; n < msgs; n++ {
			env := conformanceRecv(t, c.Port(1))
			i := env.Payload.(int)
			if seen[i] {
				t.Fatalf("payload %d duplicated by a pure delay", i)
			}
			seen[i] = true
			order = append(order, i)
		}
		inOrder := true
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1] {
				inOrder = false
				break
			}
		}
		if inOrder {
			t.Error("deliveries arrived in send order despite alternating delays")
		}
	})

	t.Run("InjectorAsymmetricPartition", func(t *testing.T) {
		c := mk(t, 2)
		defer c.Close()
		ic, ok := c.(InjectorCluster)
		if !ok {
			t.Skip("cluster does not support fault injection")
		}
		// Cut 0→1 while 1→0 flows.
		ic.SetInjector(funcInjector(func(from, to core.ProcessID) (bool, time.Duration, int) {
			return from == 0 && to == 1, 0, 0
		}))
		c.Port(0).Send(1, "fwd")
		c.Port(1).Send(0, "rev")
		if env := conformanceRecv(t, c.Port(0)); env.Payload != "rev" {
			t.Fatalf("reverse direction received %+v, want rev", env)
		}
		select {
		case env := <-c.Port(1).Inbox():
			t.Fatalf("cut direction delivered %+v", env)
		case <-time.After(300 * time.Millisecond):
		}
		// Healing the partition restores the link for new sends (the
		// injector-dropped envelope is gone for good).
		ic.SetInjector(nil)
		c.Port(0).Send(1, "after-heal")
		if env := conformanceRecv(t, c.Port(1)); env.Payload != "after-heal" {
			t.Fatalf("healed link received %+v, want after-heal", env)
		}
	})
}

func conformanceRecv(t *testing.T, p Port) Envelope {
	t.Helper()
	select {
	case env, ok := <-p.Inbox():
		if !ok {
			t.Fatal("inbox closed")
		}
		return env
	case <-time.After(10 * time.Second):
		t.Fatal("timeout waiting for envelope")
	}
	return Envelope{}
}
