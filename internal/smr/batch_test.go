package smr

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/transport"
)

// countingInjector sees every envelope the in-memory network dispatches
// and never interferes with one.
type countingInjector struct{ envelopes atomic.Int64 }

func (c *countingInjector) Decide(from, to core.ProcessID) (bool, time.Duration, int) {
	c.envelopes.Add(1)
	return false, 0, 0
}

// TestPipelinedEnvelopesPerDecision pins what a decision costs the
// transport: envelopes, counted by an injector over 2,000 decisions on
// Example 7. Before hosts coalesced each burst's sends, the parent
// measured 178–196 envelopes per decision at window 16 and 186–192 at
// window 1 (every update step and decision was its own envelope to each
// of the 7 update targets).
func TestPipelinedEnvelopesPerDecision(t *testing.T) {
	const decisions = 2000
	for _, tc := range []struct {
		window int
		max    float64
	}{
		{window: 16, max: 40},
		{window: 1, max: 191},
	} {
		t.Run(fmt.Sprintf("window%d", tc.window), func(t *testing.T) {
			d := deploy(t, core.Example7RQS())
			defer d.stop()
			d.decideInWindows(t, 4*tc.window, tc.window)
			var inj countingInjector
			d.net.SetInjector(&inj)
			d.decideInWindows(t, decisions, tc.window)
			per := float64(inj.envelopes.Load()) / decisions
			t.Logf("%.1f envelopes per decision", per)
			if per >= tc.max {
				t.Fatalf("%.1f envelopes per decision at window %d, want < %.0f", per, tc.window, tc.max)
			}
		})
	}
}

// received is one slot message as a host's demultiplexer sees it.
type received struct {
	slot    int
	payload transport.Message
}

// TestBurstOrder sends through one host's outbox as slot instances do,
// with the slot set before each send, and unpacks what each destination
// receives: every flush is one envelope per destination, each
// destination sees its messages in send order within and across
// flushes, and a lone message travels bare.
func TestBurstOrder(t *testing.T) {
	net := transport.NewNetwork(3)
	defer net.Close()
	out := outbox{port: net.Port(0)}
	port := func(slot int) transport.Port {
		out.slot = slot
		return &out
	}
	both := core.NewSet(1, 2)

	// Flush 1: several slots to one destination set.
	for slot := 0; slot < 4; slot++ {
		transport.Broadcast(port(slot), both, consensus.UpdateMsg{Step: 1, V: "v"})
	}
	out.flush()
	// Flush 2: mixed destinations, as a Byzantine acceptor's
	// per-destination sends or a decision-pull reply produce.
	port(4).Send(1, consensus.UpdateMsg{Step: 2, V: "to-1"})
	transport.Broadcast(port(5), both, consensus.DecisionMsg{V: "v"})
	port(6).Send(2, consensus.UpdateMsg{Step: 2, V: "to-2"})
	out.flush()
	// Flush 3: a lone message travels bare.
	port(7).Send(2, consensus.UpdateMsg{Step: 3, V: "v"})
	out.flush()

	flush1 := []received{
		{0, consensus.UpdateMsg{Step: 1, V: "v"}},
		{1, consensus.UpdateMsg{Step: 1, V: "v"}},
		{2, consensus.UpdateMsg{Step: 1, V: "v"}},
		{3, consensus.UpdateMsg{Step: 1, V: "v"}},
	}
	want := map[core.ProcessID][][]received{
		1: {flush1, {
			{4, consensus.UpdateMsg{Step: 2, V: "to-1"}},
			{5, consensus.DecisionMsg{V: "v"}},
		}},
		2: {flush1, {
			{5, consensus.DecisionMsg{V: "v"}},
			{6, consensus.UpdateMsg{Step: 2, V: "to-2"}},
		}, {
			{7, consensus.UpdateMsg{Step: 3, V: "v"}},
		}},
	}
	for to, envs := range want {
		for i, wantMsgs := range envs {
			env := <-net.Port(to).Inbox()
			if _, bare := env.Payload.(SlotMsg); bare != (len(wantMsgs) == 1) {
				t.Errorf("to %d, envelope %d: payload %T for %d messages", to, i, env.Payload, len(wantMsgs))
			}
			var got []received
			eachSlotMsg(env, func(slot int, env transport.Envelope) {
				got = append(got, received{slot, env.Payload})
			})
			if !reflect.DeepEqual(got, wantMsgs) {
				t.Errorf("to %d, envelope %d: unpacked %v, want %v", to, i, got, wantMsgs)
			}
		}
		select {
		case env := <-net.Port(to).Inbox():
			t.Errorf("to %d: unexpected extra envelope %+v", to, env)
		default:
		}
	}
}

// TestDecisionPullForUnknownSlotCreatesNoAcceptor: a decision pull for
// a slot a replica has never seen cannot be answered, so it must not
// leave an acceptor behind — after drops, or a replica crashed through
// a slot's prepare, nothing else for that slot may ever arrive.
func TestDecisionPullForUnknownSlotCreatesNoAcceptor(t *testing.T) {
	d := deploy(t, core.Example7RQS())
	defer d.stop()
	rqs := core.Example7RQS()
	out := outbox{port: d.net.Port(rqs.N() + 1)} // the log host's address
	for slot := 100; slot < 105; slot++ {        // one batch per acceptor
		out.slot = slot
		transport.Broadcast(&out, rqs.Universe(), consensus.DecisionPullMsg{})
	}
	out.flush()
	out.slot = 200
	transport.Broadcast(&out, rqs.Universe(), consensus.DecisionPullMsg{})
	out.flush() // a bare pull
	d.stop()    // every replica has drained its inbox: its map is ours to read
	for i, r := range d.replicas {
		if live := r.liveAcceptors(); live != 0 {
			t.Errorf("replica %d holds %d acceptors after pulls for never-proposed slots", i, live)
		}
	}
}
