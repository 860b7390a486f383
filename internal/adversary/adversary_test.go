package adversary_test

import (
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/transport"
)

// recorder is an inner port that records what reaches it; the wrappers
// send only through SendHop.
type recorder struct {
	transport.Port
	out map[core.ProcessID][]transport.Message
}

func (r *recorder) SendHop(to core.ProcessID, m transport.Message, _ int) {
	r.out[to] = append(r.out[to], m)
}

// sent runs send against a port behind wrap and returns what reached
// the inner port, by destination, in send order.
func sent(wrap adversary.Wrap, send func(transport.Port)) map[core.ProcessID][]transport.Message {
	r := &recorder{out: make(map[core.ProcessID][]transport.Message)}
	send(wrap(r))
	return r.out
}

// TestPortRewritesPerDestination: a broadcast reaches the rewrite once
// per member, and the rewrite may send nothing, the message, or more.
func TestPortRewritesPerDestination(t *testing.T) {
	got := sent(func(p transport.Port) transport.Port {
		return adversary.Port(p, func(to core.ProcessID, m transport.Message, send func(transport.Message)) {
			for i := 1; i < int(to); i++ {
				send(m)
			}
		})
	}, func(p transport.Port) {
		p.Broadcast(core.NewSet(1, 2, 3), storage.WriteAck{TS: 1}, 0)
		p.Send(3, storage.WriteAck{TS: 2})
	})
	want := map[core.ProcessID][]transport.Message{
		2: {storage.WriteAck{TS: 1}},
		3: {storage.WriteAck{TS: 1}, storage.WriteAck{TS: 1}, storage.WriteAck{TS: 2}, storage.WriteAck{TS: 2}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sent %v, want %v", got, want)
	}
}

// TestForgeAcks: the storage forgers rewrite only their own ack kind.
func TestForgeAcks(t *testing.T) {
	row := storage.TSRow{TS: 4}
	got := sent(func(p transport.Port) transport.Port {
		p = adversary.ForgeReadAcks(p, func(to core.ProcessID, rows []storage.TSRow) []storage.TSRow {
			if to == 1 {
				return nil
			}
			return append(rows, row)
		})
		return adversary.ForgeMWReadAcks(p, func(_ core.ProcessID, a storage.MWReadAck) storage.MWReadAck {
			return storage.MWReadAck{Seq: a.Seq}
		})
	}, func(p transport.Port) {
		p.Broadcast(core.NewSet(1, 2), storage.ReadAck{ReadNo: 1, Rows: []storage.TSRow{{TS: 3}}}, 0)
		p.Send(1, storage.MWReadAck{Seq: 9, Tag: storage.Tag{TS: 5}, Val: "v"})
		p.Send(2, storage.WriteAck{TS: 6})
	})
	want := map[core.ProcessID][]transport.Message{
		1: {storage.ReadAck{ReadNo: 1}, storage.MWReadAck{Seq: 9}},
		2: {storage.ReadAck{ReadNo: 1, Rows: []storage.TSRow{{TS: 3}, row}}, storage.WriteAck{TS: 6}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sent %v, want %v", got, want)
	}
}

// TestForgeSlotMsgs: inside slot envelopes, updates and decisions are
// forged or withheld per destination; other messages pass, and an
// envelope left empty is not sent.
func TestForgeSlotMsgs(t *testing.T) {
	upd := consensus.UpdateMsg{Step: 1, V: "v"}
	dec := consensus.DecisionMsg{V: "v"}
	pull := consensus.DecisionPullMsg{}
	got := sent(func(p transport.Port) transport.Port {
		return adversary.ForgeSlotMsgs(p, func(to core.ProcessID, m transport.Message) transport.Message {
			switch m := m.(type) {
			case consensus.UpdateMsg:
				if to == 2 {
					return nil
				}
				m.V = "forged"
				return m
			}
			return m
		})
	}, func(p transport.Port) {
		p.Broadcast(core.NewSet(1, 2), smr.SlotBatch{Msgs: []smr.SlotMsg{{Slot: 1, Payload: upd}, {Slot: 2, Payload: dec}, {Slot: 3, Payload: pull}}}, 0)
		p.Broadcast(core.NewSet(1, 2), smr.SlotMsg{Slot: 4, Payload: upd}, 0)
		p.Send(2, smr.PrefixMsg{Upto: 7})
	})
	forged := upd
	forged.V = "forged"
	want := map[core.ProcessID][]transport.Message{
		1: {
			smr.SlotBatch{Msgs: []smr.SlotMsg{{Slot: 1, Payload: forged}, {Slot: 2, Payload: dec}, {Slot: 3, Payload: pull}}},
			smr.SlotMsg{Slot: 4, Payload: forged},
		},
		2: {
			smr.SlotBatch{Msgs: []smr.SlotMsg{{Slot: 2, Payload: dec}, {Slot: 3, Payload: pull}}},
			smr.PrefixMsg{Upto: 7},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sent %v, want %v", got, want)
	}
}

// TestEquivocatePrepare: only the named view's prepares to dst are
// followed by a second prepare for the other value, with the same proof.
func TestEquivocatePrepare(t *testing.T) {
	q := core.NewSet(1, 2)
	prep := consensus.PrepareMsg{V: "a", View: 1, Q: q}
	got := sent(func(p transport.Port) transport.Port {
		return adversary.EquivocatePrepare(p, 1, core.NewSet(2), "b")
	}, func(p transport.Port) {
		p.Broadcast(core.NewSet(1, 2), prep, 0)
		p.Send(2, consensus.PrepareMsg{V: "a", View: 2})
	})
	want := map[core.ProcessID][]transport.Message{
		1: {prep},
		2: {prep, consensus.PrepareMsg{V: "b", View: 1, Q: q}, consensus.PrepareMsg{V: "a", View: 2}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sent %v, want %v", got, want)
	}
}
