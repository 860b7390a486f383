package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/transport"
)

// The traced pass wraps the transport.Port handed to every client AND
// every storage.Server: that is the storage↔transport boundary on both
// sides of the wire, observed from the benchmark's own files. All
// processes share this address space, so the two sides stamp the same
// per-round record; the span id is (client, request key), which is
// unique because a client has one operation — and one round of it — in
// flight at a time, and replies echo the request's own sequence field.
//
// Stamps along one request, per contacted server:
//
//	client: sendEnter → sendExit            (transport send call)
//	server: arrive  — envelope left the real inbox (forwarding goroutine)
//	        take    — the server loop asked for its inbox again after the
//	                  envelope was handed over (see serverPort.Inbox)
//	        ackSend — entry of the server's reply SendHop/SendBatch
//	client: ackRecv — reply left the client's real inbox

// msgKey identifies a request and its reply by the payload's own
// sequence fields.
type msgKey struct {
	kind uint8
	a, b int64
}

func keyOf(m transport.Message) (msgKey, bool) {
	switch p := m.(type) {
	case storage.MWReadReq:
		return msgKey{1, p.Seq, 0}, true
	case storage.MWReadAck:
		return msgKey{1, p.Seq, 0}, true
	case storage.MWWriteReq:
		return msgKey{2, p.Seq, 0}, true
	case storage.MWWriteAck:
		return msgKey{2, p.Seq, 0}, true
	case storage.KVCASReq:
		return msgKey{3, p.Seq, 0}, true
	case storage.KVCASAck:
		return msgKey{3, p.Seq, 0}, true
	case storage.WriteReq:
		return msgKey{4, p.TS, int64(p.Round)}, true
	case storage.WriteAck:
		return msgKey{4, p.TS, int64(p.Round)}, true
	case storage.ReadReq:
		return msgKey{5, p.ReadNo, int64(p.Round)}, true
	case storage.ReadAck:
		return msgKey{5, p.ReadNo, int64(p.Round)}, true
	}
	return msgKey{}, false
}

// srvStamps are one server's stamps on one round. Several goroutines
// write them (server forwarder, server loop, WAL syncer, client
// forwarder), each its own field, first write wins.
type srvStamps struct {
	arrive, take, ackSend, ackRecv atomic.Int64
}

func stampOnce(a *atomic.Int64, t int64) { a.CompareAndSwap(0, t) }

// roundRec is one request broadcast and its replies.
type roundRec struct {
	key                 msgKey
	sendEnter, sendExit int64
	srv                 []srvStamps // by server id
}

// opRec is one client operation: the root span.
type opRec struct {
	client     core.ProcessID
	seq        int
	kind       string
	start, end int64
	rounds     []*roundRec
}

// tracer owns a traced pass's shared state.
type tracer struct {
	clk      clock
	rqs      *core.RQS
	nServers int
	// inflight[c] is client c's current round; server-side ports find
	// the record to stamp through it.
	inflight []atomic.Pointer[roundRec]
	// syncDelivery marks the in-memory transport, whose Send puts the
	// envelope into the destination's inbox before it returns: there
	// is no flight, so arrival is the end of the send call and a reply
	// is at the client when the server's send call begins. What the
	// forwarding goroutines then measure is the consumer waiting for a
	// processor, which is charged to the consumer (server.inbox_wait,
	// client.finish) — not to a transport that did nothing.
	syncDelivery bool
	// Server reply batching, counted at the server ports.
	ackSends, ackMsgs atomic.Int64

	done chan struct{}  // closed by stop: forwarders exit
	wg   sync.WaitGroup // forwarding goroutines
}

func newTracer(clk clock, rqs *core.RQS, processes int, syncDelivery bool) *tracer {
	return &tracer{clk: clk, rqs: rqs, nServers: rqs.N(), syncDelivery: syncDelivery,
		inflight: make([]atomic.Pointer[roundRec], processes), done: make(chan struct{})}
}

// stop ends every forwarding goroutine and waits for them.
func (t *tracer) stop() {
	close(t.done)
	t.wg.Wait()
}

// stamps returns server's stamp block of client's in-flight round if
// payload belongs to that round.
func (t *tracer) stamps(client, server core.ProcessID, payload transport.Message) *srvStamps {
	if int(client) >= len(t.inflight) || int(server) >= t.nServers {
		return nil
	}
	r := t.inflight[client].Load()
	if r == nil {
		return nil
	}
	if k, ok := keyOf(payload); !ok || k != r.key {
		return nil
	}
	return &r.srv[server]
}

// clientTrace is one logical client's op log. A KV client holds one
// port per shard group; they share the clientTrace (an op runs in one
// group). Only the client's own goroutine touches it until the pass
// has been joined.
type clientTrace struct {
	t   *tracer
	id  core.ProcessID
	cur *opRec
	ops []*opRec
}

func (c *clientTrace) begin(kind string) {
	c.cur = &opRec{client: c.id, seq: len(c.ops), kind: kind, start: c.t.clk.now()}
}

func (c *clientTrace) end() {
	c.cur.end = c.t.clk.now()
	c.ops = append(c.ops, c.cur)
	c.cur = nil
}

// clientPort is the traced port of a client.
type clientPort struct {
	transport.Port
	ct  *clientTrace
	fwd chan transport.Envelope
}

// tracePortBuffer matches the transports' own inbox capacity, so the
// forwarding hop adds a stamp, not a narrower queue.
const tracePortBuffer = 4096

func (t *tracer) clientPort(real transport.Port, ct *clientTrace) *clientPort {
	p := &clientPort{Port: real, ct: ct, fwd: make(chan transport.Envelope, tracePortBuffer)}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		defer close(p.fwd)
		for {
			select {
			case env, ok := <-real.Inbox():
				if !ok {
					return
				}
				if st := t.stamps(ct.id, env.From, env.Payload); st != nil {
					stampOnce(&st.ackRecv, t.clk.now())
				}
				select {
				case p.fwd <- env:
				case <-t.done:
					return
				}
			case <-t.done:
				return
			}
		}
	}()
	return p
}

func (p *clientPort) Inbox() <-chan transport.Envelope { return p.fwd }

// Broadcast is the only send the storage clients use: one call per
// protocol round.
func (p *clientPort) Broadcast(dst core.Set, payload transport.Message, hop int) {
	ct := p.ct
	k, ok := keyOf(payload)
	if !ok || ct.cur == nil {
		p.Port.Broadcast(dst, payload, hop)
		return
	}
	r := &roundRec{key: k, srv: make([]srvStamps, ct.t.nServers)}
	ct.cur.rounds = append(ct.cur.rounds, r)
	r.sendEnter = ct.t.clk.now()
	ct.t.inflight[ct.id].Store(r)
	p.Port.Broadcast(dst, payload, hop)
	r.sendExit = ct.t.clk.now()
}

// serverPort is the traced port of a storage.Server.
type serverPort struct {
	transport.Port
	t   *tracer
	fwd chan transport.Envelope
	// handed counts envelopes put into fwd; pend[i%len] is the stamp
	// block of the i-th (nil when it matched no traced round); taken
	// is how many the server has been seen to take — touched only by
	// the server loop, the one caller of Inbox.
	handed atomic.Int64
	pend   [2 * tracePortBuffer]atomic.Pointer[srvStamps]
	taken  int64
}

func (t *tracer) serverPort(real transport.Port) *serverPort {
	p := &serverPort{Port: real, t: t, fwd: make(chan transport.Envelope, tracePortBuffer)}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		defer close(p.fwd)
		for seq := int64(0); ; seq++ {
			select {
			case env, ok := <-real.Inbox():
				if !ok {
					return
				}
				st := t.stamps(env.From, real.ID(), env.Payload)
				if st != nil {
					stampOnce(&st.arrive, t.clk.now())
				}
				p.pend[seq%int64(len(p.pend))].Store(st)
				select {
				case p.fwd <- env:
					p.handed.Add(1)
				case <-t.done:
					return
				}
			case <-t.done:
				return
			}
		}
	}()
	return p
}

// Inbox is evaluated by the server loop every time it is about to
// receive (`<-s.port.Inbox()`), so a call marks an instant at which
// the server had finished with everything it took before. The number
// taken so far is handed − still-queued; envelopes newly counted as
// taken get this call's time as their take stamp. That is at most one
// loop iteration after the real take — a few tens of ns — without
// narrowing the queue to a rendezvous, which would collapse the
// server's burst drain and change what is being measured.
func (p *serverPort) Inbox() <-chan transport.Envelope {
	taken := p.handed.Load() - int64(len(p.fwd))
	if taken > p.taken {
		now := p.t.clk.now()
		for i := p.taken; i < taken; i++ {
			if st := p.pend[i%int64(len(p.pend))].Load(); st != nil {
				stampOnce(&st.take, now)
			}
		}
		p.taken = taken
	}
	return p.fwd
}

func (p *serverPort) ack(to core.ProcessID, payload transport.Message, now int64) {
	if st := p.t.stamps(to, p.ID(), payload); st != nil {
		stampOnce(&st.ackSend, now)
	}
}

func (p *serverPort) SendHop(to core.ProcessID, payload transport.Message, hop int) {
	p.ack(to, payload, p.t.clk.now())
	p.t.ackSends.Add(1)
	p.t.ackMsgs.Add(1)
	p.Port.SendHop(to, payload, hop)
}

func (p *serverPort) SendBatch(to core.ProcessID, payloads []transport.Message, hop int) {
	now := p.t.clk.now()
	for _, m := range payloads {
		p.ack(to, m, now)
	}
	p.t.ackSends.Add(1)
	p.t.ackMsgs.Add(int64(len(payloads)))
	p.Port.SendBatch(to, payloads, hop)
}

// Stage names of the storage budget, in blocking-chain order.
var storageStages = []string{
	"client.pre_send", "transport.send_call", "transport.req_flight",
	"storage.server_inbox_wait", "storage.server_turnaround",
	"transport.ack_flight", "client.finish",
}

// chainLink is one round along an op's blocking chain: the boundaries
// b[0..5] = sendEnter, send done, arrive, take, ackSend, ackRecv at the
// server whose reply completed the quorum.
type chainLink struct {
	server int
	b      [6]int64
	first  int64 // earliest reply of the round (ack spread)
}

// chain finds, for every round of op, the server whose reply was the
// first to make the replies received so far contain a class-3 quorum —
// the reply the client was blocked on — and returns the clamped stage
// boundaries there. ok is false when a stamp is missing (the op is
// left out of the budget; its latency still counts).
func (t *tracer) chain(op *opRec) (links []chainLink, ok bool) {
	for i, r := range op.rounds {
		roundEnd := op.end
		if i+1 < len(op.rounds) {
			roundEnd = op.rounds[i+1].sendEnter
		}
		type reply struct {
			server int
			at     int64
		}
		var replies []reply
		for s := range r.srv {
			if at := r.srv[s].ackRecv.Load(); at != 0 && at <= roundEnd {
				replies = append(replies, reply{s, at})
			}
		}
		sort.Slice(replies, func(a, b int) bool { return replies[a].at < replies[b].at })
		responded, done := core.EmptySet, -1
		for _, rp := range replies {
			responded = responded.Add(rp.server)
			if _, has := t.rqs.ContainedQuorum(responded, core.Class3); has {
				done = rp.server
				break
			}
		}
		if done < 0 {
			return nil, false
		}
		b, complete := t.boundaries(r, done)
		if !complete {
			return nil, false
		}
		links = append(links, chainLink{server: done, first: replies[0].at, b: b})
	}
	return links, len(links) > 0
}

// boundaries returns the stage boundaries of round r at server s —
// sendEnter, send done, arrive, take, ackSend, ackRecv — clamped so
// that they never decrease; complete is false when the server never
// stamped the request or the reply.
func (t *tracer) boundaries(r *roundRec, s int) (b [6]int64, complete bool) {
	st := &r.srv[s]
	arrive, take, ackSend, ackRecv := st.arrive.Load(), st.take.Load(), st.ackSend.Load(), st.ackRecv.Load()
	if arrive == 0 || ackSend == 0 || ackRecv == 0 {
		return b, false
	}
	if t.syncDelivery {
		arrive, ackRecv = r.sendExit, ackSend
	}
	// A request can reach the first servers before Broadcast has
	// returned, and a take stamp can trail the reply when the server
	// filled a whole burst.
	sent := r.sendExit
	if sent > arrive {
		sent = arrive
	}
	if take == 0 || take > ackSend {
		take = ackSend
	}
	if take < arrive {
		take = arrive
	}
	if ackSend < take {
		ackSend = take
	}
	if ackRecv < ackSend {
		ackRecv = ackSend
	}
	return [6]int64{r.sendEnter, sent, arrive, take, ackSend, ackRecv}, true
}

// stagesOf tiles op along its blocking chain: the seven storage stages
// sum to exactly end − start. Client time between two rounds counts as
// client.finish (of the earlier round).
func stagesOf(op *opRec, links []chainLink) [7]int64 {
	var st [7]int64
	prev := op.start
	for i, l := range links {
		gap := l.b[0] - prev
		if i == 0 {
			st[0] += gap
		} else {
			st[6] += gap
		}
		for k := 1; k < 6; k++ {
			st[k] += l.b[k] - l.b[k-1]
		}
		prev = l.b[5]
	}
	st[6] += op.end - prev
	return st
}

// budget is a workload's latency budget: for the ops whose traced
// latency lies in the p45–p55 band — the median op — the mean
// self-time of every stage along the blocking chain. Stage means over
// one set of ops sum to that set's mean latency, so the table tiles
// the traced p50 up to the band's width; the residual says how well.
type budget struct {
	stages   []string
	micros   []float64
	p50      float64 // traced p50 of all ops, µs
	ops      int     // ops in the band
	residual float64 // |Σ stages − p50| / p50
}

func newBudget(stages []string, lat []int64, perOp [][]int64) *budget {
	b := &budget{stages: stages, micros: make([]float64, len(stages))}
	if len(lat) == 0 {
		return b
	}
	sorted := append([]int64(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	lo, hi := percentile(sorted, 45), percentile(sorted, 55)
	b.p50 = float64(percentile(sorted, 50)) / 1e3
	for i, l := range lat {
		if l < lo || l > hi {
			continue
		}
		b.ops++
		for k, v := range perOp[i] {
			b.micros[k] += float64(v) / 1e3
		}
	}
	sum := 0.0
	for k := range b.micros {
		b.micros[k] /= float64(b.ops)
		sum += b.micros[k]
	}
	if b.p50 > 0 {
		b.residual = (sum - b.p50) / b.p50
		if b.residual < 0 {
			b.residual = -b.residual
		}
	}
	return b
}

func (b *budget) print(note string) {
	fmt.Printf("  budget of the median op (mean over the %d ops in the p45-p55 band, blocking chain)%s\n", b.ops, note)
	for k, name := range b.stages {
		fmt.Printf("    %-28s %10.2f us  %5.1f%%\n", name, b.micros[k], 100*b.micros[k]/b.p50)
	}
	fmt.Printf("    %-28s %10.2f us  residual %.2f%%\n", "traced p50", b.p50, 100*b.residual)
}

// share returns the summed share of the traced p50 the named stages
// take.
func (b *budget) share(names ...string) float64 {
	sum := 0.0
	for k, name := range b.stages {
		for _, want := range names {
			if name == want {
				sum += b.micros[k]
			}
		}
	}
	if b.p50 == 0 {
		return 0
	}
	return sum / b.p50
}

// storageTrace is the analysis of a traced storage pass.
type storageTrace struct {
	budget *budget
	// metrics are the trace-derived per-layer metrics by name: the p50
	// in µs of each span kind over every contacted server (not only
	// the blocking chain) and of the per-op client spans, plus the
	// round and reply-batch counts.
	metrics        map[string]float64
	ops, unchained int
}

func p50us(v []int64) float64 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return float64(percentile(v, 50)) / 1e3
}

// analyse joins the clients' op logs (call it only after the pass has
// been joined and the tracer stopped).
func (t *tracer) analyse(clients []*clientTrace) *storageTrace {
	var lat []int64
	var perOp [][]int64
	var sendCall, reqFlight, inboxWait, turnaround, ackFlight, preSend, finish, spread []int64
	res := &storageTrace{metrics: make(map[string]float64)}
	rounds, oneRound := 0, 0
	for _, c := range clients {
		for _, op := range c.ops {
			if len(op.rounds) == 0 {
				continue
			}
			res.ops++
			rounds += len(op.rounds)
			if len(op.rounds) == 1 {
				oneRound++
			}
			for _, r := range op.rounds {
				sendCall = append(sendCall, r.sendExit-r.sendEnter)
				for s := range r.srv {
					b, complete := t.boundaries(r, s)
					if !complete {
						continue
					}
					reqFlight = append(reqFlight, b[2]-b[1])
					inboxWait = append(inboxWait, b[3]-b[2])
					turnaround = append(turnaround, b[4]-b[3])
					ackFlight = append(ackFlight, b[5]-b[4])
				}
			}
			links, ok := t.chain(op)
			if !ok {
				res.unchained++
				continue
			}
			st := stagesOf(op, links)
			lat = append(lat, op.end-op.start)
			perOp = append(perOp, st[:])
			preSend = append(preSend, st[0])
			finish = append(finish, op.end-links[len(links)-1].b[5])
			for _, l := range links {
				spread = append(spread, l.b[5]-l.first)
			}
		}
	}
	res.budget = newBudget(storageStages, lat, perOp)
	m := res.metrics
	m["transport.send_call_us"], m["transport.req_flight_us"], m["transport.ack_flight_us"] = p50us(sendCall), p50us(reqFlight), p50us(ackFlight)
	m["storage.server_inbox_wait_us"], m["storage.server_turnaround_us"] = p50us(inboxWait), p50us(turnaround)
	m["storage.client_pre_send_us"], m["storage.client_finish_us"] = p50us(preSend), p50us(finish)
	m["storage.ack_spread_us"] = p50us(spread)
	m["bench.budget_residual_share"] = 100 * res.budget.residual
	if res.ops > 0 {
		m["storage.rounds_mean"] = float64(rounds) / float64(res.ops)
		m["storage.one_round_share"] = 100 * float64(oneRound) / float64(res.ops)
	}
	if n := t.ackSends.Load(); n > 0 {
		m["storage.acks_per_send_batch"] = float64(t.ackMsgs.Load()) / float64(n)
	}
	return res
}

// span is one line of the -trace FILE output.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the run's base
	End    int64  `json:"end"`
	Parent string `json:"parent"` // id of the enclosing span, "" for an op
	Op     string `json:"op"`     // id of the root span: workload/client/seq
	ID     string `json:"id"`
}

// writeSpans appends every span of the pass to path as JSON lines:
// op ⊃ client.pre_send, round ⊃ {send_call, per contacted server:
// req.flight, server.inbox_wait, server.turnaround, ack.flight},
// client.finish. Stamps are raw (unclamped); a span whose ends were
// never both stamped, or that would be negative, is left out.
func (t *tracer) writeSpans(path, workload string, clients []*clientTrace) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, c := range clients {
		for _, op := range c.ops {
			if len(op.rounds) == 0 {
				continue
			}
			root := fmt.Sprintf("%s/c%d/%d", workload, op.client, op.seq)
			emit := func(parent, name string, start, end int64) {
				if start > 0 && end >= start {
					_ = enc.Encode(span{Name: name, Start: start, End: end, Parent: parent, Op: root, ID: parent + "/" + name})
				}
			}
			_ = enc.Encode(span{Name: "op." + op.kind, Start: op.start, End: op.end, Op: root, ID: root})
			emit(root, "client.pre_send", op.start, op.rounds[0].sendEnter)
			finishFrom := int64(0)
			for i, r := range op.rounds {
				round := fmt.Sprintf("r%d", i+1)
				roundEnd := op.end
				if i+1 < len(op.rounds) {
					roundEnd = op.rounds[i+1].sendEnter
				}
				emit(root, round, r.sendEnter, roundEnd)
				emit(root+"/"+round, "send_call", r.sendEnter, r.sendExit)
				for s := range r.srv {
					st, at := &r.srv[s], fmt.Sprintf("%s/%s/s%d", root, round, s)
					emit(at, "req.flight", r.sendExit, st.arrive.Load())
					emit(at, "server.inbox_wait", st.arrive.Load(), st.take.Load())
					emit(at, "server.turnaround", st.take.Load(), st.ackSend.Load())
					emit(at, "ack.flight", st.ackSend.Load(), st.ackRecv.Load())
				}
			}
			if links, ok := t.chain(op); ok {
				finishFrom = links[len(links)-1].b[5]
			}
			emit(root, "client.finish", finishFrom, op.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
