package sim

import (
	"time"

	"repro/internal/adversary"
	"repro/internal/chaos"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/transport"
)

// The named scenarios of the chaos matrix. Each is a fault campaign the
// protocols must survive (or, for the negative controls, provably must
// not): liveness is asserted through per-operation deadlines, safety
// through histcheck on every completed run. Fault randomness derives
// entirely from the run seed, so a failing cell replays exactly from
// its seed.

var bothTransports = []Transport{MemoryTransport, TCPTransport}

// storageWorkloads are the register-shaped rows every generic fault
// campaign covers: the two single-register protocols plus the keyed
// service (whose cell drives multi-key writes across both shard
// groups). Byzantine scenarios pin their workload explicitly — their
// wrappers forge one protocol's message types.
var storageWorkloads = []Workload{SWMRWorkload, MWMRWorkload, KVWorkload}

var allWorkloads = []Workload{SWMRWorkload, MWMRWorkload, KVWorkload, SMRWorkload}

// everyLink matches any sender and any receiver.
var everyLink = core.EmptySet

// staleForge makes server id answer every MWMR read with the initial
// 〈zero-tag, ⊥〉 — a Byzantine server hiding the newest write. A
// quorum system meeting the class-3 intersection requirement masks it;
// one below it does not (see byzantine-stale-tag-weak). The forger
// holds no writer's key, so its acks carry no signatures.
func staleForge(id core.ProcessID) map[core.ProcessID]adversary.Wrap {
	return map[core.ProcessID]adversary.Wrap{id: func(p transport.Port) transport.Port {
		return adversary.ForgeMWReadAcks(p, func(_ core.ProcessID, a storage.MWReadAck) storage.MWReadAck {
			// A Byzantine server may lie about Synced as about the pair.
			return storage.MWReadAck{Seq: a.Seq, Synced: true}
		})
	}}
}

// replayForge makes server id answer every MWMR read after the first
// (per key) by re-serving its first ack with the sequence number
// rewritten to the current request's — a compromised server replaying
// an old, once-valid reply. The countersignature binds the original
// sequence number, so authenticated clients reject the replay.
func replayForge(id core.ProcessID) map[core.ProcessID]adversary.Wrap {
	return map[core.ProcessID]adversary.Wrap{id: adversary.ReplayMWReadAcks}
}

// equivocate makes acceptor replica id equivocate: every consensus
// update and decision it sends to an odd-numbered destination carries a
// fabricated value while even-numbered destinations receive the true
// one — the classic split-vote attack. Both acceptors and learners key
// their collection by value and demand basic sender sets (decisions) or
// class-3 quorums (updates) before adopting, so the fabricated value
// never accumulates past its single Byzantine sender.
func equivocate(id core.ProcessID) map[core.ProcessID]adversary.Wrap {
	return map[core.ProcessID]adversary.Wrap{id: func(p transport.Port) transport.Port {
		return adversary.ForgeSlotMsgs(p, func(to core.ProcessID, m transport.Message) transport.Message {
			if to%2 == 0 {
				return m
			}
			switch m := m.(type) {
			case consensus.UpdateMsg:
				m.V += "#equivocated"
				return m
			case consensus.DecisionMsg:
				m.V += "#equivocated"
				return m
			}
			return m
		})
	}}
}

// scenarios is the registry, in canonical matrix order.
var scenarios = []*Scenario{
	{
		Name: "partition-heal-during-write",
		Description: "All traffic into servers 2..n-1 is parked for the first " +
			"700ms — no class-3 quorum is reachable, so in-flight operations " +
			"stall — then the partition heals and the parked traffic flows. " +
			"Every operation must complete after the heal. The kv cell runs " +
			"the partition against multi-key writes across both shard groups.",
		Transports: bothTransports,
		Workloads:  storageWorkloads,
		Script: func(r *core.RQS, seed int64) *chaos.Script {
			return chaos.NewScript(seed).Rule(chaos.Rule{
				To:     r.Universe().Diff(core.NewSet(0, 1)),
				Stop:   700 * time.Millisecond,
				Effect: chaos.Park{},
			})
		},
	},
	{
		Name: "asymmetric-partition",
		Description: "Server n-1's outbound links are cut for 500ms while its " +
			"inbound links flow: it keeps applying writes but its replies " +
			"vanish. Quorums assemble from the remaining servers.",
		Transports: bothTransports,
		Workloads:  storageWorkloads,
		Script: func(r *core.RQS, seed int64) *chaos.Script {
			return chaos.NewScript(seed).Rule(chaos.Rule{
				From:   core.NewSet(r.N() - 1),
				Stop:   500 * time.Millisecond,
				Effect: chaos.Cut{},
			})
		},
	},
	{
		Name: "flapping-quorum-member",
		Description: "Both directions of server n-1's links flap on a 160ms " +
			"square wave (down half of each period, traffic parked to the " +
			"phase end) for the whole run.",
		Transports: bothTransports,
		Workloads:  storageWorkloads,
		Script: func(r *core.RQS, seed int64) *chaos.Script {
			flap := chaos.Flap{Period: 160 * time.Millisecond, Duty: 0.5, Park: true}
			member := core.NewSet(r.N() - 1)
			return chaos.NewScript(seed).
				Rule(chaos.Rule{To: member, Effect: flap}).
				Rule(chaos.Rule{From: member, Effect: flap})
		},
	},
	{
		Name: "byzantine-stale-tag",
		Description: "Server 0 forges every MWMR read reply to the initial " +
			"〈zero-tag, ⊥〉 on ByzantineThirdRQS(4), whose class-3 quorums " +
			"meet the intersection requirement: the stale tag is outvoted " +
			"and every history stays atomic (positive control). The kv cell " +
			"installs the forger as server 0 of every shard group, so the " +
			"keyed reads of both groups face it.",
		Transports: bothTransports,
		Workloads:  []Workload{MWMRWorkload, KVWorkload},
		System:     func() *core.RQS { return core.ByzantineThirdRQS(4) },
		Byzantine:  staleForge(0),
	},
	{
		Name: "byzantine-stale-tag-weak",
		Description: "The same stale-tag forger on MajorityRQS(3) — crash-only " +
			"majorities, below the class-3 intersection requirement — plus " +
			"asymmetric cuts steering writers to servers {0,1} and readers " +
			"to {0,2}: the readers' quorum holds no honest server that saw " +
			"a write, the one-round fast path returns the stale tag, and " +
			"histcheck must reject the history (negative control). The kv " +
			"cell's clients sit on the same port layout (putters on n, n+1; " +
			"getters on n+2, n+3), so the same steering breaks the keyed " +
			"service too.",
		Transports: bothTransports,
		Workloads:  []Workload{MWMRWorkload, KVWorkload},
		System:     func() *core.RQS { return core.MajorityRQS(3) },
		Byzantine:  staleForge(0),
		Script: func(r *core.RQS, seed int64) *chaos.Script {
			n := r.N() // clients: writers/putters on n, n+1; readers/getters on n+2, n+3
			return chaos.NewScript(seed).
				Rule(chaos.Rule{From: core.NewSet(n, n+1), To: core.NewSet(2), Effect: chaos.Cut{}}).
				Rule(chaos.Rule{From: core.NewSet(n+2, n+3), To: core.NewSet(1), Effect: chaos.Cut{}})
		},
		ExpectViolation: true,
	},
	{
		Name: "byzantine-stale-tag-auth",
		Description: "The stale-tag forger on MajorityRQS(3) — the system the " +
			"-weak control steers into a provable violation — but the " +
			"deployment is authenticated. The forger's acks carry no valid " +
			"writer signature or countersignature, so clients discard them " +
			"before they can enter any quorum: no scheduling or steering " +
			"can ever make a read count the stale tag, and every phase " +
			"completes on the verified honest majority {1,2} instead. The " +
			"Byzantine server degrades to tolerated noise (the run's " +
			"rejected-ack counters prove it kept trying).",
		Transports: bothTransports,
		Workloads:  []Workload{MWMRWorkload, KVWorkload},
		System:     func() *core.RQS { return core.MajorityRQS(3) },
		Byzantine:  staleForge(0),
		Auth:       true,
	},
	{
		Name: "byzantine-replayed-tag",
		Description: "Server 0 answers every MWMR read after its first (per " +
			"key) by replaying its first captured ack with the sequence " +
			"number rewritten — an old, once-valid reply re-served as fresh. " +
			"The countersignature binds the original sequence number, so " +
			"authenticated readers reject the replay and complete on the " +
			"verified honest majority; the replayed stale tag never enters " +
			"a quorum. Replies from the honest servers {1,2} to the clients " +
			"are delayed 10ms, so the replay always reaches a read before " +
			"its verified quorum completes.",
		Transports: bothTransports,
		Workloads:  []Workload{MWMRWorkload, KVWorkload},
		System:     func() *core.RQS { return core.MajorityRQS(3) },
		Byzantine:  replayForge(0),
		Auth:       true,
		Script: func(r *core.RQS, seed int64) *chaos.Script {
			clients := core.FullSet(r.N() + kvScenarioClients).Diff(r.Universe())
			return chaos.NewScript(seed).Rule(chaos.Rule{
				From:   core.NewSet(1, 2),
				To:     clients,
				Effect: chaos.Delay{Dist: chaos.Fixed(10 * time.Millisecond)},
			})
		},
	},
	{
		Name: "byzantine-equivocating-acceptor",
		Description: "Acceptor 0 equivocates on ByzantineThirdRQS(4): every " +
			"update and decision it sends to an odd destination carries a " +
			"fabricated value, even destinations the true one. Value-keyed " +
			"collection with basic-set/quorum adoption guards means the " +
			"fabricated value never outgrows its single sender; the honest " +
			"three-quorum still decides every proposed command.",
		Transports: []Transport{MemoryTransport},
		Workloads:  []Workload{SMRWorkload},
		System:     func() *core.RQS { return core.ByzantineThirdRQS(4) },
		Byzantine:  equivocate(0),
	},
	{
		Name: "kill9-restart-midwrite",
		Description: "A fixed 15ms delay on all traffic into servers stretches " +
			"the run; 120ms in, server 1 is killed mid-operation, stays down " +
			"150ms, and restarts from its write-ahead log. Operations ride " +
			"out the outage on the surviving quorums.",
		Transports: bothTransports,
		Workloads:  storageWorkloads,
		Durable:    true,
		Script: func(r *core.RQS, seed int64) *chaos.Script {
			return chaos.NewScript(seed).Rule(chaos.Rule{
				To:     r.Universe(),
				Effect: chaos.Delay{Dist: chaos.Fixed(15 * time.Millisecond)},
			})
		},
		Events: func(rc *RunContext) {
			time.Sleep(120 * time.Millisecond)
			_ = rc.Restart(1, 150*time.Millisecond)
		},
	},
	{
		Name: "kill9-recover-midwrite",
		Description: "The crash-recovery tier: servers run over write-ahead " +
			"logs, a fixed 12ms delay into servers stretches the run, half " +
			"of the traffic into servers is duplicated, and 110ms in server " +
			"1 is kill -9'd mid-operation with real process-state loss — the " +
			"fresh incarnation replays its WAL before serving again, and " +
			"requests arrive at it twice on both sides of the crash. " +
			"Every acked write it vouched for must still be there: histcheck " +
			"rejects the history if recovery loses or doubles one. The kv " +
			"cell drives multi-key writes across both shard groups through " +
			"the crash window.",
		Transports: bothTransports,
		Workloads:  storageWorkloads,
		Durable:    true,
		Script: func(r *core.RQS, seed int64) *chaos.Script {
			return chaos.NewScript(seed).
				Rule(chaos.Rule{To: r.Universe(), Effect: chaos.Delay{Dist: chaos.Fixed(12 * time.Millisecond)}}).
				Rule(chaos.Rule{To: r.Universe(), Effect: chaos.Dup{P: 0.5}})
		},
		Events: func(rc *RunContext) {
			time.Sleep(110 * time.Millisecond)
			_ = rc.Restart(1, 120*time.Millisecond)
		},
	},
	{
		Name: "pareto-tail-latency",
		Description: "Every link samples a heavy-tailed Pareto delay (scale " +
			"1ms, α=1.3, capped at 120ms): most envelopes are near-fast, a " +
			"few straggle by two orders of magnitude, constantly reordering " +
			"rounds.",
		Transports: bothTransports,
		Workloads:  allWorkloads,
		Script: func(r *core.RQS, seed int64) *chaos.Script {
			return chaos.NewScript(seed).Rule(chaos.Rule{
				From: everyLink, To: everyLink,
				Effect: chaos.Delay{Dist: chaos.Pareto{
					Scale: time.Millisecond, Alpha: 1.3, Max: 120 * time.Millisecond,
				}},
			})
		},
	},
	{
		Name: "reorder-dup-storm",
		Description: "Every envelope is delayed uniformly in [0, 20ms] and " +
			"duplicated with probability 0.3: heavy reordering plus " +
			"at-least-once delivery on every link at once.",
		Transports: bothTransports,
		Workloads:  allWorkloads,
		Script: func(r *core.RQS, seed int64) *chaos.Script {
			return chaos.NewScript(seed).
				Rule(chaos.Rule{Effect: chaos.Delay{Dist: chaos.Uniform{Hi: 20 * time.Millisecond}}}).
				Rule(chaos.Rule{Effect: chaos.Dup{P: 0.3}})
		},
	},
	{
		Name: "drop-storm-confined",
		Description: "Both directions of the links of servers n-2 and n-1 " +
			"drop each envelope with probability 0.6 for the whole run — " +
			"lossy links confined to t=2 servers, so the unaffected servers " +
			"still form quorums.",
		Transports: bothTransports,
		Workloads:  storageWorkloads,
		Script: func(r *core.RQS, seed int64) *chaos.Script {
			lossy := core.NewSet(r.N()-2, r.N()-1)
			return chaos.NewScript(seed).
				Rule(chaos.Rule{To: lossy, Effect: chaos.Drop{P: 0.6}}).
				Rule(chaos.Rule{From: lossy, Effect: chaos.Drop{P: 0.6}})
		},
	},
	{
		Name: "wire-blackhole",
		Description: "A conn-level proxy fronts server 0's wire: 80ms in, it " +
			"silently blackholes all bytes for 250ms (the conns stay open, " +
			"so no socket error is observable), then heals and cuts the " +
			"stale conns, forcing the session layer to redial and " +
			"retransmit. TCP only — the fault lives below the session " +
			"layer.",
		Transports: []Transport{TCPTransport},
		Workloads:  storageWorkloads,
		WireProxy:  true,
		Script: func(r *core.RQS, seed int64) *chaos.Script {
			// A fixed 10ms delay into servers stretches the run so the
			// blackhole window overlaps live client traffic.
			return chaos.NewScript(seed).Rule(chaos.Rule{
				To:     r.Universe(),
				Effect: chaos.Delay{Dist: chaos.Fixed(10 * time.Millisecond)},
			})
		},
		Events: func(rc *RunContext) {
			time.Sleep(40 * time.Millisecond)
			rc.Proxy.Blackhole(true)
			time.Sleep(250 * time.Millisecond)
			rc.Proxy.Blackhole(false)
			rc.Proxy.CutConns()
		},
	},
}

// Scenarios returns the registry in canonical order.
func Scenarios() []*Scenario {
	out := make([]*Scenario, len(scenarios))
	copy(out, scenarios)
	return out
}

// FindScenario looks a scenario up by name.
func FindScenario(name string) (*Scenario, bool) {
	for _, sc := range scenarios {
		if sc.Name == name {
			return sc, true
		}
	}
	return nil, false
}
