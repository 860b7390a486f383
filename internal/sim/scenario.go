package sim

import (
	"context"
	"fmt"
	stdnet "net"
	"os"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/auth"
	"repro/internal/chaos"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/histcheck"
	"repro/internal/storage"
)

// This file is the scenario runner of the chaos layer: it deploys a
// protocol workload on a transport, installs a scripted fault campaign
// (internal/chaos) on it, drives clients with per-operation deadlines,
// and property-checks every completed run with histcheck. Scenario
// definitions live in scenarios.go; the rqs-chaos command iterates the
// full matrix.

// Transport names a transport a scenario can run over.
type Transport string

// The transports of the matrix.
const (
	MemoryTransport Transport = "memory"
	TCPTransport    Transport = "tcp"
)

// Workload names a protocol workload a scenario can drive.
type Workload string

// The workloads of the matrix.
const (
	SWMRWorkload Workload = "swmr"
	MWMRWorkload Workload = "mwmr"
	SMRWorkload  Workload = "smr"
	KVWorkload   Workload = "kv"
)

// DefaultOpTimeout is the per-operation liveness deadline: every fault
// window of every scenario heals (or leaves a live quorum) well inside
// it, so an operation exceeding it is a liveness violation, not slack.
const DefaultOpTimeout = 20 * time.Second

// RunContext is what a scenario's Events hook sees: the run's identity
// plus handles on the deployment's fault controls.
type RunContext struct {
	Transport Transport
	Workload  Workload
	Seed      int64
	RQS       *core.RQS

	// Restart kill-9s server id, keeps it down for the given duration,
	// and restarts it strictly from on-disk state: a Durable scenario's
	// server recovers from its WAL, a volatile one restarts amnesiac.
	// Nil for workloads without restartable servers (SMR).
	Restart func(id core.ProcessID, down time.Duration) error
	// Proxy fronts (shard group 0's) server 0's wire on TCP runs of
	// scenarios that set WireProxy; nil otherwise.
	Proxy *chaos.Proxy
}

// Scenario is one named fault campaign: which systems and deployments
// it applies to, the scripted faults it injects, and whether the run is
// a negative control expected to fail the atomicity check.
type Scenario struct {
	Name        string
	Description string

	// Transports and Workloads bound applicability; Applies refines the
	// product (SMR deployments exist on the memory transport only).
	Transports []Transport
	Workloads  []Workload

	// System builds the refined quorum system (nil: FiveServerRQS).
	System func() *core.RQS
	// Byzantine wraps the ports of selected servers, or of acceptor
	// replicas on SMR runs (nil: all honest). On the kv workload the
	// same map is installed in every shard group.
	Byzantine map[core.ProcessID]adversary.Wrap
	// Script builds the seeded fault script (nil: no injector).
	Script func(r *core.RQS, seed int64) *chaos.Script
	// Events runs concurrently with the workload for faults that are
	// actions rather than link rules: server restarts, wire blackholes.
	Events func(rc *RunContext)
	// WireProxy routes the client host's dials to server 0 through a
	// chaos.Proxy (TCP only), exposed to Events as rc.Proxy. On the kv
	// workload the proxy fronts shard group 0's server 0.
	WireProxy bool
	// Durable deploys the servers over write-ahead logs in a run-scoped
	// temp directory: rc.Restart recovers the killed server's state
	// from disk instead of restarting it amnesiac. Required for any
	// scenario whose fault set includes a server restart — a volatile
	// server that acked writes and then forgot them is outside the
	// crash-recovery model the protocols assume.
	Durable bool
	// Auth runs the storage workloads authenticated: the runner
	// provisions an HMAC key deployment for the run, servers verify
	// writer signatures and countersign read acks, and clients sign
	// their tags and discard unverifiable acks. This is what turns a
	// forging server from an atomicity hazard into tolerated noise —
	// provided a verified class-3 quorum of honest servers remains.
	// Storage workloads only; SMR authenticates through its own keys.
	Auth bool
	// ExpectViolation marks a negative control: the run passes only if
	// histcheck REJECTS the history (e.g. a Byzantine server on a
	// quorum system below the class-3 intersection requirement).
	ExpectViolation bool
	// OpTimeout overrides DefaultOpTimeout.
	OpTimeout time.Duration
}

// Applies reports whether the scenario runs on this transport/workload
// cell of the matrix.
func (sc *Scenario) Applies(tr Transport, wl Workload) bool {
	if wl == SMRWorkload && tr != MemoryTransport {
		return false // SMR deployments are memory-only today
	}
	return containsTransport(sc.Transports, tr) && containsWorkload(sc.Workloads, wl)
}

func containsTransport(ts []Transport, t Transport) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}

func containsWorkload(ws []Workload, w Workload) bool {
	for _, x := range ws {
		if x == w {
			return true
		}
	}
	return false
}

// RunResult is one cell of the scenario matrix, histcheck verdict
// included.
type RunResult struct {
	Scenario        string
	Transport       Transport
	Workload        Workload
	Seed            int64
	ExpectViolation bool

	// Ops is the recorded history (the artifact dumped on failure).
	Ops []histcheck.Op
	// Violation is histcheck's verdict on Ops (nil = atomic).
	Violation *histcheck.Violation
	// Err reports a liveness or deployment failure: an operation that
	// missed its deadline, a decided value mismatch, a cluster that
	// would not start.
	Err error

	Elapsed    time.Duration
	Stats      chaos.Stats       // script decision counters (zero if no script)
	ProxyStats *chaos.ProxyStats // wire-proxy counters (WireProxy runs only)
	// Auth counts the acks the workload's clients discarded as
	// unverifiable (authenticated runs only; a Byzantine scenario that
	// leaves this zero did not actually exercise the defense).
	Auth storage.AuthStats
}

// Passed reports the run's verdict: no liveness error, and the
// histcheck outcome the scenario expects.
func (r *RunResult) Passed() bool {
	if r.Err != nil {
		return false
	}
	if r.ExpectViolation {
		return r.Violation != nil
	}
	return r.Violation == nil
}

// Failure renders why the run failed ("" if it passed).
func (r *RunResult) Failure() string {
	switch {
	case r.Passed():
		return ""
	case r.Err != nil:
		return r.Err.Error()
	case r.ExpectViolation:
		return "negative control passed histcheck (expected an atomicity violation)"
	default:
		return r.Violation.Error()
	}
}

// RunScenario executes one matrix cell: deploy, inject, drive, check.
// Faults replay deterministically from the seed; wall-clock timing of
// concurrent clients does not (the histcheck conditions hold for every
// interleaving, which is what the checker verifies).
func RunScenario(sc *Scenario, tr Transport, wl Workload, seed int64) *RunResult {
	res := &RunResult{
		Scenario:        sc.Name,
		Transport:       tr,
		Workload:        wl,
		Seed:            seed,
		ExpectViolation: sc.ExpectViolation,
	}
	if !sc.Applies(tr, wl) {
		res.Err = fmt.Errorf("scenario %q does not apply to %s/%s", sc.Name, tr, wl)
		return res
	}
	system := core.FiveServerRQS()
	if sc.System != nil {
		system = sc.System()
	}
	opTimeout := sc.OpTimeout
	if opTimeout <= 0 {
		opTimeout = DefaultOpTimeout
	}
	// Authenticated runs use the HMAC mode: the scenario matrix cares
	// about the protocol's tolerance behavior, not signature scheme
	// latency, and both modes share every verification code path. All
	// storage workloads use at most kvScenarioClients client slots per
	// network, so one deployment sized for them covers the matrix.
	var dep *auth.Deployment
	if sc.Auth {
		dep = AuthDeployment(auth.ModeHMAC, system, kvScenarioClients)
	}
	var script *chaos.Script
	if sc.Script != nil {
		script = sc.Script(system, seed)
	}
	var dataDir string
	if sc.Durable {
		dir, err := os.MkdirTemp("", "rqs-chaos-")
		if err != nil {
			res.Err = fmt.Errorf("durable data dir: %w", err)
			return res
		}
		defer os.RemoveAll(dir)
		dataDir = dir
	}

	rc := &RunContext{Transport: tr, Workload: wl, Seed: seed, RQS: system}
	rec := histcheck.NewRecorder()
	start := time.Now()

	var proxy *chaos.Proxy
	var runWorkload func() error
	if wl == SMRWorkload {
		c, err := NewSMRCluster(system, SMROptions{Byzantine: sc.Byzantine})
		if err != nil {
			res.Err = fmt.Errorf("smr cluster: %w", err)
			return res
		}
		defer c.Stop()
		if script != nil {
			c.SetInjector(script)
			defer c.SetInjector(nil)
		}
		runWorkload = func() error { return runSMRWorkload(c, rec, opTimeout) }
	} else {
		// Every storage cell is a KV deployment: two shard groups for the
		// keyed service, one for the single-register workloads (driven
		// through Groups[0]). The fault script is installed on every
		// group (the chaos scripts are safe for concurrent multi-network
		// installs).
		groups := 1
		if wl == KVWorkload {
			groups = 2
		}
		kc, err := newKVCluster(system, KVOptions{Groups: groups, Clients: kvScenarioClients,
			DataDir: dataDir, Byzantine: sc.Byzantine, Auth: dep}, tr == TCPTransport)
		if err != nil {
			res.Err = fmt.Errorf("%s cluster: %w", tr, err)
			return res
		}
		defer kc.Stop()
		rc.Restart = func(id core.ProcessID, down time.Duration) error {
			return kc.RestartServer(0, id, down)
		}
		if sc.WireProxy {
			// The proxy fronts group 0's server 0: on the kv workload half
			// of the keyspace rides through the blackhole while the other
			// shard group stays clean — exactly the partial-outage shape a
			// keyed service must mask.
			g0 := kc.Groups[0]
			target := g0.ServerHosts[0].Addr()
			proxy, err = chaos.NewProxy(target)
			if err != nil {
				res.Err = fmt.Errorf("wire proxy: %w", err)
				return res
			}
			defer proxy.Close()
			proxyAddr := proxy.Addr()
			g0.ClientHost.SetDialer(func(addr string, timeout time.Duration) (stdnet.Conn, error) {
				if addr == target {
					addr = proxyAddr
				}
				return stdnet.DialTimeout("tcp", addr, timeout)
			})
			rc.Proxy = proxy
		}
		if script != nil {
			kc.SetInjector(script)
			defer kc.SetInjector(nil)
		}
		switch wl {
		case SWMRWorkload:
			runWorkload = func() error { return runSWMRWorkload(kc.Groups[0], rec, opTimeout) }
		case MWMRWorkload:
			runWorkload = func() error { return runMWMRWorkload(kc.Groups[0], rec, opTimeout, &res.Auth) }
		default:
			runWorkload = func() error { return runKVWorkload(kc, rec, opTimeout, &res.Auth) }
		}
	}

	if script != nil {
		script.Start()
	}
	var eventsDone chan struct{}
	if sc.Events != nil {
		eventsDone = make(chan struct{})
		go func() {
			defer close(eventsDone)
			sc.Events(rc)
		}()
	}
	res.Err = runWorkload()
	if eventsDone != nil {
		<-eventsDone
	}

	res.Ops = rec.Ops()
	res.Violation = histcheck.CheckPerKey(res.Ops)
	res.Elapsed = time.Since(start)
	if script != nil {
		res.Stats = script.Stats()
	}
	if proxy != nil {
		st := proxy.Stats()
		res.ProxyStats = &st
	}
	return res
}

// Workload sizes: small enough that the full matrix stays a smoke test,
// large enough that every scenario's fault windows see traffic.
const (
	swmrWriteOps = 8
	swmrReadOps  = 8
	mwmrOps      = 5
	smrCommands  = 6

	kvScenarioClients = 4 // 2 writers + 1 reader + 1 settle client
	kvOpsPerClient    = 6
)

// kvScenarioKeys spread the kv workload across both shard groups and
// several server-side shards.
var kvScenarioKeys = []string{"alpha", "beta", "gamma", "delta"}

// record runs one client operation under its deadline and records the
// completed op; a deadline miss is returned as the liveness violation.
func record(rec *histcheck.Recorder, kind histcheck.Kind, client string, opTimeout time.Duration, op func(ctx context.Context) (int64, error)) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	inv := time.Now()
	ts, err := op(ctx)
	if err != nil {
		return fmt.Errorf("%s %s: %w", client, kind, err)
	}
	rec.Record(histcheck.Op{Kind: kind, Client: client, TS: ts, Inv: inv, Resp: time.Now()})
	return nil
}

// recordKeyed is record for keyed operations: the completed op carries
// the key so the verdict can group per-key sub-histories.
func recordKeyed(rec *histcheck.Recorder, kind histcheck.Kind, client, key string, opTimeout time.Duration, op func(ctx context.Context) (int64, error)) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	inv := time.Now()
	ts, err := op(ctx)
	if err != nil {
		return fmt.Errorf("%s %s %q: %w", client, kind, key, err)
	}
	rec.Record(histcheck.Op{Kind: kind, Client: client, Key: key, TS: ts, Inv: inv, Resp: time.Now()})
	return nil
}

// runKVWorkload drives the keyed service under faults: two putters and
// one getter cycling through kvScenarioKeys concurrently, then one
// settle read per key strictly after every write completed. Timestamps
// are the packed versions; the verdict checks each key's sub-history.
func runKVWorkload(d *KVCluster, rec *histcheck.Recorder, opTimeout time.Duration, authStats *storage.AuthStats) error {
	const putters = 2
	clients := make([]*storage.KVClient, putters+1, putters+2)
	for i := range clients {
		clients[i] = d.Client()
	}
	// Aggregate after every client goroutine has joined (wg.Wait gives
	// the happens-before edge) — on error paths too, so a partial run
	// still reports how many acks its clients screened out.
	defer func() {
		for _, kv := range clients {
			authStats.Add(kv.AuthStats())
		}
	}()

	errs := make(chan error, len(clients))
	var wg sync.WaitGroup
	for p := 0; p < putters; p++ {
		kv := clients[p]
		wg.Add(1)
		go func(name string, id int) {
			defer wg.Done()
			for i := 0; i < kvOpsPerClient; i++ {
				key := kvScenarioKeys[(id+i)%len(kvScenarioKeys)]
				err := recordKeyed(rec, histcheck.Write, name, key, opTimeout, func(ctx context.Context) (int64, error) {
					ver, err := kv.PutCtx(ctx, key, fmt.Sprintf("%s-v%d", name, i))
					return ver.Packed(), err
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(fmt.Sprintf("kvput%d", p), p)
	}
	getter := clients[putters]
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < kvOpsPerClient; i++ {
			key := kvScenarioKeys[i%len(kvScenarioKeys)]
			err := recordKeyed(rec, histcheck.Read, "kvget", key, opTimeout, func(ctx context.Context) (int64, error) {
				_, ver, err := getter.GetCtx(ctx, key)
				return ver.Packed(), err
			})
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	settle := d.Client()
	clients = append(clients, settle)
	for _, key := range kvScenarioKeys {
		err := recordKeyed(rec, histcheck.Read, "kvsettle", key, opTimeout, func(ctx context.Context) (int64, error) {
			_, ver, err := settle.GetCtx(ctx, key)
			return ver.Packed(), err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// runSWMRWorkload drives the Figure 5-7 protocol: the single writer
// against two concurrent readers.
func runSWMRWorkload(d *StorageCluster, rec *histcheck.Recorder, opTimeout time.Duration) error {
	w := d.Writer()
	readers := []*storage.Reader{d.Reader(), d.Reader()}

	errs := make(chan error, 1+len(readers))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < swmrWriteOps; i++ {
			err := record(rec, histcheck.Write, "writer", opTimeout, func(ctx context.Context) (int64, error) {
				res, err := w.WriteCtx(ctx, fmt.Sprintf("v%d", i))
				return res.TS, err
			})
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	for ri, r := range readers {
		wg.Add(1)
		go func(name string, r *storage.Reader) {
			defer wg.Done()
			for i := 0; i < swmrReadOps; i++ {
				err := record(rec, histcheck.Read, name, opTimeout, func(ctx context.Context) (int64, error) {
					res, err := r.ReadCtx(ctx)
					return res.TS, err
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(fmt.Sprintf("reader%d", ri), r)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// runMWMRWorkload drives the multi-writer register: two writers and two
// readers concurrently, then one settle read per reader strictly after
// every write completed — the deterministic probe the negative-control
// scenario relies on (a stale settle read is provably non-atomic).
// Client creation order is fixed (writers on ports n, n+1; readers on
// n+2, n+3) so scripted rules can address clients by process ID.
func runMWMRWorkload(d *StorageCluster, rec *histcheck.Recorder, opTimeout time.Duration, authStats *storage.AuthStats) error {
	writers := []*storage.KVClient{d.KVClient(), d.KVClient()}
	readers := []*storage.KVClient{d.KVClient(), d.KVClient()}
	defer func() {
		for _, c := range append(writers, readers...) {
			authStats.Add(c.AuthStats())
		}
	}()
	read := func(r *storage.KVClient) func(context.Context) (int64, error) {
		return func(ctx context.Context) (int64, error) {
			_, ver, err := r.GetCtx(ctx, "")
			return ver.Packed(), err
		}
	}

	errs := make(chan error, len(writers)+len(readers))
	var wg sync.WaitGroup
	for wi, w := range writers {
		wg.Add(1)
		go func(name string, w *storage.KVClient) {
			defer wg.Done()
			for i := 0; i < mwmrOps; i++ {
				err := record(rec, histcheck.Write, name, opTimeout, func(ctx context.Context) (int64, error) {
					ver, err := w.PutCtx(ctx, "", fmt.Sprintf("%s-v%d", name, i))
					return ver.Packed(), err
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(fmt.Sprintf("mwwriter%d", wi), w)
	}
	for ri, r := range readers {
		wg.Add(1)
		go func(name string, r *storage.KVClient) {
			defer wg.Done()
			for i := 0; i < mwmrOps; i++ {
				if err := record(rec, histcheck.Read, name, opTimeout, read(r)); err != nil {
					errs <- err
					return
				}
			}
		}(fmt.Sprintf("mwreader%d", ri), r)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	for ri, r := range readers {
		if err := record(rec, histcheck.Read, fmt.Sprintf("settle%d", ri), opTimeout, read(r)); err != nil {
			return err
		}
	}
	return nil
}

// runSMRWorkload decides commands sequentially through the shared log.
// Each committed slot is recorded as a write with timestamp slot+1:
// sequential decisions from one proposer must commit to increasing
// slots, which is exactly histcheck's write real-time condition.
func runSMRWorkload(c *SMRCluster, rec *histcheck.Recorder, opTimeout time.Duration) error {
	for i := 0; i < smrCommands; i++ {
		cmd := consensus.Value(fmt.Sprintf("cmd-%d", i))
		inv := time.Now()
		slot, v, ok := c.Decide(cmd, opTimeout)
		if !ok {
			return fmt.Errorf("smr: slot %d did not commit within %v", slot, opTimeout)
		}
		if v != cmd {
			return fmt.Errorf("smr: slot %d decided %q, proposed %q", slot, v, cmd)
		}
		rec.Record(histcheck.Op{
			Kind: histcheck.Write, Client: "proposer",
			TS: int64(slot) + 1, Inv: inv, Resp: time.Now(),
		})
	}
	return nil
}
