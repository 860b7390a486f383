// Package sim assembles protocol clusters: storage servers plus client
// ports over either transport — the in-memory network or real loopback
// TCP — and the proposer/acceptor/learner topologies of the consensus
// protocol over the in-memory network. It is the shared harness behind
// the tests, the benchmarks and the examples.
package sim

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/transport"
)

// tcpTimeout is the default 2Δ timer over loopback TCP.
const tcpTimeout = 5 * time.Millisecond

// StorageCluster is a running storage deployment: n servers on process
// IDs 0..n-1 and a pool of client ports above them, over either
// transport. The protocol code is the same on both; only the ports
// differ.
//
// Over TCP the deployment has the shape a production colocation has:
// every server is its own OS process (one TCPHost each), and ALL client
// nodes share one client process (one TCPHost hosting C logical nodes),
// so the session layer keeps the socket count per process pair O(1).
type StorageCluster struct {
	RQS     *core.RQS
	Servers []*storage.Server
	Timeout time.Duration

	// Net is the in-memory network (nil over TCP).
	Net *transport.Network
	// ServerHosts and ClientHost are the TCP hosts (nil in memory).
	ServerHosts []*transport.TCPHost
	ClientHost  *transport.TCPHost

	// dataDir, when non-empty, makes every server durable (see
	// StorageOptions.DataDir); RestartServer then recovers from disk
	// instead of bringing the server back amnesiac.
	dataDir   string
	walNoSync bool
	// auth, when non-nil, runs the deployment authenticated: servers
	// verify writer signatures and countersign read acks, clients sign
	// their tags and screen acks. Preserved across RestartServer (key
	// material survives a process crash — it lives in the deployment's
	// provisioning, not the process).
	auth *auth.Deployment
	// addrs is the TCP address map every host resolves peers through;
	// RestartServer brings a fresh host up at the old address.
	addrs map[core.ProcessID]string

	mu         sync.Mutex // tests spawn clients from concurrent goroutines
	clients    []transport.Port
	nextClient int
	inj        transport.Injector // re-installed on restarted TCP hosts
}

// StorageOptions configures NewStorageCluster / NewTCPStorageCluster.
type StorageOptions struct {
	// Clients is the number of client slots to reserve (default 4).
	Clients int
	// Timeout is the protocol's 2Δ timer (default storage.DefaultTimeout
	// in memory, 5ms over loopback TCP).
	Timeout time.Duration
	// Byzantine optionally makes individual servers Byzantine: each
	// wraps its server's port (internal/adversary). A restarted server
	// comes back honest.
	Byzantine map[core.ProcessID]adversary.Wrap
	// DataDir, when non-empty, runs every server over a write-ahead log
	// in DataDir/s<id>/wal: acks only follow the fsync, and
	// RestartServer replays the log instead of losing the state. Empty
	// = volatile servers that restart amnesiac.
	DataDir string
	// WALNoSync skips the WAL's fdatasync (benchmark-only; meaningless
	// without DataDir).
	WALNoSync bool
	// Auth, when non-nil, installs the deployment's key material on
	// every server and client (see AuthDeployment for generating one
	// sized to this cluster).
	Auth *auth.Deployment
}

// AuthDeployment generates key material for a cluster over the given
// quorum system with `clients` client slots: identities 0..n-1 are the
// servers, n..n+clients-1 the clients. Provisioning goes through the
// identity-list constructor because client IDs can pass 63, beyond
// what a core.Set holds (a C=64 load bench reaches port 71). It panics
// on key-generation failure — harness callers have no recovery path.
func AuthDeployment(mode auth.Mode, rqs *core.RQS, clients int) *auth.Deployment {
	ids := rqs.Universe().Members()
	for i := 0; i < clients; i++ {
		ids = append(ids, core.ProcessID(rqs.N()+i))
	}
	return auth.MustDeploymentIDs(mode, ids)
}

// mustSigner is the harness's misprovision guard. An authenticated
// writer holding no signer sends unsigned tags that verifying servers
// silently drop — the op hangs forever instead of failing. Catch the
// undersized deployment at construction, loudly.
func mustSigner(d *auth.Deployment, id core.ProcessID) auth.Signer {
	s := d.Signer(id)
	if s == nil {
		panic(fmt.Sprintf("sim: no signer provisioned for identity %d (deployment smaller than the cluster?)", id))
	}
	return s
}

var registerTCPStorageOnce sync.Once

// RegisterTCPStorageMessages registers the storage payload types with
// the framed TCP codec (idempotent).
func RegisterTCPStorageMessages() {
	registerTCPStorageOnce.Do(func() {
		transport.Register(storage.WriteReq{})
		transport.Register(storage.WriteAck{})
		transport.Register(storage.ReadReq{})
		transport.Register(storage.ReadAck{})
		transport.Register(storage.MWReadReq{})
		transport.Register(storage.MWReadAck{})
		transport.Register(storage.MWWriteReq{})
		transport.Register(storage.MWWriteAck{})
		transport.Register(storage.KVCASReq{})
		transport.Register(storage.KVCASAck{})
	})
}

// NewStorageCluster starts servers for every process in the RQS
// universe over the in-memory transport. It panics if a durable
// server's data directory cannot be opened — the harness callers
// (tests, benchmarks) have no recovery path for a broken temp dir
// anyway.
func NewStorageCluster(rqs *core.RQS, opts StorageOptions) *StorageCluster {
	c, err := newStorageCluster(rqs, opts, false)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// NewTCPStorageCluster starts the RQS's servers on one loopback host
// each and a single shared client host carrying opts.Clients logical
// client nodes.
func NewTCPStorageCluster(rqs *core.RQS, opts StorageOptions) (*StorageCluster, error) {
	return newStorageCluster(rqs, opts, true)
}

func newStorageCluster(rqs *core.RQS, opts StorageOptions, tcp bool) (*StorageCluster, error) {
	if opts.Clients <= 0 {
		opts.Clients = 4
	}
	if opts.Timeout <= 0 {
		opts.Timeout = storage.DefaultTimeout
		if tcp {
			opts.Timeout = tcpTimeout
		}
	}
	c := &StorageCluster{
		RQS:       rqs,
		Timeout:   opts.Timeout,
		dataDir:   opts.DataDir,
		walNoSync: opts.WALNoSync,
		auth:      opts.Auth,
	}
	ports, err := c.buildPorts(rqs.N()+opts.Clients, tcp)
	if err != nil {
		c.Stop()
		return nil, err
	}
	c.clients = ports[rqs.N():]
	for id := 0; id < rqs.N(); id++ {
		srv, err := c.newServer(byzantine(opts.Byzantine, id, ports[id]), id)
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("sim: server %d: %w", id, err)
		}
		srv.Start()
		c.Servers = append(c.Servers, srv)
	}
	return c, nil
}

// buildPorts creates the transport and one port per process: servers
// 0..n-1, then the client slots. Over TCP every listener is bound
// before any node attaches, so the shared address map is COMPLETE
// before any protocol goroutine starts: servers resolve client
// addresses lazily when they first reply, and starting them only after
// the map is fully populated gives those reads a happens-before edge
// (the Start goroutine spawn) instead of racing the setup writes.
func (c *StorageCluster) buildPorts(total int, tcp bool) ([]transport.Port, error) {
	ports := make([]transport.Port, total)
	if !tcp {
		c.Net = transport.NewNetwork(total)
		for id := range ports {
			ports[id] = c.Net.Port(id)
		}
		return ports, nil
	}
	RegisterTCPStorageMessages()
	n := c.RQS.N()
	c.addrs = make(map[core.ProcessID]string, total)
	for id := 0; id < n; id++ {
		host, err := transport.NewTCPHost("127.0.0.1:0", c.addrs)
		if err != nil {
			return nil, err
		}
		c.ServerHosts = append(c.ServerHosts, host)
		c.addrs[id] = host.Addr()
	}
	host, err := transport.NewTCPHost("127.0.0.1:0", c.addrs)
	if err != nil {
		return nil, err
	}
	c.ClientHost = host
	for id := n; id < total; id++ {
		c.addrs[id] = host.Addr()
	}
	for id := range ports {
		h := c.ClientHost
		if id < n {
			h = c.ServerHosts[id]
		}
		if ports[id], err = h.Node(id); err != nil {
			return nil, err
		}
	}
	return ports, nil
}

// newServer builds server id over port in the cluster's durability
// mode.
func (c *StorageCluster) newServer(port transport.Port, id core.ProcessID) (*storage.Server, error) {
	var srv *storage.Server
	var err error
	if c.dataDir == "" {
		srv = storage.NewServer(port, storage.Hooks{})
	} else {
		dir := filepath.Join(c.dataDir, fmt.Sprintf("s%d", id), "wal")
		srv, err = storage.NewDurableServer(port, storage.Hooks{}, dir,
			storage.DurableOptions{NoSync: c.walNoSync})
		if err != nil {
			return nil, err
		}
	}
	if c.auth != nil {
		srv.SetAuth(c.auth.Signer(id), c.auth.Verifier())
	}
	return srv, nil
}

// byzantine returns p behind process id's wrapper in wraps, if any.
func byzantine(wraps map[core.ProcessID]adversary.Wrap, id core.ProcessID, p transport.Port) transport.Port {
	if w := wraps[id]; w != nil {
		return w(p)
	}
	return p
}

// Writer returns a writer on a fresh client port.
func (c *StorageCluster) Writer() *storage.Writer {
	return storage.NewWriter(c.RQS, c.clientPort(), c.Timeout)
}

// Reader returns a reader on a fresh client port.
func (c *StorageCluster) Reader() *storage.Reader {
	return storage.NewReader(c.RQS, c.clientPort(), c.Timeout)
}

// KVClient returns a single-group KV client on a fresh client port; its
// writer ID is the port's process ID, so every client from one cluster
// tags its writes distinctly. On an authenticated cluster it signs with
// the key provisioned for its port's identity.
func (c *StorageCluster) KVClient() *storage.KVClient {
	return storage.NewKVClient([]storage.KVGroup{c.kvGroup()})
}

// kvGroup is this cluster as one KV shard group, seen through a fresh
// client port.
func (c *StorageCluster) kvGroup() storage.KVGroup {
	g := storage.KVGroup{System: c.RQS, Port: c.clientPort()}
	if c.auth != nil {
		g.Signer = mustSigner(c.auth, g.Port.ID())
		g.Verifier = c.auth.Verifier()
	}
	return g
}

// ReaderOpts returns a reader with explicit options (regular semantics,
// QC'2 ablation) on a fresh client port.
func (c *StorageCluster) ReaderOpts(opts storage.ReaderOptions) *storage.Reader {
	if opts.Timeout <= 0 {
		opts.Timeout = c.Timeout
	}
	return storage.NewReaderOpts(c.RQS, c.clientPort(), opts)
}

// clientPort hands out the next client slot, in process-ID order.
func (c *StorageCluster) clientPort() transport.Port {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nextClient >= len(c.clients) {
		panic("sim: client slots exhausted; raise StorageOptions.Clients")
	}
	c.nextClient++
	return c.clients[c.nextClient-1]
}

// CrashServers crashes every server in the set at the network boundary
// (in-memory transport only; over TCP use RestartServer).
func (c *StorageCluster) CrashServers(set core.Set) {
	for _, id := range set.Members() {
		c.Net.Crash(id)
	}
}

// SetInjector installs a fault injector on the deployment (nil removes
// it): on the memory network, or on every TCP host — requests are
// decided at the client host, replies at the server hosts, so both
// directions of every link go through it.
func (c *StorageCluster) SetInjector(inj transport.Injector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inj = inj
	if c.Net != nil {
		c.Net.SetInjector(inj)
		return
	}
	c.ClientHost.SetInjector(inj)
	for _, h := range c.ServerHosts {
		h.SetInjector(inj)
	}
}

// RestartServer models kill -9 + restart of server id's process: it
// disappears (in memory at the network boundary, over TCP its host
// closes and every conn dies abruptly) and its loop stops, it stays
// down for the given duration, then a fresh server resumes at the same
// process ID — strictly from on-disk state. A durable cluster's fresh
// server replays its write-ahead log; a volatile cluster's comes back
// amnesiac, exactly like a real process whose memory died with it. In
// memory, messages sent while it was down are dropped; over TCP, client
// sessions redial with jittered backoff and replay their unacked frames
// to the new incarnation — including frames the old one delivered but
// never acked, which the fresh server applies again (idempotently).
func (c *StorageCluster) RestartServer(id core.ProcessID, down time.Duration) error {
	if c.Net != nil {
		c.Net.Crash(id)
	} else {
		c.ServerHosts[id].Close()
	}
	c.Servers[id].Stop()
	if down > 0 {
		time.Sleep(down)
	}
	port, err := c.reopenServerPort(id)
	if err != nil {
		return fmt.Errorf("sim: restart server %d: %w", id, err)
	}
	fresh, err := c.newServer(port, id)
	if err != nil {
		return fmt.Errorf("sim: recover server %d: %w", id, err)
	}
	c.Servers[id] = fresh
	fresh.Start()
	if c.Net != nil {
		c.Net.Restart(id)
	}
	return nil
}

// reopenServerPort returns the port a restarted server id runs on: the
// same memory port, or a node on a fresh TCP host bound at the old
// address and carrying the installed injector.
func (c *StorageCluster) reopenServerPort(id core.ProcessID) (transport.Port, error) {
	if c.Net != nil {
		return c.Net.Port(id), nil
	}
	host, err := transport.NewTCPHost(c.addrs[id], c.addrs)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.inj != nil {
		host.SetInjector(c.inj)
	}
	c.ServerHosts[id] = host
	c.mu.Unlock()
	return host.Node(id)
}

// Stop shuts the cluster down.
func (c *StorageCluster) Stop() {
	if c.Net != nil {
		c.Net.Close()
	}
	if c.ClientHost != nil {
		c.ClientHost.Close()
	}
	for _, h := range c.ServerHosts {
		h.Close()
	}
	for _, s := range c.Servers {
		s.Stop()
	}
}
