package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

// kvGroups is the number of shard groups of every KV deployment.
const kvGroups = 2

// kvDeployment is a running KV deployment as the workloads see it,
// whether sim built it (end-to-end passes) or buildTraced did.
type kvDeployment struct {
	clients []*storage.KVClient
	traces  []*clientTrace // per client; nil on an untraced deployment
	tracer  *tracer        // nil on an untraced deployment
	// hosts and servers are read at call time: a restart replaces them.
	hosts   func() []*transport.TCPHost
	servers func() []*storage.Server
	// restart rebuilds every server strictly from disk (sim only).
	restart func() error
	stop    func()
}

// kvCounters are the public counter surfaces summed over a deployment.
type kvCounters struct {
	tcp         transport.TCPStats
	wal         wal.Stats
	authRejects uint64
	rejectedAck uint64
}

func (d *kvDeployment) counters() kvCounters {
	var c kvCounters
	for _, h := range d.hosts() {
		s := h.Stats()
		c.tcp.Sent += s.Sent
		c.tcp.AcksSent += s.AcksSent
		c.tcp.AcksPiggybacked += s.AcksPiggybacked
		c.tcp.CreditStallNS += s.CreditStallNS
		c.tcp.InboxStallNS += s.InboxStallNS
		c.tcp.Resent += s.Resent
		c.tcp.Drops += s.Drops
	}
	for _, s := range d.servers() {
		c.authRejects += s.AuthRejects()
		if ws, ok := s.WALStats(); ok {
			c.wal.Appends += ws.Appends
			c.wal.Fsyncs += ws.Fsyncs
			c.wal.FsyncNanos += ws.FsyncNanos
		}
	}
	// Client counters are plain fields: read them between windows only.
	for _, kv := range d.clients {
		c.rejectedAck += kv.AuthStats().RejectedAcks
	}
	return c
}

// kvAuth provisions HMAC key material for a KV deployment's identity
// space (servers 0..n-1, clients above).
func kvAuth(rqs *core.RQS, clients int) *auth.Deployment {
	return sim.AuthDeployment(auth.ModeHMAC, rqs, clients)
}

// buildSim starts the deployment through sim's public constructors —
// what every end-to-end number is measured on.
func buildSim(rqs *core.RQS, spec *kvSpec, clients int, dataDir string) (*kvDeployment, error) {
	opts := sim.KVOptions{Groups: kvGroups, Clients: clients, DataDir: dataDir}
	if spec.auth {
		opts.Auth = kvAuth(rqs, clients)
	}
	d := &kvDeployment{}
	if spec.tcp {
		cl, err := sim.NewTCPKVCluster(rqs, opts)
		if err != nil {
			return nil, err
		}
		for i := 0; i < clients; i++ {
			d.clients = append(d.clients, cl.Client())
		}
		d.hosts = func() []*transport.TCPHost {
			var hs []*transport.TCPHost
			for _, g := range cl.Groups {
				hs = append(append(hs, g.ClientHost), g.ServerHosts...)
			}
			return hs
		}
		d.servers = func() []*storage.Server {
			var ss []*storage.Server
			for _, g := range cl.Groups {
				ss = append(ss, g.Servers...)
			}
			return ss
		}
		d.restart = func() error {
			for g := range cl.Groups {
				for id := 0; id < rqs.N(); id++ {
					if err := cl.RestartServer(g, id, 0); err != nil {
						return err
					}
				}
			}
			return nil
		}
		d.stop = cl.Stop
		return d, nil
	}
	cl := sim.NewKVCluster(rqs, opts)
	for i := 0; i < clients; i++ {
		d.clients = append(d.clients, cl.Client())
	}
	d.hosts = func() []*transport.TCPHost { return nil }
	d.servers = func() []*storage.Server {
		var ss []*storage.Server
		for _, g := range cl.Groups {
			ss = append(ss, g.Servers...)
		}
		return ss
	}
	d.stop = cl.Stop
	return d, nil
}

// tracedGroup is one shard group built by hand over tracePorts.
type tracedGroup struct {
	net     *transport.Network
	hosts   []*transport.TCPHost // client host first
	servers []*storage.Server
	ports   []transport.Port // traced client ports, by client index
}

func (g *tracedGroup) stop() {
	if g.net != nil {
		g.net.Close()
	}
	for _, h := range g.hosts {
		h.Close()
	}
	for _, s := range g.servers {
		s.Stop()
	}
}

// buildTracedGroup mirrors sim.NewStorageCluster / NewTCPStorageCluster
// from the same public constructors, with every server and every
// client port wrapped by tr. sim builds its ports internally, which is
// why the traced pass cannot reuse it.
func buildTracedGroup(rqs *core.RQS, tr *tracer, traces []*clientTrace, tcp bool, dataDir string, dep *auth.Deployment) (*tracedGroup, error) {
	n := rqs.N()
	g := &tracedGroup{}
	fail := func(err error) (*tracedGroup, error) {
		g.stop()
		return nil, err
	}
	serverPorts := make([]transport.Port, n)
	clientPorts := make([]transport.Port, len(traces))
	if tcp {
		sim.RegisterTCPStorageMessages()
		// Bind every listener before any node attaches, so the shared
		// address map is complete before a goroutine can read it.
		addrs := make(map[core.ProcessID]string, n+len(traces))
		netDir := func(id int) string {
			if dataDir == "" {
				return ""
			}
			return filepath.Join(dataDir, fmt.Sprintf("s%d", id), "net")
		}
		clientHost, err := transport.NewTCPHost("127.0.0.1:0", addrs)
		if err != nil {
			return fail(err)
		}
		g.hosts = append(g.hosts, clientHost)
		for id := 0; id < n; id++ {
			h, err := transport.NewTCPHostDir("127.0.0.1:0", addrs, netDir(id))
			if err != nil {
				return fail(err)
			}
			g.hosts = append(g.hosts, h)
			addrs[id] = h.Addr()
		}
		for i := range traces {
			addrs[n+i] = clientHost.Addr()
		}
		for id := 0; id < n; id++ {
			node, err := g.hosts[1+id].Node(id)
			if err != nil {
				return fail(err)
			}
			serverPorts[id] = node
		}
		for i := range traces {
			node, err := clientHost.Node(n + i)
			if err != nil {
				return fail(err)
			}
			clientPorts[i] = node
		}
	} else {
		g.net = transport.NewNetwork(n + len(traces))
		for id := 0; id < n; id++ {
			serverPorts[id] = g.net.Port(id)
		}
		for i := range traces {
			clientPorts[i] = g.net.Port(n + i)
		}
	}
	for id := 0; id < n; id++ {
		port := tr.serverPort(serverPorts[id])
		var srv *storage.Server
		if dataDir == "" {
			srv = storage.NewServer(port, storage.Hooks{})
		} else {
			var err error
			dir := filepath.Join(dataDir, fmt.Sprintf("s%d", id), "wal")
			if srv, err = storage.NewDurableServer(port, storage.Hooks{}, dir, storage.DurableOptions{}); err != nil {
				return fail(err)
			}
		}
		if dep != nil {
			srv.SetAuth(dep.Signer(id), dep.Verifier())
		}
		srv.Start()
		g.servers = append(g.servers, srv)
	}
	for i, ct := range traces {
		g.ports = append(g.ports, tr.clientPort(clientPorts[i], ct))
	}
	return g, nil
}

// buildTraced is buildSim over tracePorts.
func buildTraced(rqs *core.RQS, clk clock, spec *kvSpec, clients int, dataDir string) (*kvDeployment, error) {
	tr := newTracer(clk, rqs, rqs.N()+clients, !spec.tcp)
	d := &kvDeployment{tracer: tr}
	for i := 0; i < clients; i++ {
		d.traces = append(d.traces, &clientTrace{t: tr, id: core.ProcessID(rqs.N() + i)})
	}
	var dep *auth.Deployment
	if spec.auth {
		dep = kvAuth(rqs, clients)
	}
	var groups []*tracedGroup
	d.stop = func() {
		tr.stop()
		for _, g := range groups {
			g.stop()
		}
	}
	for gi := 0; gi < kvGroups; gi++ {
		dir := ""
		if dataDir != "" {
			dir = filepath.Join(dataDir, fmt.Sprintf("g%d", gi))
		}
		g, err := buildTracedGroup(rqs, tr, d.traces, spec.tcp, dir, dep)
		if err != nil {
			d.stop()
			return nil, err
		}
		groups = append(groups, g)
	}
	for i := 0; i < clients; i++ {
		kvg := make([]storage.KVGroup, kvGroups)
		for gi, g := range groups {
			kvg[gi] = storage.KVGroup{System: rqs, Port: g.ports[i]}
			if dep != nil {
				kvg[gi].Signer, kvg[gi].Verifier = dep.Signer(g.ports[i].ID()), dep.Verifier()
			}
		}
		d.clients = append(d.clients, storage.NewKVClient(kvg))
	}
	d.hosts = func() []*transport.TCPHost {
		var hs []*transport.TCPHost
		for _, g := range groups {
			hs = append(hs, g.hosts...)
		}
		return hs
	}
	d.servers = func() []*storage.Server {
		var ss []*storage.Server
		for _, g := range groups {
			ss = append(ss, g.servers...)
		}
		return ss
	}
	return d, nil
}

// swmrTimeout is the 2Δ round timer of swmr-mem-degraded.
const swmrTimeout = 2 * time.Millisecond

// swmrCrashed is the server down for the whole of swmr-mem-degraded:
// with it gone the class-1 quorum {1,3,4,5} can never answer.
const swmrCrashed = core.ProcessID(5)

// swmrDeployment is the SWMR register of swmr-mem-degraded: one
// writer, one reader, server 5 crashed.
type swmrDeployment struct {
	writer *storage.Writer
	reader *storage.Reader
	stop   func()
}

func buildSWMRSim(rqs *core.RQS) *swmrDeployment {
	cl := sim.NewStorageCluster(rqs, sim.StorageOptions{Clients: 2, Timeout: swmrTimeout})
	cl.CrashServers(core.NewSet(swmrCrashed))
	return &swmrDeployment{writer: cl.Writer(), reader: cl.Reader(), stop: cl.Stop}
}

// buildSWMRTraced is buildSWMRSim over tracePorts of tr; traces are
// the writer's and the reader's op logs. Successive deployments may
// share one tracer: a deployment's forwarders end when it is stopped.
func buildSWMRTraced(rqs *core.RQS, tr *tracer, traces []*clientTrace) (*swmrDeployment, error) {
	g, err := buildTracedGroup(rqs, tr, traces, false, "", nil)
	if err != nil {
		return nil, err
	}
	g.net.Crash(swmrCrashed)
	return &swmrDeployment{
		writer: storage.NewWriter(rqs, g.ports[0], swmrTimeout),
		reader: storage.NewReader(rqs, g.ports[1], swmrTimeout),
		stop:   g.stop,
	}, nil
}
