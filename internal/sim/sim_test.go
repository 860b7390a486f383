package sim

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

func TestStorageClusterDefaults(t *testing.T) {
	c := NewStorageCluster(core.Example7RQS(), StorageOptions{})
	defer c.Stop()
	if c.Timeout != storage.DefaultTimeout {
		t.Errorf("timeout = %v", c.Timeout)
	}
	if len(c.Servers) != 6 {
		t.Errorf("servers = %d", len(c.Servers))
	}
	w, r := c.Writer(), c.Reader()
	w.Write("x")
	if res := r.Read(); res.Val != "x" {
		t.Errorf("read = %+v", res)
	}
}

func TestStorageClusterClientExhaustionPanics(t *testing.T) {
	c := NewStorageCluster(core.Example7RQS(), StorageOptions{Clients: 1})
	defer c.Stop()
	c.Writer()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on client-slot exhaustion")
		}
	}()
	c.Reader()
}

func TestStorageClusterReaderOptsInheritsTimeout(t *testing.T) {
	c := NewStorageCluster(core.Example7RQS(), StorageOptions{Timeout: 3 * time.Millisecond})
	defer c.Stop()
	r := c.ReaderOpts(storage.ReaderOptions{Semantics: storage.Regular})
	if res := r.Read(); res.TS != 0 {
		t.Errorf("empty read = %+v", res)
	}
}

// TestStorageClusterTCPSharedSessions drives the colocated TCP
// deployment end to end and asserts the session-layer invariant the
// load numbers rest on: C logical clients cost ONE socket per server
// process, not C.
func TestStorageClusterTCPSharedSessions(t *testing.T) {
	const clients = 8
	r := core.Example7RQS()
	c, err := NewTCPStorageCluster(r, StorageOptions{Clients: clients + 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if c.Timeout != tcpTimeout {
		t.Errorf("timeout = %v, want the loopback default %v", c.Timeout, tcpTimeout)
	}

	c.Writer().Write("v")
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		rd := c.Reader()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if res := rd.Read(); res.Val != "v" {
					t.Errorf("read %+v, want v", res)
					return
				}
			}
		}()
	}
	wg.Wait()

	// O(1) sockets per process pair: the client host dialed each of the
	// n server processes exactly once, regardless of client count.
	if s := c.ClientHost.Stats(); s.Sessions != r.N() {
		t.Errorf("client host holds %d sessions for %d clients × %d servers, want %d (one per server process)",
			s.Sessions, clients, r.N(), r.N())
	}
	for i, h := range c.ServerHosts {
		if s := h.Stats(); s.AcceptedConns > 1 {
			t.Errorf("server %d accepted %d conns from the client process, want ≤ 1", i, s.AcceptedConns)
		}
		if s := h.Stats(); s.Drops != 0 {
			t.Errorf("server %d dropped %d envelopes", i, s.Drops)
		}
	}
}

func TestConsensusClusterDefaults(t *testing.T) {
	c, err := NewConsensusCluster(core.Example7RQS(), ConsensusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Proposers) != 2 || len(c.Learners) != 3 {
		t.Errorf("defaults: %d proposers, %d learners", len(c.Proposers), len(c.Learners))
	}
	// Role IDs must tile: acceptors 0..5, proposers 6..7, learners 8..10.
	if c.Topo.Proposers[0] != 6 || !c.Topo.Learners.Contains(8) {
		t.Errorf("topology = %+v", c.Topo)
	}
	if c.Topo.Leader(0) != 6 || c.Topo.Leader(1) != 7 || c.Topo.Leader(2) != 6 {
		t.Error("leader rotation broken")
	}
}

func TestCrashHelpers(t *testing.T) {
	c := NewStorageCluster(core.Example7RQS(), StorageOptions{})
	defer c.Stop()
	c.CrashServers(core.NewSet(0, 5))
	if got := c.Net.Crashed(); got != core.NewSet(0, 5) {
		t.Errorf("crashed = %v", got)
	}
}
