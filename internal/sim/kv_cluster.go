package sim

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/adversary"
	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/transport"
)

// KVOptions configures NewKVCluster / NewTCPKVCluster.
type KVOptions struct {
	// Groups is the number of shard groups — independent quorum
	// deployments that each host a slice of the keyspace (default 2).
	Groups int
	// Clients is the number of KV client slots (default 4). Each
	// client holds one port into every group.
	Clients int
	// DataDir, when non-empty, makes every group's servers durable:
	// group g's server state lives under DataDir/g<g> (see
	// StorageOptions.DataDir).
	DataDir string
	// WALNoSync skips the WAL's fdatasync (benchmark-only).
	WALNoSync bool
	// Byzantine optionally makes individual servers Byzantine — the
	// same map is installed in every shard group (each group is its
	// own deployment with its own server 0..n-1, so "server 2 is
	// Byzantine" means group-local server 2 in each).
	Byzantine map[core.ProcessID]adversary.Wrap
	// Auth, when non-nil, installs the deployment's key material on
	// every group's servers and clients. One deployment is shared
	// across groups: their process-ID spaces coincide (servers 0..n-1,
	// clients above), and a KV client uses one identity — its writer
	// ID — in every group.
	Auth *auth.Deployment
}

// KVCluster is a keyed KV deployment over either transport: G shard
// groups, each a full StorageCluster running the same quorum system
// over its own network (in memory) or its own hosts (over TCP), with KV
// clients consistent-hashing keys across the groups.
type KVCluster struct {
	RQS    *core.RQS
	Groups []*StorageCluster
}

// NewKVCluster starts opts.Groups independent in-memory storage
// deployments of the given quorum system. Like NewStorageCluster it
// panics if a durable server's data directory cannot be opened.
func NewKVCluster(rqs *core.RQS, opts KVOptions) *KVCluster {
	c, err := newKVCluster(rqs, opts, false)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// NewTCPKVCluster starts opts.Groups independent loopback-TCP storage
// deployments of the given quorum system (per-server hosts plus one
// shared client host per group).
func NewTCPKVCluster(rqs *core.RQS, opts KVOptions) (*KVCluster, error) {
	return newKVCluster(rqs, opts, true)
}

func newKVCluster(rqs *core.RQS, opts KVOptions, tcp bool) (*KVCluster, error) {
	if opts.Groups <= 0 {
		opts.Groups = 2
	}
	c := &KVCluster{RQS: rqs}
	for g := 0; g < opts.Groups; g++ {
		dir := opts.DataDir
		if dir != "" {
			dir = filepath.Join(dir, fmt.Sprintf("g%d", g))
		}
		sc, err := newStorageCluster(rqs, StorageOptions{
			Clients:   opts.Clients,
			DataDir:   dir,
			WALNoSync: opts.WALNoSync,
			Byzantine: opts.Byzantine,
			Auth:      opts.Auth,
		}, tcp)
		if err != nil {
			c.Stop()
			return nil, err
		}
		c.Groups = append(c.Groups, sc)
	}
	return c, nil
}

// Client returns a KV client holding one fresh port into every group.
func (c *KVCluster) Client() *storage.KVClient {
	groups := make([]storage.KVGroup, len(c.Groups))
	for g, sc := range c.Groups {
		groups[g] = sc.kvGroup()
	}
	return storage.NewKVClient(groups)
}

// SetInjector installs a fault injector on every group (nil removes
// it). A single injector instance serves all groups — the chaos
// scripts are safe for concurrent multi-network installs.
func (c *KVCluster) SetInjector(inj transport.Injector) {
	for _, sc := range c.Groups {
		sc.SetInjector(inj)
	}
}

// RestartServer kill -9s and restarts one server of one group; a
// durable deployment recovers its keyspace from the WAL, a volatile
// one comes back amnesiac.
func (c *KVCluster) RestartServer(group int, id core.ProcessID, down time.Duration) error {
	return c.Groups[group].RestartServer(id, down)
}

// Stop shuts every group down.
func (c *KVCluster) Stop() {
	for _, sc := range c.Groups {
		sc.Stop()
	}
}
