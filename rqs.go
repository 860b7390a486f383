// Package rqs is the public API of the refined-quorum-systems library, a
// reproduction of "Refined Quorum Systems" (Guerraoui & Vukolić, PODC
// 2007). It re-exports:
//
//   - the RQS mathematics: process sets, general adversary structures,
//     the three-class quorum systems of Definition 2 with verification
//     of Properties 1-3, threshold instantiations (Example 6), and the
//     paper's worked examples;
//   - the Byzantine-resilient SWMR atomic storage of Section 3, which is
//     (m, QCm)-fast for m ∈ {1,2,3};
//   - the Byzantine consensus of Section 4, in which correct learners
//     learn in 2/3/4 message delays by surviving quorum class;
//   - analysis tools (minimal system sizes, fast-path availability,
//     quorum load) and ready-made in-memory deployments for both
//     protocols.
//
// Quick start:
//
//	system := rqs.FiveServerRQS()              // n=5, t=2 (§1.2)
//	cluster := rqs.NewStorage(system, rqs.StorageOptions{})
//	defer cluster.Stop()
//	w, r := cluster.Writer(), cluster.Reader()
//	w.Write("hello")                           // 1 round when 4+ respond
//	fmt.Println(r.Read().Val)                  // "hello"
package rqs

import (
	"time"

	"repro/internal/analysis"
	"repro/internal/auth"
	"repro/internal/chaos"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Core set and quorum-system types (see internal/core for full docs).
type (
	// Set is an immutable set of process IDs (bitmask, ≤ 64 processes).
	Set = core.Set
	// ProcessID identifies a process; IDs are dense from 0.
	ProcessID = core.ProcessID
	// Adversary is a general adversary structure (Definition 1).
	Adversary = core.Adversary
	// QuorumClass is one of the three nested classes of Definition 2.
	QuorumClass = core.QuorumClass
	// System is a refined quorum system.
	System = core.RQS
	// Config describes a refined quorum system for New.
	Config = core.Config
	// ThresholdParams is the Example 6 threshold instantiation.
	ThresholdParams = core.ThresholdParams
)

// Quorum classes.
const (
	Class1 = core.Class1
	Class2 = core.Class2
	Class3 = core.Class3
)

// Set constructors.
var (
	// NewSet builds a set from member IDs.
	NewSet = core.NewSet
	// FullSet returns {0, .., n-1}.
	FullSet = core.FullSet
)

// Adversary constructors and predicates.
var (
	// NewStructured builds a general adversary from its maximal sets.
	NewStructured = core.NewStructured
	// NewThreshold builds the k-bounded threshold adversary B_k.
	NewThreshold = core.NewThreshold
	// IsBasic reports whether a set is outside B (contains a benign
	// process in every execution).
	IsBasic = core.IsBasic
	// IsLarge reports whether a set is not covered by two elements of B.
	IsLarge = core.IsLarge
)

// Quorum-system constructors.
var (
	// New builds a refined quorum system (verify with System.Verify).
	New = core.New
	// NewThresholdRQS enumerates the Example 6 threshold family.
	NewThresholdRQS = core.NewThresholdRQS
	// MinimalN is the closed-form minimal |S| of Example 6.
	MinimalN = core.MinimalN
)

// The paper's worked examples.
var (
	// MajorityRQS is Example 2 (crash-only majorities).
	MajorityRQS = core.MajorityRQS
	// ByzantineThirdRQS is Example 3 (n > 3k dissemination quorums).
	ByzantineThirdRQS = core.ByzantineThirdRQS
	// Fig3RQS is Example 1 / Figure 3.
	Fig3RQS = core.Fig3RQS
	// Example7RQS is the six-server general-adversary system of
	// Example 7 / Figure 4.
	Example7RQS = core.Example7RQS
	// FiveServerRQS is the Section 1.2 five-server crash system.
	FiveServerRQS = core.FiveServerRQS
	// PBFTStyleRQS is the n = 3t+1 instantiation noted in Example 6.
	PBFTStyleRQS = core.PBFTStyleRQS
)

// Analysis tools.
var (
	// Availability is the probability a class-c quorum of correct
	// servers survives iid crash probability p.
	Availability = analysis.Availability
	// ExpectedRounds is the expected best-case latency given liveness.
	ExpectedRounds = analysis.ExpectedRounds
	// Load is the Naor-Wool load of a quorum class.
	Load = analysis.Load
	// SearchClassAssignment finds a maximal promotion of quorums to
	// classes 1 and 2 under an adversary (the Section 6 "how many RQS
	// exist" question).
	SearchClassAssignment = analysis.SearchClassAssignment
)

// ClassAssignment is the result of SearchClassAssignment.
type ClassAssignment = analysis.ClassAssignment

// Storage deployment (Section 3).
type (
	// StorageCluster is a running storage deployment (NewStorage runs
	// it over the in-memory transport): servers on IDs 0..n-1 plus
	// client slots.
	StorageCluster = sim.StorageCluster
	// StorageOptions configures NewStorage.
	StorageOptions = sim.StorageOptions
	// Writer is the storage's single writer (Figure 5). Write blocks
	// until the operation completes; WriteCtx takes a per-operation
	// deadline and reports a liveness violation as the context error.
	Writer = storage.Writer
	// Reader is a storage reader (Figure 7); ReadCtx is Read with a
	// per-operation deadline, like Writer.WriteCtx.
	Reader = storage.Reader
	// WriteResult reports a write's timestamp and round count.
	WriteResult = storage.WriteResult
	// ReadResult reports a read's value, timestamp and round count.
	ReadResult = storage.ReadResult
	// Tag orders MWMR writes: lexicographic on (TS, Writer).
	Tag = storage.Tag
)

// NewStorage starts an atomic-storage cluster over the given system.
func NewStorage(system *System, opts StorageOptions) *StorageCluster {
	return sim.NewStorageCluster(system, opts)
}

// Keyed KV service over the storage layer: per-key MWMR registers
// behind a sharded server keyspace, with client-side consistent
// hashing of keys onto independent shard groups.
type (
	// KVStore is the versioned Get/Put/CAS interface; KVClient is the
	// quorum-backed implementation. CAS is not a linearizable
	// compare-and-swap: at most one CAS per (key, version) reports
	// success, but a failed CAS is a conditional write whose value may
	// still take effect (see storage.Store).
	KVStore = storage.Store
	// KVClient is a Get/Put/CAS client consistent-hashing keys across
	// shard groups. One operation at a time per client.
	KVClient = storage.KVClient
	// KVGroup names one shard group: a quorum system plus this
	// client's port into its deployment.
	KVGroup = storage.KVGroup
	// KVVersion identifies one committed state of a key (the MWMR tag
	// that wrote it).
	KVVersion = storage.Version
	// KVCASResult reports how a CAS completed.
	KVCASResult = storage.CASResult
	// KVCluster is a running KV deployment over either transport:
	// shard groups of storage servers plus KV client slots.
	KVCluster = sim.KVCluster
	// KVOptions configures NewKV / NewTCPKV.
	KVOptions = sim.KVOptions
)

// NewKV starts a keyed KV deployment over the given system: opts.Groups
// independent storage clusters, each running system's quorums over its
// own in-memory network. Spawn clients with KVCluster.Client; each
// offers Get/Put/CAS (see storage.Store for the exact CAS guarantee).
func NewKV(system *System, opts KVOptions) *KVCluster {
	return sim.NewKVCluster(system, opts)
}

// NewTCPKV is NewKV over real loopback TCP deployments.
func NewTCPKV(system *System, opts KVOptions) (*KVCluster, error) {
	return sim.NewTCPKVCluster(system, opts)
}

// NewKVClient assembles a KV client from hand-built shard groups (for
// deployments not managed by NewKV/NewTCPKV). All ports must share one
// process ID, which becomes the client's writer ID.
func NewKVClient(groups []KVGroup) *KVClient {
	return storage.NewKVClient(groups)
}

// Authenticated storage: the Byzantine-tolerant MWMR/KV data path.
// Writers sign their tags, servers verify writes and countersign read
// acks, and clients discard unverifiable acks — a forging or replaying
// server degrades to noise as long as a verified class-3 quorum of
// honest servers remains reachable.
type (
	// AuthMode selects the deployment's signature scheme: AuthEd25519
	// (transferable signatures) or AuthHMAC (fast symmetric MACs; any
	// keyring holder can forge, see internal/auth for the caveat).
	AuthMode = auth.Mode
	// AuthDeployment is a deployment's provisioned key material: one
	// signing identity per process plus the shared verifier.
	AuthDeployment = auth.Deployment
	// AuthSigner signs protocol bodies under one identity.
	AuthSigner = auth.Signer
	// AuthVerifier checks signatures against any provisioned identity.
	AuthVerifier = auth.Verifier
	// AuthStats counts the signatures a client or server rejected.
	AuthStats = storage.AuthStats
	// KVCASConflict is the typed error a definitively lost CAS returns
	// (match with errors.As); Observed carries the version to retry
	// against.
	KVCASConflict = storage.ErrCASConflict
)

// The signature schemes.
const (
	AuthEd25519 = auth.ModeEd25519
	AuthHMAC    = auth.ModeHMAC
)

// NewAuthDeployment provisions fresh key material for the given
// identities under the chosen scheme.
func NewAuthDeployment(mode AuthMode, ids Set) (*AuthDeployment, error) {
	return auth.NewDeployment(mode, ids)
}

// AuthForCluster provisions key material sized for a cluster of the
// given system: identities 0..n-1 are its servers, the next `clients`
// identities its client slots. Pass the result via StorageOptions.Auth
// / KVOptions.Auth.
func AuthForCluster(mode AuthMode, system *System, clients int) *AuthDeployment {
	return sim.AuthDeployment(mode, system, clients)
}

// Consensus deployment (Section 4).
type (
	// ConsensusCluster is a single-shot consensus deployment under a
	// deterministic round-by-round driver: acceptors on IDs 0..n-1, then
	// proposers, then learners. Propose on a proposer, then Run.
	ConsensusCluster = sim.ConsensusCluster
	// ConsensusOptions configures NewConsensus.
	ConsensusOptions = sim.ConsensusOptions
	// Learn is a learned value with the decision rule that fired.
	Learn = consensus.Learn
)

// NewConsensus builds a consensus cluster over the given system.
func NewConsensus(system *System, opts ConsensusOptions) (*ConsensusCluster, error) {
	return sim.NewConsensusCluster(system, opts)
}

// State-machine replication (the framework of Section 4's introduction):
// a replicated command log where each slot is one consensus instance,
// pipelined over a single shared consensus deployment.
type (
	// LogReplica hosts the acceptor role for every log slot.
	LogReplica = smr.Replica
	// LogProposer proposes commands into slots.
	LogProposer = smr.Proposer
	// Log assembles the committed command log at a learner.
	Log = smr.Log
	// SMRCluster is a running pipelined SMR deployment: one key
	// generation and one network shared by every log slot.
	SMRCluster = sim.SMRCluster
	// SMROptions configures NewSMR.
	SMROptions = sim.SMROptions
)

// NewSMR starts a pipelined SMR deployment over the given system:
// every slot decided through it shares the cluster set up here, so
// per-decision cost excludes key generation and cluster start-up
// (compare BenchmarkSMRPipelined's pipelined and per-slot-setup cases).
func NewSMR(system *System, opts SMROptions) (*SMRCluster, error) {
	return sim.NewSMRCluster(system, opts)
}

// SMR constructors (see internal/smr for the deployment pattern).
var (
	// NewLogReplica starts an acceptor host on a port. Slots decide in
	// the initial view: the SMR hosts do not run view changes.
	NewLogReplica = smr.NewReplica
	// NewLogProposer starts a proposer host on a port; it sends each
	// slot's initial-view prepare and keeps nothing per slot.
	NewLogProposer = smr.NewProposer
	// NewLog starts a learner/log host on a port.
	NewLog = smr.NewLog
)

// ReaderOptions tunes a storage reader: Regular (Section 6) semantics or
// the QC'2 ablation.
type ReaderOptions = storage.ReaderOptions

// Reader semantics.
const (
	// AtomicReads is the full Figure 7 algorithm.
	AtomicReads = storage.Atomic
	// RegularReads skips the writeback: cheaper, admits read inversion.
	RegularReads = storage.Regular
)

// Transport building blocks, for callers assembling their own
// deployments (for example over TCP).
type (
	// Network is the in-memory network with synchrony scripting.
	Network = transport.Network
	// Port is one process's attachment to a network.
	Port = transport.Port
	// TCPNode is a Port over real TCP connections.
	TCPNode = transport.TCPNode
	// TCPHost is one OS process's shared TCP session layer: all
	// TCPNodes attached to it multiplex over one socket per remote
	// process.
	TCPHost = transport.TCPHost
)

// Transport constructors.
var (
	// NewNetwork creates an in-memory network for n processes.
	NewNetwork = transport.NewNetwork
	// NewTCPNode starts a single-node TCP-backed port (one logical
	// process per OS process).
	NewTCPNode = transport.NewTCPNode
	// NewTCPHost starts a shared session host; attach logical nodes
	// with its Node method to colocate many clients in one process.
	NewTCPHost = transport.NewTCPHost
)

// Chaos layer: scripted fault injection for both transports plus the
// scenario-matrix runner (see the "Chaos layer" section of
// ARCHITECTURE.md and cmd/rqs-chaos).
type (
	// Injector decides each envelope's fate on a from→to link: drop,
	// added delay, extra duplicate copies. Install on a Network or
	// TCPHost (or a sim cluster) with SetInjector; ChaosScript is the
	// canonical implementation.
	Injector = transport.Injector
	// ChaosScript is a seeded, time-scheduled fault script: a chain of
	// ChaosRules whose randomness replays exactly from the seed.
	ChaosScript = chaos.Script
	// ChaosRule scripts one fault: an effect on a set of directed
	// links during a window of the script clock.
	ChaosRule = chaos.Rule
	// ChaosEffect is one fault behaviour (Cut, Park, Drop, Dup, Delay,
	// Flap — see internal/chaos).
	ChaosEffect = chaos.Effect
	// ChaosProxy is a conn-level interposer for the TCP transport:
	// blackhole bytes or cut live conns below the session layer.
	ChaosProxy = chaos.Proxy
	// ChaosProxyStats reports what a proxy did to the wire.
	ChaosProxyStats = chaos.ProxyStats
	// Scenario is one named fault campaign of the chaos matrix.
	Scenario = sim.Scenario
	// ScenarioResult is one histcheck-verified run of a scenario.
	ScenarioResult = sim.RunResult
)

// Chaos constructors and the scenario matrix.
var (
	// NewChaosScript creates an empty seeded fault script.
	NewChaosScript = chaos.NewScript
	// NewChaosProxy starts a conn-level proxy relaying to a target
	// address; install it via TCPHost.SetDialer.
	NewChaosProxy = chaos.NewProxy
	// ChaosScenarios returns the named scenario registry.
	ChaosScenarios = sim.Scenarios
	// FindChaosScenario looks a scenario up by name.
	FindChaosScenario = sim.FindScenario
	// RunChaosScenario executes one scenario×transport×workload cell
	// and returns its histcheck-verified result.
	RunChaosScenario = sim.RunScenario
)

// NewStorageServer runs one storage server on an arbitrary Port (e.g. a
// TCPNode), for hand-assembled deployments.
func NewStorageServer(port Port) *storage.Server {
	return storage.NewServer(port, storage.Hooks{})
}

// NewStorageWriter builds the writer client on an arbitrary Port.
func NewStorageWriter(system *System, port Port, timeout time.Duration) *Writer {
	return storage.NewWriter(system, port, timeout)
}

// NewStorageReader builds a reader client on an arbitrary Port.
func NewStorageReader(system *System, port Port, timeout time.Duration) *Reader {
	return storage.NewReader(system, port, timeout)
}

// RegisterStorageMessages registers the storage message types — the
// SWMR protocol's, the MWMR variant's and the KV CAS extension's —
// with the framed TCP transport codec.
func RegisterStorageMessages() {
	sim.RegisterTCPStorageMessages()
}
