package storage

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"strings"

	"repro/internal/auth"
	"repro/internal/core"
	"repro/internal/transport"
)

// ErrClosed reports that the client's transport port closed while an
// operation was in flight: the operation did not complete and its
// result carries no information. Callers must be able to tell "key
// unwritten" / "write committed" from "client shut down", so every
// client surfaces the condition as an error. The client stays safe to
// call; every later operation also returns ErrClosed.
var ErrClosed = errors.New("storage: client port closed")

// ErrCASConflict reports a CAS that definitively lost: the key moved
// past the expected version (typically a concurrent writer won the
// race). Observed and Val carry the newest state seen among the
// rejecting servers, so callers can back off and retry against the
// current version instead of blind-looping on a stale expect. Returned
// by CAS alongside the failed CASResult; match with errors.As.
type ErrCASConflict struct {
	Key      string
	Expect   Version // the version the caller conditioned on
	Observed Version // the newest version seen among rejecting servers
	Val      string  // the value committed under Observed
}

func (e *ErrCASConflict) Error() string {
	return "storage: cas conflict on " + strconv.Quote(e.Key) +
		": expected version " + e.Expect.String() + ", observed " + e.Observed.String()
}

// This file is the keyed KV service over the storage servers: a
// Get/Put/CAS client for the per-key MWMR registers the server
// keyspace hosts (server.go), with client-side consistent hashing of
// keys onto independent shard groups so capacity scales by adding
// groups.
//
// Get and Put are the keyed MWMR read and write (mwmr.go): Put is a
// read phase discovering the key's maximum tag followed by a write
// phase under 〈maxTS+1, clientID〉; Get is a read phase plus writeback,
// skipping the writeback when a full class-3 quorum already reported
// the same tag (the one-round fast path).
//
// CAS is a versioned check-and-set on the MWMR tag: one conditional
// phase that asks every server to install 〈〈expect.TS+1, clientID〉, v〉
// iff its register still holds exactly the expected tag. The client
// reports success iff some class-3 quorum acked Applied=true.
//
// At-most-one CAS success per version: a server's tag is monotone and
// never revisits a value, so once it leaves `expect` it never equals
// `expect` again — each server therefore applies at most ONE CAS whose
// Expect is that version. Two full-quorum successes for the same
// version would need two class-3 quorums whose every member applied;
// the quorums intersect (Property 1), and the shared server cannot
// have applied both. Hence at most one concurrent CAS per version
// observes success.
//
// A *failed* CAS is not a no-op: it may still have installed its value
// at servers outside the winner's quorum (those that still held
// `expect` when its request arrived). Semantically a failed CAS is a
// concurrent write racing the winner — it linearizes under its own tag
// and its value may be returned by later reads. Histories that record
// failed CAS attempts as writes are linearizable per key (the CAS
// tests verify exactly this with histcheck). CAS therefore guarantees
// unique *success* per version — the register-level guarantee a
// quorum system can give without consensus — not that losing values
// vanish: it is a conditional write, not a linearizable
// compare-and-swap. An increment loop (read version, CAS cur+1 against
// it, retry on failure) keeps value == version TS, but its counter can
// end above its number of wins: a version nobody won still advances
// through a failed CAS that a later Get writes back. It ends at most
// at the number of CAS attempts.

// KVCASReq asks a server to install 〈Tag, Val〉 under Key iff its
// register currently holds exactly tag Expect (Tag = 〈Expect.TS+1,
// clientID〉, so the apply keeps the register monotone).
type KVCASReq struct {
	Seq    int64
	Key    string
	Expect Tag
	Tag    Tag
	Val    string
	// Sig is Tag.Writer's signature over 〈key, tag, digest(val)〉
	// (empty on unauthenticated deployments).
	Sig []byte
}

// KVCASAck reports whether the conditional apply happened, plus the
// server's (post-processing) current tag and value so a failed CAS
// learns the newer version.
type KVCASAck struct {
	Seq     int64
	Applied bool
	Tag     Tag
	Val     string
}

// Version identifies one committed state of a key: the MWMR tag under
// which the value was written. Versions are totally ordered (Tag.Less)
// and the zero Version is the key's initial, unwritten state.
type Version = Tag

// CASResult reports how a CAS completed. On success (OK), Version and
// Val are the newly installed state; on failure they are the newest
// state observed among the rejecting servers — the version to re-read
// before retrying.
type CASResult struct {
	OK      bool
	Version Version
	Val     string
	Rounds  int
}

// Store is the versioned KV interface the storage layer serves: reads
// return the value together with the version that committed it, and
// CAS installs a value only against the exact version the caller last
// observed. All methods return ErrClosed when the client shut down
// mid-operation (the non-error results then carry no information).
// KVClient is the quorum-backed implementation.
type Store interface {
	// Get returns the current value and version of key (NoValue and
	// the zero Version if never written).
	Get(key string) (string, Version, error)
	// Put unconditionally writes val under key, returning the version
	// that committed it.
	Put(key, val string) (Version, error)
	// CAS installs val iff key's version still equals expect. At most
	// one concurrent CAS per (key, expect) succeeds; a definitively
	// lost CAS returns *ErrCASConflict carrying the observed version,
	// yet its value may still take effect (a conditional write, not a
	// linearizable compare-and-swap).
	CAS(key string, expect Version, val string) (CASResult, error)
}

// KVGroup names one shard group of the keyspace: an independent quorum
// system and this client's port into its deployment. Every group is a
// complete, disjoint replica set; keys map onto groups by consistent
// hashing on the client.
type KVGroup struct {
	System *core.RQS
	Port   transport.Port
	// Signer and Verifier install the client's key material on an
	// authenticated deployment (both nil otherwise). Groups are
	// independent deployments but may share one auth.Deployment when
	// their process-ID spaces coincide.
	Signer   auth.Signer
	Verifier auth.Verifier
}

// ringVnodes is how many ring points each group contributes. 64 keeps
// the per-group load imbalance low (stddev ~1/√64 ≈ 12%) at a few KiB
// of ring per client.
const ringVnodes = 64

// ringEntry is one point of the consistent-hash ring.
type ringEntry struct {
	hash  uint64
	group int32
}

// KVClient is a quorum-backed Store over one or more shard groups.
// Like the register clients, a KVClient runs one operation at a time;
// concurrency comes from deploying many clients. It implements Store.
type KVClient struct {
	groups []mwClient
	id     core.ProcessID // writer id embedded in Put/CAS tags
	ring   []ringEntry
}

var _ Store = (*KVClient)(nil)

// NewKVClient creates a KV client over the given shard groups. Every
// group needs its own port (they are independent deployments); all the
// ports of one client must share a process ID, which becomes the
// client's writer ID. At least one group is required.
func NewKVClient(groups []KVGroup) *KVClient {
	if len(groups) == 0 {
		panic("storage: NewKVClient needs at least one group")
	}
	kv := &KVClient{
		id:   groups[0].Port.ID(),
		ring: buildRing(len(groups)),
	}
	for _, g := range groups {
		c := newMWClient(g.System, g.Port)
		c.setAuth(g.Signer, g.Verifier)
		kv.groups = append(kv.groups, c)
	}
	return kv
}

// AuthStats returns this client's verification counters summed over
// its shard groups. Call between operations.
func (kv *KVClient) AuthStats() AuthStats {
	var s AuthStats
	for i := range kv.groups {
		s.RejectedAcks += kv.groups[i].rejected
	}
	return s
}

// buildRing hashes ringVnodes points per group onto the ring.
func buildRing(n int) []ringEntry {
	ring := make([]ringEntry, 0, n*ringVnodes)
	for g := 0; g < n; g++ {
		for v := 0; v < ringVnodes; v++ {
			p := "g" + strconv.Itoa(g) + "/v" + strconv.Itoa(v)
			ring = append(ring, ringEntry{hash: fnv64(p), group: int32(g)})
		}
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].hash < ring[j].hash })
	return ring
}

// fnv64 is FNV-1a, the same deterministic hash the server shard map
// uses — keys route identically across client restarts and processes.
func fnv64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// WriterID returns the ID embedded in this client's Put/CAS tags.
func (kv *KVClient) WriterID() core.ProcessID { return kv.id }

// GroupFor returns the shard group a key routes to (exported for tests
// and for placement-aware tooling).
func (kv *KVClient) GroupFor(key string) int {
	h := fnv64(key)
	i := sort.Search(len(kv.ring), func(i int) bool { return kv.ring[i].hash >= h })
	if i == len(kv.ring) {
		i = 0
	}
	return int(kv.ring[i].group)
}

// Get returns key's current value and version.
func (kv *KVClient) Get(key string) (string, Version, error) {
	return kv.GetCtx(context.Background(), key)
}

// GetCtx is Get with a per-operation deadline: a read phase selects the
// maximum tag at a quorum, then a writeback installs it at a quorum
// unless a class-3 quorum already reported it (the one-round fast
// path). It returns ErrClosed when the port closes mid-operation: an
// unfinished writeback leaves the value unstable for later readers.
func (kv *KVClient) GetCtx(ctx context.Context, key string) (string, Version, error) {
	c := &kv.groups[kv.GroupFor(key)]
	c.key = key
	if err := c.drive(ctx, c, c.readPhase(false)); err != nil {
		return NoValue, Version{}, err
	}
	return c.maxVal, c.maxTag, nil
}

// Put unconditionally writes val under key.
func (kv *KVClient) Put(key, val string) (Version, error) {
	return kv.PutCtx(context.Background(), key, val)
}

// PutCtx is Put with a per-operation deadline: a tag query discovers
// the key's maximum tag at a quorum, then a write phase stores the value
// under 〈maxTS+1, clientID〉 at a quorum. An aborted Put may be
// partially applied and must not report as committed; the client
// remains usable.
func (kv *KVClient) PutCtx(ctx context.Context, key, val string) (Version, error) {
	c := &kv.groups[kv.GroupFor(key)]
	c.key, c.val = key, val
	if err := c.drive(ctx, c, c.readPhase(true)); err != nil {
		return Version{}, err
	}
	return c.tag, nil
}

// CAS installs val iff key's version still equals expect (see the CAS
// commentary at the top of this file for the exact guarantee).
func (kv *KVClient) CAS(key string, expect Version, val string) (CASResult, error) {
	return kv.CASCtx(context.Background(), key, expect, val)
}

// CASCtx is CAS with a per-operation deadline. An aborted or failed
// CAS may still have deposited its value at a minority of servers; it
// then acts as a concurrent write under its tag, and ErrClosed means
// the same: no quorum verdict. A definitive loss (some server moved
// past expect and success became impossible) returns *ErrCASConflict
// with the newest observed version, so retry loops re-read instead of
// spinning on the stale expect.
func (kv *KVClient) CASCtx(ctx context.Context, key string, expect Version, val string) (CASResult, error) {
	c := &kv.groups[kv.GroupFor(key)]
	c.key, c.val = key, val
	if err := c.drive(ctx, c, c.casPhase(expect, Tag{TS: expect.TS + 1, Writer: kv.id})); err != nil {
		return c.cas, err
	}
	if !c.cas.OK {
		return c.cas, &ErrCASConflict{Key: key, Expect: expect, Observed: c.cas.Version, Val: c.cas.Val}
	}
	return c.cas, nil
}

// casPhase broadcasts the conditional apply. It ends once a class-3
// quorum fully applied (success), success has become impossible
// (failure), or every server responded. The applied set is counted on
// the client's second reused tracker (c.applied).
func (c *mwClient) casPhase(expect, tag Tag) Step {
	c.seq++
	c.phase, c.tag, c.refused = phaseCAS, tag, core.EmptySet
	c.cas = CASResult{Version: expect, Val: NoValue, Rounds: 1}
	if c.applied == nil {
		c.applied = c.rqs.NewTracker()
	}
	c.applied.Reset()
	c.tr.Reset()
	return Step{Send: KVCASReq{Seq: c.seq, Key: c.key, Expect: expect, Tag: tag, Val: c.val, Sig: c.signTag(c.key, tag, c.val)}}
}

// casAck counts one CAS verdict; c.cas holds the newest state seen
// among the rejecting servers until the CAS wins.
func (c *mwClient) casAck(env transport.Envelope) Step {
	ack, isAck := env.Payload.(KVCASAck)
	if !isAck || ack.Seq != c.seq || !c.tr.Add(env.From) {
		// A server's first verdict on this Seq is its only one. A
		// request redelivered to it after a restart finds its own tag
		// installed and acks Applied=false; counting that would reject
		// a server already counted as applied.
		env.Release()
		return Step{}
	}
	if c.cas.Version.Less(ack.Tag) {
		c.cas.Version, c.cas.Val = ack.Tag, ack.Val
		if env.Aliased() {
			// The adopted value escapes in the CASResult; unalias it
			// from the receive arena before releasing.
			c.cas.Val = strings.Clone(c.cas.Val)
		}
	}
	env.Release()
	if ack.Applied {
		if c.applied.Add(env.From) {
			if _, ok := c.applied.Contained(core.Class3); ok {
				c.cas = CASResult{OK: true, Version: c.tag, Val: c.val, Rounds: 1}
				return Step{Done: true}
			}
		}
	} else {
		// Success needs a class-3 quorum with every member applied;
		// once the non-rejecting servers cannot contain one, the CAS
		// has definitely lost.
		c.refused = c.refused.Add(env.From)
		if _, ok := c.rqs.ContainedQuorum(c.rqs.Universe().Diff(c.refused), core.Class3); !ok {
			return Step{Done: true}
		}
	}
	// Everyone responded without a fully-applied quorum: the success
	// check above would have fired.
	return Step{Done: c.tr.Complete()}
}
