package sim

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/histcheck"
	"repro/internal/storage"
)

// testKVMultiKey drives concurrent writers and readers over several
// keys and verifies every per-key history independently — the
// per-object atomicity check of the keyed service.
func testKVMultiKey(t *testing.T, d *KVCluster) {
	t.Helper()
	keys := []string{"alpha", "beta", "gamma", "delta"}
	const writers, readers, opsPerClient = 3, 2, 6

	rec := histcheck.NewRecorder()
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		kv := d.Client()
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < opsPerClient; i++ {
				key := keys[(id+i)%len(keys)]
				inv := time.Now()
				ver, err := kv.Put(key, fmt.Sprintf("w%d-op%d", id, i))
				if err != nil {
					errs <- err
					return
				}
				rec.Record(histcheck.Op{
					Kind: histcheck.Write, Client: fmt.Sprintf("w%d", id), Key: key,
					TS: ver.Packed(), Inv: inv, Resp: time.Now(),
				})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		kv := d.Client()
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < opsPerClient; i++ {
				key := keys[(id+i)%len(keys)]
				inv := time.Now()
				_, ver, err := kv.Get(key)
				if err != nil {
					errs <- err
					return
				}
				rec.Record(histcheck.Op{
					Kind: histcheck.Read, Client: fmt.Sprintf("r%d", id), Key: key,
					TS: ver.Packed(), Inv: inv, Resp: time.Now(),
				})
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	// Settle reads, strictly after all writes, one per key.
	kv := d.Client()
	for _, key := range keys {
		inv := time.Now()
		_, ver, err := kv.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		rec.Record(histcheck.Op{
			Kind: histcheck.Read, Client: "settle", Key: key,
			TS: ver.Packed(), Inv: inv, Resp: time.Now(),
		})
	}
	if v := histcheck.CheckPerKey(rec.Ops()); v != nil {
		t.Fatalf("per-key atomicity violated: %v", v)
	}
}

func TestKVClusterMultiKeyMemory(t *testing.T) {
	c := NewKVCluster(core.Example7RQS(), KVOptions{Groups: 2, Clients: 6})
	defer c.Stop()
	testKVMultiKey(t, c)
}

func TestKVClusterMultiKeyTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp cluster in -short mode")
	}
	c, err := NewTCPKVCluster(core.FiveServerRQS(), KVOptions{Groups: 2, Clients: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	testKVMultiKey(t, c)
}

// testKVCASWinner runs concurrent increment-by-CAS loops on one key and
// asserts the contract CAS actually has (storage/kv.go). Every
// expect-version admits at most one winner. A failed CAS is a write
// whose effect may still surface (a later Get writes it back), so a
// version nobody won can advance the counter too: the final version's
// TS is bounded below by the wins and above by the CAS attempts, not
// equal to the wins. Every CAS writes cur+1 under TS+1, so the final
// value equals its version's TS.
func testKVCASWinner(t *testing.T, d *KVCluster, clients, increments int) {
	t.Helper()
	var mu sync.Mutex
	winsByTS := make(map[int64]int)
	wins, attempts := 0, 0
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		kv := d.Client()
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for won := 0; won < increments; {
				val, ver, err := kv.Get("ctr")
				if err != nil {
					errs <- err
					return
				}
				cur := 0
				if val != storage.NoValue {
					cur, _ = strconv.Atoi(val)
				}
				res, err := kv.CAS("ctr", ver, strconv.Itoa(cur+1))
				var conflict *storage.ErrCASConflict
				if err != nil && !errors.As(err, &conflict) {
					errs <- err
					return
				}
				mu.Lock()
				attempts++
				if res.OK {
					winsByTS[ver.TS]++
					wins++
					won++
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	for ts, n := range winsByTS {
		if n > 1 {
			t.Fatalf("version ts=%d admitted %d CAS winners", ts, n)
		}
	}
	val, ver, err := d.Client().Get("ctr")
	if err != nil {
		t.Fatal(err)
	}
	if val != strconv.FormatInt(ver.TS, 10) {
		t.Fatalf("final counter %q at version ts=%d, want the two equal", val, ver.TS)
	}
	if ver.TS < int64(wins) || ver.TS > int64(attempts) {
		t.Fatalf("final version ts=%d outside [wins %d, CAS attempts %d]", ver.TS, wins, attempts)
	}
}

func TestKVCASWinnerMemory(t *testing.T) {
	for _, tc := range []struct {
		name                string
		rqs                 *core.RQS
		clients, increments int
	}{
		{"five-server", core.FiveServerRQS(), 5, 4},
		{"example7", core.Example7RQS(), 6, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewKVCluster(tc.rqs, KVOptions{Groups: 1, Clients: tc.clients + 1})
			defer c.Stop()
			testKVCASWinner(t, c, tc.clients, tc.increments)
		})
	}
}

func TestKVCASWinnerTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp cluster in -short mode")
	}
	c, err := NewTCPKVCluster(core.FiveServerRQS(), KVOptions{Groups: 1, Clients: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	testKVCASWinner(t, c, 4, 3)
}

// testKVCASPutInterleave races CAS loops against unconditional Puts on
// one key and histcheck-verifies the full history. A FAILED CAS may
// still have deposited its value at servers that lagged (kv.go); it is
// recorded as a PENDING write — invocation anchored at the Get that
// produced its expect version, response pushed past the test horizon —
// because its effect, if any, can surface at any later point. Each
// (client, expect) attempt is recorded once: retries reuse the same
// tag and value, so they are the same logical write.
func testKVCASPutInterleave(t *testing.T, d *KVCluster) {
	t.Helper()
	const key = "contended"
	const casClients, casOps, putOps = 2, 6, 6
	horizon := time.Now().Add(time.Hour)

	rec := histcheck.NewRecorder()
	var wg sync.WaitGroup
	errs := make(chan error, casClients+2)
	for i := 0; i < casClients; i++ {
		kv := d.Client()
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			name := fmt.Sprintf("cas%d", id)
			recorded := make(map[int64]bool) // expect.TS values already recorded
			for op := 0; op < casOps; op++ {
				getInv := time.Now()
				_, ver, err := kv.Get(key)
				if err != nil {
					errs <- err
					return
				}
				rec.Record(histcheck.Op{
					Kind: histcheck.Read, Client: name, Key: key,
					TS: ver.Packed(), Inv: getInv, Resp: time.Now(),
				})
				// Value is a pure function of (client, expect): a retry
				// of the same expect proposes the identical write.
				val := fmt.Sprintf("%s-from-%d", name, ver.TS)
				res, err := kv.CAS(key, ver, val)
				var conflict *storage.ErrCASConflict
				if err != nil && !errors.As(err, &conflict) {
					errs <- err
					return
				}
				if res.OK {
					// A prior attempt with this expect may have reported
					// failure and already recorded the write as pending;
					// the retry is the same logical write (same tag, same
					// value), so record it at most once.
					if !recorded[ver.TS] {
						rec.Record(histcheck.Op{
							Kind: histcheck.Write, Client: name, Key: key,
							TS: res.Version.Packed(), Inv: getInv, Resp: time.Now(),
						})
						recorded[ver.TS] = true
					}
				} else if !recorded[ver.TS] {
					// Maybe-applied loser: pending write under the tag
					// this client's CAS proposed.
					tag := storage.Version{TS: ver.TS + 1, Writer: kv.WriterID()}
					rec.Record(histcheck.Op{
						Kind: histcheck.Write, Client: name, Key: key,
						TS: tag.Packed(), Inv: getInv, Resp: horizon,
					})
					recorded[ver.TS] = true
				}
			}
		}(i)
	}
	putter := d.Client()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for op := 0; op < putOps; op++ {
			inv := time.Now()
			ver, err := putter.Put(key, fmt.Sprintf("put-%d", op))
			if err != nil {
				errs <- err
				return
			}
			rec.Record(histcheck.Op{
				Kind: histcheck.Write, Client: "putter", Key: key,
				TS: ver.Packed(), Inv: inv, Resp: time.Now(),
			})
		}
	}()
	getter := d.Client()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for op := 0; op < putOps; op++ {
			inv := time.Now()
			_, ver, err := getter.Get(key)
			if err != nil {
				errs <- err
				return
			}
			rec.Record(histcheck.Op{
				Kind: histcheck.Read, Client: "getter", Key: key,
				TS: ver.Packed(), Inv: inv, Resp: time.Now(),
			})
		}
	}()
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	// Settle read strictly after everything: the newest committed
	// version must still be visible (nothing lost).
	inv := time.Now()
	_, ver, err := d.Client().Get(key)
	if err != nil {
		t.Fatal(err)
	}
	rec.Record(histcheck.Op{
		Kind: histcheck.Read, Client: "settle", Key: key,
		TS: ver.Packed(), Inv: inv, Resp: time.Now(),
	})
	if v := histcheck.CheckPerKey(rec.Ops()); v != nil {
		t.Fatalf("CAS-vs-Put interleaving lost a committed version: %v", v)
	}
}

func TestKVCASPutInterleaveMemory(t *testing.T) {
	c := NewKVCluster(core.Example7RQS(), KVOptions{Groups: 1, Clients: 5})
	defer c.Stop()
	testKVCASPutInterleave(t, c)
}

func TestKVCASPutInterleaveTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp cluster in -short mode")
	}
	c, err := NewTCPKVCluster(core.FiveServerRQS(), KVOptions{Groups: 1, Clients: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	testKVCASPutInterleave(t, c)
}

// TestKVClusterRestartCarriesKeyspace restarts EVERY server of one
// durable deployment and verifies the whole keyspace — not just the
// legacy "" register — survives: after the rolling restart every
// server's in-memory state is gone, so reads can only succeed if WAL
// replay recovered all keys on all servers.
func TestKVClusterRestartCarriesKeyspace(t *testing.T) {
	c := NewKVCluster(core.FiveServerRQS(), KVOptions{Groups: 2, Clients: 2, DataDir: t.TempDir()})
	defer c.Stop()
	kv := c.Client()

	want := make(map[string]string)
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("persist-%d", i)
		val := fmt.Sprintf("v%d", i)
		if _, err := kv.Put(key, val); err != nil {
			t.Fatal(err)
		}
		want[key] = val
	}
	for g := range c.Groups {
		for id := 0; id < c.RQS.N(); id++ {
			if err := c.RestartServer(g, core.ProcessID(id), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	kv2 := c.Client()
	for key, val := range want {
		got, ver, err := kv2.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if got != val || ver.IsZero() {
			t.Fatalf("key %q after rolling restart = (%q, %v), want (%q, non-zero)", key, got, ver, val)
		}
	}
}

// TestVolatileRestartIsAmnesiac pins the kill -9 model for clusters
// WITHOUT a data dir: RestartServer must bring the server back with
// nothing — no in-process snapshot may smuggle state across the
// "crash". The write lands on every server (all five are in each
// write quorum's closure here), so a non-empty post-restart snapshot
// can only mean the harness cheated.
func TestVolatileRestartIsAmnesiac(t *testing.T) {
	c := NewStorageCluster(core.FiveServerRQS(), StorageOptions{Clients: 1})
	defer c.Stop()
	c.Writer().Write("survivor?")
	// Find a server that actually holds state, then kill it.
	id := core.ProcessID(-1)
	for i, srv := range c.Servers {
		if len(srv.StateSnapshot()) > 0 {
			id = core.ProcessID(i)
			break
		}
	}
	if id < 0 {
		t.Fatal("no server holds the write")
	}
	if err := c.RestartServer(id, 0); err != nil {
		t.Fatal(err)
	}
	if st := c.Servers[id].StateSnapshot(); len(st) != 0 {
		t.Fatalf("volatile server %d came back with state %v after kill -9; in-memory state must not survive", id, st)
	}
}

// TestDurableRestartRecoversFromDisk is the counterpart: with a data
// dir, the same kill -9 recovers the register state by replaying the
// WAL.
func TestDurableRestartRecoversFromDisk(t *testing.T) {
	c := NewStorageCluster(core.FiveServerRQS(), StorageOptions{Clients: 2, DataDir: t.TempDir()})
	defer c.Stop()
	c.Writer().Write("durable")
	for id := 0; id < c.RQS.N(); id++ {
		if err := c.RestartServer(core.ProcessID(id), 0); err != nil {
			t.Fatal(err)
		}
	}
	res := c.Reader().Read()
	if res.Val != "durable" {
		t.Fatalf("read %q after rolling restart of every server, want %q", res.Val, "durable")
	}
}
