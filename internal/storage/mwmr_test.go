package storage_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/histcheck"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
)

func TestTagOrdering(t *testing.T) {
	a := storage.Tag{TS: 1, Writer: 7}
	b := storage.Tag{TS: 1, Writer: 8}
	c := storage.Tag{TS: 2, Writer: 0}
	for _, tt := range []struct {
		lo, hi storage.Tag
	}{{storage.Tag{}, a}, {a, b}, {b, c}, {a, c}} {
		if !tt.lo.Less(tt.hi) || tt.hi.Less(tt.lo) {
			t.Errorf("ordering of %v vs %v wrong", tt.lo, tt.hi)
		}
		if tt.lo.Packed() >= tt.hi.Packed() {
			t.Errorf("Packed does not preserve order: %v vs %v", tt.lo, tt.hi)
		}
	}
	if !(storage.Tag{}).IsZero() || a.IsZero() {
		t.Error("IsZero wrong")
	}
}

// TestMWMRSequentialModel drives sequential multi-writer operations
// from two writers against the last-written-value model: with no
// concurrency every read must return exactly the latest write, and
// tags must strictly increase across the whole run. The register is
// key "" of the keyspace.
func TestMWMRSequentialModel(t *testing.T) {
	for _, sys := range []struct {
		name string
		rqs  *core.RQS
	}{
		{"example7", core.Example7RQS()},
		{"five-server", core.FiveServerRQS()},
	} {
		t.Run(sys.name, func(t *testing.T) {
			c := sim.NewStorageCluster(sys.rqs, sim.StorageOptions{Timeout: time.Millisecond, Clients: 3})
			defer c.Stop()
			writers := []*storage.KVClient{c.KVClient(), c.KVClient()}
			rd := c.KVClient()

			r := rand.New(rand.NewSource(11))
			var lastVal string
			var last storage.Tag
			for op := 0; op < 40; op++ {
				if r.Intn(2) == 0 {
					w := writers[r.Intn(len(writers))]
					val := fmt.Sprintf("v%d", op)
					tag, err := w.Put("", val)
					if err != nil {
						t.Fatal(err)
					}
					if !last.Less(tag) {
						t.Fatalf("op %d: tag %v not above previous %v", op, tag, last)
					}
					last, lastVal = tag, val
				} else {
					val, tag, err := rd.Get("")
					if err != nil || tag != last || val != lastVal {
						t.Fatalf("op %d: read (%q, %v, %v), model (%q, %v)", op, val, tag, err, lastVal, last)
					}
				}
			}
		})
	}
}

// roundCounter counts the round-trips each client starts: one MWMR
// request Seq per phase.
type roundCounter struct {
	mu   sync.Mutex
	seqs map[core.ProcessID]map[int64]bool
}

// install makes c's network count every client's phases.
func (rc *roundCounter) install(c *sim.StorageCluster) {
	rc.seqs = make(map[core.ProcessID]map[int64]bool)
	c.Net.SetFilter(func(env transport.Envelope) transport.Verdict {
		var seq int64
		switch req := env.Payload.(type) {
		case storage.MWReadReq:
			seq = req.Seq
		case storage.MWWriteReq:
			seq = req.Seq
		default:
			return transport.Deliver
		}
		rc.mu.Lock()
		defer rc.mu.Unlock()
		if rc.seqs[env.From] == nil {
			rc.seqs[env.From] = make(map[int64]bool)
		}
		rc.seqs[env.From][seq] = true
		return transport.Deliver
	})
}

// rounds returns how many phases client id started since the last call.
func (rc *roundCounter) rounds(id core.ProcessID) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	n := len(rc.seqs[id])
	delete(rc.seqs, id)
	return n
}

// TestMWMRReadFastPath pins the round counts: writes always take two
// round-trips, and an uncontended read — every live server holds the
// same tag — completes in one.
func TestMWMRReadFastPath(t *testing.T) {
	c := sim.NewStorageCluster(core.Example7RQS(), sim.StorageOptions{Timeout: time.Millisecond, Clients: 2})
	defer c.Stop()
	var rc roundCounter
	rc.install(c)
	w, rd := c.KVClient(), c.KVClient()

	if _, err := w.Put("", "a"); err != nil {
		t.Fatal(err)
	}
	if n := rc.rounds(w.WriterID()); n != 2 {
		t.Fatalf("write rounds = %d, want 2", n)
	}
	if val, _, err := rd.Get(""); err != nil || val != "a" {
		t.Fatalf("uncontended read = (%q, %v), want %q", val, err, "a")
	}
	if n := rc.rounds(rd.WriterID()); n != 1 {
		t.Fatalf("uncontended read rounds = %d, want 1", n)
	}
}

// TestMWMRReadWriteback forces the slow path: a value planted at a
// single server (as an in-progress write would leave it) makes the
// reader's maximum non-uniform, so it must write back before
// returning — and a subsequent read sees the written-back value fast.
func TestMWMRReadWriteback(t *testing.T) {
	rqs := core.Example7RQS()
	c := sim.NewStorageCluster(rqs, sim.StorageOptions{Timeout: time.Millisecond, Clients: 3})
	defer c.Stop()
	var rc roundCounter
	rc.install(c)
	w, rd := c.KVClient(), c.KVClient()
	w.Put("", "old")

	// Plant a newer tag at server 0 only, bypassing the write protocol
	// (the state an interrupted writer leaves behind).
	planted := storage.Tag{TS: 99, Writer: 63}
	c.Net.Port(rqs.N()+2).Send(0, storage.MWWriteReq{Seq: 1, Tag: planted, Val: "planted"})
	waitFor(t, func() bool {
		return c.Servers[0].StateSnapshot()[""].MWTag == planted
	})

	// A read whose responding quorum happens to exclude server 0 may
	// legally return the old pair in one round (the planted write is
	// incomplete, so missing it is linearizable); retry until the read
	// hears from server 0 and must take the slow path.
	for attempt := 0; ; attempt++ {
		rc.rounds(rd.WriterID())
		val, tag, err := rd.Get("")
		if err != nil {
			t.Fatal(err)
		}
		if tag == planted {
			if val != "planted" {
				t.Fatalf("read (%q, %v), want the planted pair", val, tag)
			}
			break
		}
		if attempt >= 100 {
			t.Fatalf("read %v after %d attempts, want the planted pair", tag, attempt)
		}
	}
	if n := rc.rounds(rd.WriterID()); n != 2 {
		t.Fatalf("read rounds = %d, want 2 (writeback required)", n)
	}
	// The writeback installed the planted pair at a full quorum; reads
	// converge to the fast path once their quorum is covered by it.
	for attempt := 0; ; attempt++ {
		rd.Get("")
		if rc.rounds(rd.WriterID()) == 1 {
			break
		}
		if attempt >= 100 {
			t.Fatal("post-writeback reads never reached the fast path")
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// mwmrWorkload runs nWriters concurrent writers and nReaders concurrent
// readers for ops operations each under a randomized schedule, records
// every completed operation, and checks the history for atomicity.
// Each client runs on its own port; writer IDs are the port IDs.
func mwmrWorkload(t *testing.T, writers, readers []*storage.KVClient, ops int, crash func()) {
	t.Helper()
	rec := histcheck.NewRecorder()
	var wg sync.WaitGroup
	for i, w := range writers {
		wg.Add(1)
		go func(i int, w *storage.KVClient) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + i)))
			for op := 0; op < ops; op++ {
				time.Sleep(time.Duration(r.Intn(300)) * time.Microsecond)
				inv := time.Now()
				tag, err := w.Put("", fmt.Sprintf("w%d-%d", i, op))
				if err != nil {
					t.Error(err)
					return
				}
				rec.Record(histcheck.Op{
					Kind: histcheck.Write, Client: fmt.Sprintf("w%d", i),
					TS: tag.Packed(), Inv: inv, Resp: time.Now(),
				})
			}
		}(i, w)
	}
	for i, rd := range readers {
		wg.Add(1)
		go func(i int, rd *storage.KVClient) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(200 + i)))
			for op := 0; op < ops; op++ {
				time.Sleep(time.Duration(r.Intn(300)) * time.Microsecond)
				inv := time.Now()
				_, tag, err := rd.Get("")
				if err != nil {
					t.Error(err)
					return
				}
				rec.Record(histcheck.Op{
					Kind: histcheck.Read, Client: fmt.Sprintf("r%d", i),
					TS: tag.Packed(), Inv: inv, Resp: time.Now(),
				})
			}
		}(i, rd)
	}
	if crash != nil {
		crash()
	}
	wg.Wait()
	if v := rec.Check(); v != nil {
		t.Fatal(v)
	}
}

// TestMWMRConcurrentWritersLinearizable is the MWMR linearizability
// test over the in-memory network: four concurrent writers and two
// concurrent readers under randomized schedules, with a safe server
// crash injected mid-run, must produce an atomic history.
func TestMWMRConcurrentWritersLinearizable(t *testing.T) {
	const nWriters, nReaders, ops = 4, 2, 25
	c := sim.NewStorageCluster(core.Example7RQS(), sim.StorageOptions{
		Timeout: time.Millisecond, Clients: nWriters + nReaders,
	})
	defer c.Stop()
	var writers, readers []*storage.KVClient
	for i := 0; i < nWriters; i++ {
		writers = append(writers, c.KVClient())
	}
	for i := 0; i < nReaders; i++ {
		readers = append(readers, c.KVClient())
	}
	mwmrWorkload(t, writers, readers, ops, func() {
		go func() {
			time.Sleep(2 * time.Millisecond)
			c.CrashServers(core.NewSet(5)) // s6: a fully correct quorum remains
		}()
	})
}

// TestMWMRConcurrentWritersLinearizableTCP is the same linearizability
// check over real TCP: three writer processes and one reader on
// distinct client slots against the six Example 7 servers.
func TestMWMRConcurrentWritersLinearizableTCP(t *testing.T) {
	system := core.Example7RQS()
	n := system.N()
	transport.Register(storage.MWReadReq{})
	transport.Register(storage.MWReadAck{})
	transport.Register(storage.MWWriteReq{})
	transport.Register(storage.MWWriteAck{})

	const nWriters, nReaders = 3, 1
	// Every process listens on its own host, bound on an ephemeral port
	// and entered in the address map before any node attaches, so no
	// port is released and re-bound, and no server sends before every
	// address is known.
	addrs := make(map[core.ProcessID]string, n+nWriters+nReaders)
	var nodes []*transport.TCPNode
	for id := 0; id < n+nWriters+nReaders; id++ {
		host, err := transport.NewTCPHost("127.0.0.1:0", addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer host.Close()
		addrs[id] = host.Addr()
		node, err := host.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	for _, node := range nodes[:n] {
		srv := storage.NewServer(node, storage.Hooks{})
		srv.Start()
		defer srv.Stop()
	}

	client := func(node transport.Port) *storage.KVClient {
		return storage.NewKVClient([]storage.KVGroup{{System: system, Port: node}})
	}
	var writers, readers []*storage.KVClient
	for _, node := range nodes[n : n+nWriters] {
		writers = append(writers, client(node))
	}
	for _, node := range nodes[n+nWriters:] {
		readers = append(readers, client(node))
	}
	mwmrWorkload(t, writers, readers, 10, nil)
}
