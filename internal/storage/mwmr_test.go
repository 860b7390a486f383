package storage_test

import (
	"fmt"
	"math/rand"
	"net"
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
// tags must strictly increase across the whole run.
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
			writers := []*storage.MWWriter{c.MWWriter(), c.MWWriter()}
			rd := c.MWReader()

			r := rand.New(rand.NewSource(11))
			var last storage.MWResult
			var prevTag storage.Tag
			for op := 0; op < 40; op++ {
				if r.Intn(2) == 0 {
					w := writers[r.Intn(len(writers))]
					val := fmt.Sprintf("v%d", op)
					last = w.Write(val)
					if !prevTag.Less(last.Tag) {
						t.Fatalf("op %d: tag %v not above previous %v", op, last.Tag, prevTag)
					}
					prevTag = last.Tag
				} else {
					res := rd.Read()
					if res.Tag != last.Tag || res.Val != last.Val {
						t.Fatalf("op %d: read %+v, model %+v", op, res, last)
					}
				}
			}
		})
	}
}

// TestMWMRReadFastPath pins the round counts: writes always take two
// round-trips, and an uncontended read — every live server holds the
// same tag — completes in one.
func TestMWMRReadFastPath(t *testing.T) {
	c := sim.NewStorageCluster(core.Example7RQS(), sim.StorageOptions{Timeout: time.Millisecond, Clients: 2})
	defer c.Stop()
	w, rd := c.MWWriter(), c.MWReader()

	if res := w.Write("a"); res.Rounds != 2 {
		t.Fatalf("write rounds = %d, want 2", res.Rounds)
	}
	if res := rd.Read(); res.Rounds != 1 || res.Val != "a" {
		t.Fatalf("uncontended read = %+v, want 1 round of %q", res, "a")
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
	w, rd := c.MWWriter(), c.MWReader()
	w.Write("old")

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
	var res storage.MWResult
	for attempt := 0; ; attempt++ {
		res = rd.Read()
		if res.Tag == planted {
			break
		}
		if attempt >= 100 {
			t.Fatalf("read %+v after %d attempts, want the planted pair", res, attempt)
		}
	}
	if res.Val != "planted" {
		t.Fatalf("read %+v, want the planted pair", res)
	}
	if res.Rounds != 2 {
		t.Fatalf("read rounds = %d, want 2 (writeback required)", res.Rounds)
	}
	// The writeback installed the planted pair at a full quorum; reads
	// converge to the fast path once their quorum is covered by it.
	for attempt := 0; ; attempt++ {
		if res := rd.Read(); res.Rounds == 1 {
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
func mwmrWorkload(t *testing.T, writers []*storage.MWWriter, readers []*storage.MWReader, ops int, crash func()) {
	t.Helper()
	rec := histcheck.NewRecorder()
	var wg sync.WaitGroup
	for i, w := range writers {
		wg.Add(1)
		go func(i int, w *storage.MWWriter) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + i)))
			for op := 0; op < ops; op++ {
				time.Sleep(time.Duration(r.Intn(300)) * time.Microsecond)
				inv := time.Now()
				res := w.Write(fmt.Sprintf("w%d-%d", i, op))
				rec.Record(histcheck.Op{
					Kind: histcheck.Write, Client: fmt.Sprintf("w%d", i),
					TS: res.Tag.Packed(), Inv: inv, Resp: time.Now(),
				})
			}
		}(i, w)
	}
	for i, rd := range readers {
		wg.Add(1)
		go func(i int, rd *storage.MWReader) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(200 + i)))
			for op := 0; op < ops; op++ {
				time.Sleep(time.Duration(r.Intn(300)) * time.Microsecond)
				inv := time.Now()
				res := rd.Read()
				rec.Record(histcheck.Op{
					Kind: histcheck.Read, Client: fmt.Sprintf("r%d", i),
					TS: res.Tag.Packed(), Inv: inv, Resp: time.Now(),
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
	var writers []*storage.MWWriter
	for i := 0; i < nWriters; i++ {
		writers = append(writers, c.MWWriter())
	}
	var readers []*storage.MWReader
	for i := 0; i < nReaders; i++ {
		readers = append(readers, c.MWReader())
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
	addrs := make(map[core.ProcessID]string, n+nWriters+nReaders)
	for i := 0; i < n; i++ {
		addrs[i] = "127.0.0.1:0"
	}
	// Client slots need fixed addresses before the server nodes start.
	for i := 0; i < nWriters+nReaders; i++ {
		addrs[n+i] = reservePort(t)
	}
	var nodes []*transport.TCPNode
	for i := 0; i < n; i++ {
		node, err := transport.NewTCPNode(i, addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		addrs[i] = node.Addr()
		nodes = append(nodes, node)
	}
	for _, node := range nodes {
		srv := storage.NewServer(node, storage.Hooks{})
		srv.Start()
		defer srv.Stop()
	}

	var writers []*storage.MWWriter
	for i := 0; i < nWriters; i++ {
		node, err := transport.NewTCPNode(n+i, addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		writers = append(writers, storage.NewMWWriter(system, node))
	}
	var readers []*storage.MWReader
	for i := 0; i < nReaders; i++ {
		node, err := transport.NewTCPNode(n+nWriters+i, addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		readers = append(readers, storage.NewMWReader(system, node))
	}
	mwmrWorkload(t, writers, readers, 10, nil)
}

// reservePort grabs a free loopback port and releases it for a client
// node to bind (SO_REUSEADDR makes the immediate rebind safe).
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}
