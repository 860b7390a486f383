// Command rqs-demo runs the RQS storage over real TCP, one process per
// role — the closest thing to the paper's deployment of commodity
// storage servers. Each server hosts both registers: the SWMR atomic
// storage of Section 3 and the multi-writer (MWMR) variant.
//
// Start the six Example 7 servers, then drive writes and reads:
//
//	rqs-demo -role server -id 0 &
//	... (ids 1..5) ...
//	rqs-demo -role write -value hello
//	rqs-demo -role read
//
// # Multi-writer demo
//
// The MWMR register accepts concurrent writers: each writer process
// takes its own client slot (-id picks one of the four slots 6..9;
// default 6) and its slot ID becomes the writer ID inside its tags, so
// writes from different slots never collide:
//
//	rqs-demo -role mwmr-write -id 6 -value from-w6 &
//	rqs-demo -role mwmr-write -id 7 -value from-w7 &
//	rqs-demo -role mwmr-read  -id 8
//
// The mwmr roles are kv-put and kv-get on the register at key "". A
// multi-writer write always uses two round-trips (read phase to
// discover the maximum tag, then the write); an uncontended read
// completes in one.
//
// # Keyed KV demo
//
// The same servers host a full keyspace of per-key MWMR registers (the
// single-register roles above all live at key ""). The kv roles drive
// it with Get/Put/CAS:
//
//	rqs-demo -role kv-put -key user:42 -value alice
//	rqs-demo -role kv-get -key user:42
//	rqs-demo -role kv-cas -key user:42 -expect-ts 1 -expect-writer 6 -value bob
//
// kv-get prints the version (ts, writer) that committed the value;
// kv-cas installs its value only if the key's version still equals
// (-expect-ts, -expect-writer) — at most one concurrent CAS per
// version succeeds. The zero version (0, 0) CASes against an unwritten
// key.
//
// All processes default to localhost ports 7700+id; override with
// -addrs host:port,host:port,... (servers first, then the client
// slots).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/transport"
)

// clientSlots is how many client process IDs (above the n servers) the
// default address map reserves, so several concurrent MWMR writers can
// run out of the box.
const clientSlots = 4

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rqs-demo:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rqs-demo", flag.ContinueOnError)
	var (
		role    = fs.String("role", "", "server | write | read | mwmr-write | mwmr-read | kv-put | kv-get | kv-cas")
		id      = fs.Int("id", -1, "process id: server id for -role server, client slot otherwise")
		value   = fs.String("value", "hello", "value to write (role=write, mwmr-write, kv-put, kv-cas)")
		key     = fs.String("key", "demo", "key to operate on (kv roles)")
		expTS   = fs.Int64("expect-ts", 0, "expected version timestamp (role=kv-cas)")
		expWr   = fs.Int("expect-writer", 0, "expected version writer id (role=kv-cas)")
		addrsCS = fs.String("addrs", "", "comma-separated addresses; default localhost:7700+i")
		timeout = fs.Duration("timeout", 50*time.Millisecond, "round timer (2Δ); SWMR roles only — mwmr phases are pure quorum waits")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	system := core.Example7RQS()
	n := system.N()
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

	addrs := make(map[core.ProcessID]string, n+clientSlots)
	if *addrsCS != "" {
		for i, a := range strings.Split(*addrsCS, ",") {
			addrs[i] = strings.TrimSpace(a)
		}
	} else {
		for i := 0; i < n+clientSlots; i++ {
			addrs[i] = fmt.Sprintf("127.0.0.1:%d", 7700+i)
		}
	}

	// clientID validates and defaults the -id flag for client roles.
	clientID := func() (core.ProcessID, error) {
		if *id < 0 {
			return n, nil // first client slot
		}
		if *id < n {
			return 0, fmt.Errorf("client slot id must be ≥ %d (ids 0..%d are servers)", n, n-1)
		}
		if _, ok := addrs[*id]; !ok {
			return 0, fmt.Errorf("no address for client slot %d (add it to -addrs)", *id)
		}
		return *id, nil
	}

	// The mwmr roles are kv-put and kv-get on the register at key "".
	switch *role {
	case "mwmr-write":
		*role, *key = "kv-put", ""
	case "mwmr-read":
		*role, *key = "kv-get", ""
	}
	switch *role {
	case "server":
		if *id < 0 {
			*id = 0
		}
		if *id >= n {
			return fmt.Errorf("server id must be 0..%d", n-1)
		}
		node, err := transport.NewTCPNode(*id, addrs)
		if err != nil {
			return err
		}
		defer node.Close()
		srv := storage.NewServer(node, storage.Hooks{})
		srv.Start()
		defer srv.Stop()
		fmt.Printf("server %d (s%d) listening on %s — ^C to stop\n", *id, *id+1, node.Addr())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		return nil

	case "write":
		cid, err := clientID()
		if err != nil {
			return err
		}
		node, err := transport.NewTCPNode(cid, addrs)
		if err != nil {
			return err
		}
		defer node.Close()
		// A fresh writer process must resume past the highest timestamp
		// already in the storage (SWMR: timestamps never repeat).
		cur := storage.NewReader(system, node, *timeout).Read()
		w := storage.NewWriter(system, node, *timeout)
		w.SetTimestamp(cur.TS)
		res := w.Write(*value)
		fmt.Printf("wrote %q with timestamp %d in %d round(s)\n", *value, res.TS, res.Rounds)
		return nil

	case "read":
		cid, err := clientID()
		if err != nil {
			return err
		}
		node, err := transport.NewTCPNode(cid, addrs)
		if err != nil {
			return err
		}
		defer node.Close()
		r := storage.NewReader(system, node, *timeout)
		res := r.Read()
		val := res.Val
		if val == storage.NoValue {
			val = "⊥"
		}
		fmt.Printf("read %q (timestamp %d) in %d round(s)\n", val, res.TS, res.Rounds)
		return nil

	case "kv-put", "kv-get", "kv-cas":
		cid, err := clientID()
		if err != nil {
			return err
		}
		node, err := transport.NewTCPNode(cid, addrs)
		if err != nil {
			return err
		}
		defer node.Close()
		kv := storage.NewKVClient([]storage.KVGroup{{System: system, Port: node}})
		switch *role {
		case "kv-put":
			ver, err := kv.Put(*key, *value)
			if err != nil {
				return err
			}
			fmt.Printf("kv put %s=%q at version (ts=%d, writer=%d)\n",
				*key, *value, ver.TS, ver.Writer)
		case "kv-get":
			val, ver, err := kv.Get(*key)
			if err != nil {
				return err
			}
			if val == storage.NoValue {
				val = "⊥"
			}
			fmt.Printf("kv get %s=%q (version ts=%d, writer=%d)\n",
				*key, val, ver.TS, ver.Writer)
		case "kv-cas":
			expect := storage.Version{TS: *expTS, Writer: core.ProcessID(*expWr)}
			res, err := kv.CAS(*key, expect, *value)
			var conflict *storage.ErrCASConflict
			if err != nil && !errors.As(err, &conflict) {
				return err
			}
			if res.OK {
				fmt.Printf("kv cas %s=%q applied at version (ts=%d, writer=%d)\n",
					*key, *value, res.Version.TS, res.Version.Writer)
			} else {
				val := res.Val
				if val == storage.NoValue {
					val = "⊥"
				}
				fmt.Printf("kv cas %s failed: version is now (ts=%d, writer=%d) holding %q\n",
					*key, res.Version.TS, res.Version.Writer, val)
			}
		}
		return nil
	}
	return fmt.Errorf("unknown -role %q (want server, write, read, mwmr-write, mwmr-read, kv-put, kv-get or kv-cas)", *role)
}
