// Byzantine storage: the Figure 4 scenario as a running program. Six
// servers under the Example 7 general adversary implement the atomic
// SWMR storage; server s1 turns Byzantine and forges its replies, a
// server crashes, and reads stay both correct and fast-ish.
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	rqs "repro"
	"repro/internal/adversary"
	"repro/internal/storage"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	system := rqs.Example7RQS()
	if err := system.Verify(); err != nil {
		return err
	}

	// s1 (ID 0) turns Byzantine on demand: behind an adversary wrapper
	// on its port, its read acks claim an enormous timestamp with a
	// bogus value.
	var evil atomic.Bool
	forged := []storage.TSRow{{TS: 1 << 20, Row: storage.Row{{Pair: storage.Pair{TS: 1 << 20, Val: "forged!"}}}}}
	forge := func(p rqs.Port) rqs.Port {
		return adversary.ForgeReadAcks(p, func(_ rqs.ProcessID, rows []storage.TSRow) []storage.TSRow {
			if evil.Load() {
				return forged
			}
			return rows
		})
	}
	cluster := rqs.NewStorage(system, rqs.StorageOptions{
		Timeout:   3 * time.Millisecond,
		Clients:   2,
		Byzantine: map[rqs.ProcessID]adversary.Wrap{0: forge},
	})
	defer cluster.Stop()
	w, r := cluster.Writer(), cluster.Reader()

	// Honest phase: single-round operations through the class-1 quorum.
	res := w.Write("block-42")
	fmt.Printf("write while all honest: %d round(s)\n", res.Rounds)

	// s1 turns Byzantine. The reader's safe() predicate demands a basic
	// subset of witnesses for every candidate, so one liar — however
	// loud — cannot fabricate a value.
	evil.Store(true)
	got := r.Read()
	fmt.Printf("read with s1 Byzantine: %q (ts=%d) in %d round(s)\n", got.Val, got.TS, got.Rounds)
	if got.Val != "block-42" {
		return fmt.Errorf("fabricated value leaked: %q", got.Val)
	}

	// Now also crash s6: the class-1 quorum is gone, the class-2 quorum
	// Q2 = {s1..s5} still responds, and operations degrade gracefully.
	cluster.CrashServers(rqs.NewSet(5))
	res = w.Write("block-43")
	got = r.Read()
	fmt.Printf("after s6 crash: write %d round(s), read %q in %d round(s)\n",
		res.Rounds, got.Val, got.Rounds)
	if got.Val != "block-43" {
		return fmt.Errorf("lost the write under degradation: %q", got.Val)
	}
	fmt.Println("atomicity held under a Byzantine server plus a crash — as Section 3 promises")
	return nil
}
