package expt

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/abd"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/pbft"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
)

// threeClassRQS is the n=8, t=3, r=2, q=1, k=1 threshold system with
// three genuinely distinct quorum classes, used by E5, E7 and E12.
func threeClassRQS() *core.RQS {
	r, err := core.NewThresholdRQS(core.ThresholdParams{N: 8, T: 3, R: 2, Q: 1, K: 1})
	if err != nil {
		panic(err) // statically valid parameters
	}
	return r
}

// E5StorageLatency measures storage rounds per surviving quorum class
// (Theorem 9: the algorithm is (m,QCm)-fast) against the ABD baseline
// (reads always two rounds) on the same crash patterns. The RQS columns
// are counted by sim.Lockstep, so they do not depend on the scheduler.
func E5StorageLatency() *Table {
	tbl := &Table{
		ID:      "E5",
		Title:   "Storage best-case latency in rounds (RQS n=8 t=3 r=2 q=1 k=1 vs ABD majority n=8)",
		Columns: []string{"surviving class", "crashed", "RQS write", "RQS read", "ABD write", "ABD read"},
	}
	const timeout = 2 * time.Millisecond
	cases := []struct {
		label string
		crash core.Set
	}{
		{"class 1 (7 alive)", core.NewSet(7)},
		{"class 2 (6 alive)", core.NewSet(6, 7)},
		{"class 3 (5 alive)", core.NewSet(5, 6, 7)},
	}
	for _, tc := range cases {
		// RQS storage, rounds counted by the lockstep driver.
		st := sim.NewLockstepStorage(threeClassRQS(), &sim.Lockstep{Crashed: tc.crash, Seed: 1}, nil)
		w, r := st.Writer(), st.Reader(storage.ReaderOptions{})
		st.Start(w, w.StartWrite("v"))
		st.Run()
		st.Start(r, r.StartRead())
		st.Run()

		// ABD baseline on 8 servers (majority 5): survives ≤ 3 crashes.
		bw, br := runABD(8, tc.crash, timeout)
		tbl.AddRow(tc.label, tc.crash, w.Result().Rounds, r.Result().Rounds, bw, br)
	}
	tbl.Notes = append(tbl.Notes,
		"shape matches §3: RQS degrades 1→2→3 rounds with the surviving class; ABD reads pay 2 rounds regardless",
		"reads here follow a complete write, so the BCD lets even class-3 reads finish in 1 round;",
		"the 2- and 3-round read paths appear when reads race incomplete writes (see E4 and E6)")
	return tbl
}

func runABD(n int, crash core.Set, timeout time.Duration) (writeRounds, readRounds int) {
	p := abd.Classic(n, timeout)
	net := transport.NewNetwork(n + 2)
	defer net.Close()
	var servers []*abd.Server
	for i := 0; i < n; i++ {
		s := abd.NewServer(net.Port(i))
		s.Start()
		servers = append(servers, s)
	}
	defer func() {
		for _, s := range servers {
			s.Stop()
		}
	}()
	for _, id := range crash.Members() {
		net.Crash(id)
	}
	w := abd.NewWriter(p, net.Port(n))
	r := abd.NewReader(p, net.Port(n+1))
	wres := w.Write("v")
	rres := r.Read()
	return wres.Rounds, rres.Rounds
}

// E7ConsensusLatency measures learning latency in message delays per
// surviving class (Definition 4: (m,QCm)-fast means m+1 delays) against
// the PBFT-style baseline, which always takes 4. Both columns are
// counted by sim.Lockstep, so the table does not depend on the
// scheduler: the same code gives the same bytes on every run.
func E7ConsensusLatency() *Table {
	tbl := &Table{
		ID:      "E7",
		Title:   "Consensus best-case latency in message delays (RQS n=8 t=3 r=2 q=1 k=1 vs PBFT n=7)",
		Columns: []string{"surviving class", "crashed", "RQS delays", "PBFT delays"},
	}
	cases := []struct {
		label string
		crash core.Set
	}{
		{"class 1 (7 alive)", core.NewSet(7)},
		{"class 2 (6 alive)", core.NewSet(6, 7)},
		{"class 3 (5 alive)", core.NewSet(5, 6, 7)},
	}
	for _, tc := range cases {
		c, err := sim.NewConsensusCluster(threeClassRQS(), sim.ConsensusOptions{Proposers: 1, Learners: 1})
		if err != nil {
			panic(err)
		}
		c.Net.Crashed, c.Net.Seed = tc.crash, 1
		c.Proposers[0].Propose("v")
		c.Run()

		// PBFT baseline: n=7 tolerates 2 crashes; cap the crash set.
		var pbCrash core.Set
		for _, id := range tc.crash.Members() {
			if id < 7 && pbCrash.Count() < 2 {
				pbCrash = pbCrash.Add(id)
			}
		}
		ls := &sim.Lockstep{Crashed: pbCrash, Seed: 1}
		pb := pbft.NewCluster(7, 1, ls.Port)
		pb.Propose("v")
		pbDelays := 0
		ls.Run(func(env transport.Envelope) {
			if _, ok := pb.Deliver(env); ok {
				pbDelays = ls.Round()
			}
		})
		tbl.AddRow(tc.label, tc.crash, c.Learned[0].Delays, pbDelays)
	}
	tbl.Notes = append(tbl.Notes,
		"shape matches §4: RQS learns in 2/3/4 delays by class; the no-fast-path baseline is pinned at 4",
		"delays are lockstep rounds (sim.Lockstep); 0 would mean the learner never learned")
	return tbl
}

// E10ViewChange runs the Election module and the consult phase
// (Figures 14-15) under sim.Lockstep, over seeds 1-20 of the in-round
// delivery order: two proposers contending in view 0, and every view-0
// prepare lost, so that only a view change can decide. Per scenario it
// reports the values learned, whether each seed's learners agreed, the
// view the first learner learned in and the round the last one learned
// in (message delays; the suspect timer is 5Δ = 5 rounds, doubling).
func E10ViewChange() *Table {
	tbl := &Table{
		ID:      "E10",
		Title:   "Election module: agreement under contention and leader failure (Example 7 RQS, seeds 1-20)",
		Columns: []string{"scenario", "learned", "agreement", "view", "delays"},
	}
	lostView0 := func(env transport.Envelope) bool {
		m, ok := env.Payload.(consensus.PrepareMsg)
		return ok && m.View == consensus.InitView
	}
	for _, sc := range []struct {
		label string
		drop  func(transport.Envelope) bool
	}{
		{"two proposers, contention in view 0", nil},
		{"view-0 prepares lost, view change", lostView0},
	} {
		learned := map[consensus.Value]bool{}
		agree := true
		var views, delays []int
		for seed := int64(1); seed <= 20; seed++ {
			c, err := sim.NewConsensusCluster(core.Example7RQS(), sim.ConsensusOptions{})
			if err != nil {
				panic(err)
			}
			c.Net.Drop, c.Net.Seed = sc.drop, seed
			c.Proposers[0].Propose("zero")
			c.Proposers[1].Propose("one")
			if len(c.Run()) > 0 {
				learned["timeout"] = true
				continue
			}
			first, last := c.Learned[0], 0
			for _, l := range c.Learned {
				learned[l.V] = true
				agree = agree && l.V == c.Learned[0].V
				if l.Delays < first.Delays {
					first = l
				}
				last = max(last, l.Delays)
			}
			views = append(views, first.View)
			delays = append(delays, last)
		}
		vs := make([]string, 0, len(learned))
		for v := range learned {
			vs = append(vs, v)
		}
		sort.Strings(vs)
		tbl.AddRow(sc.label, strings.Join(vs, "/"), agree, rangeOf(views), rangeOf(delays))
	}
	tbl.Notes = append(tbl.Notes,
		"eventual synchrony: the doubling suspect timeout (Figure 14) guarantees progress after GST",
		"view and delays are min-max over the seeds; the first learner learns through update messages, which carry their view")
	return tbl
}

// rangeOf renders the range of a column over seeds: "lo" or "lo-hi".
func rangeOf(xs []int) string {
	if len(xs) == 0 {
		return "-"
	}
	lo, hi := slices.Min(xs), slices.Max(xs)
	if lo == hi {
		return fmt.Sprint(lo)
	}
	return fmt.Sprintf("%d-%d", lo, hi)
}
