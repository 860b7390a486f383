package rqs

import (
	"testing"
	"time"
)

func TestFacadeStorageQuickstart(t *testing.T) {
	c := NewStorage(FiveServerRQS(), StorageOptions{Timeout: 2 * time.Millisecond})
	defer c.Stop()
	w, r := c.Writer(), c.Reader()
	// A wall-clock smoke test: round counts are the lockstep tests' job
	// (storage's TestBestCaseLatenciesByClass).
	w.Write("hello")
	if got := r.Read(); got.Val != "hello" {
		t.Errorf("read = %+v", got)
	}
}

func TestFacadeConsensusQuickstart(t *testing.T) {
	c, err := NewConsensus(Example7RQS(), ConsensusOptions{Learners: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Proposers[0].Propose("x")
	if unlearned := c.Run(); len(unlearned) > 0 || c.Learned[0].V != "x" {
		t.Errorf("learn = %+v (unlearned %v), want x", c.Learned[0], unlearned)
	}
}

func TestFacadeVerification(t *testing.T) {
	for _, sys := range []*System{
		MajorityRQS(5), ByzantineThirdRQS(4), Fig3RQS(), Example7RQS(), FiveServerRQS(),
	} {
		if err := sys.Verify(); err != nil {
			t.Errorf("%v: %v", sys, err)
		}
	}
	if _, err := PBFTStyleRQS(1); err != nil {
		t.Errorf("PBFTStyleRQS: %v", err)
	}
	if n := MinimalN(1, 1, 0, 1); n != 4 {
		t.Errorf("MinimalN = %d", n)
	}
}

func TestFacadeAnalysis(t *testing.T) {
	if a := Availability(FiveServerRQS(), Class3, 0); a != 1 {
		t.Errorf("availability at p=0 = %v", a)
	}
	if l := Load(MajorityRQS(3), Class3); l <= 0 {
		t.Errorf("load = %v", l)
	}
	if e, live := ExpectedRounds(FiveServerRQS(), 0); e != 1 || live != 1 {
		t.Errorf("expected rounds = %v live %v", e, live)
	}
}

func TestFacadeSetsAndAdversaries(t *testing.T) {
	s := NewSet(0, 2)
	if !s.Contains(2) || s.Count() != 2 {
		t.Errorf("set ops broken: %v", s)
	}
	adv := NewStructured(NewSet(0, 1))
	if !IsBasic(NewSet(0, 2), adv) || IsLarge(NewSet(0, 1), adv) {
		t.Error("adversary predicates broken")
	}
	if FullSet(3).Count() != 3 {
		t.Error("FullSet broken")
	}
	if th := NewThreshold(4, 1); !th.Contains(NewSet(2)) {
		t.Error("threshold adversary broken")
	}
}

func TestFacadeCustomDeployment(t *testing.T) {
	// Hand-assembled deployment over raw ports, as a TCP user would do.
	system := Example7RQS()
	net := NewNetwork(system.N() + 2)
	defer net.Close()
	var stops []func()
	for id := 0; id < system.N(); id++ {
		srv := NewStorageServer(net.Port(id))
		srv.Start()
		stops = append(stops, srv.Stop)
	}
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	w := NewStorageWriter(system, net.Port(6), 2*time.Millisecond)
	r := NewStorageReader(system, net.Port(7), 2*time.Millisecond)
	w.Write("custom")
	if res := r.Read(); res.Val != "custom" {
		t.Errorf("read = %+v", res)
	}
}
