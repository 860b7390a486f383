package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

func drawOps(seed int64, n int) []kvOp {
	table := sim.KeyTable(keyTableSize)
	g := newOpGen(seed, 3, opMix{get: 45, put: 45}, 128, table, newValueGen(seed))
	ops := make([]kvOp, n)
	for i := range ops {
		ops[i] = g.next()
	}
	return ops
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := drawOps(7, 5000), drawOps(7, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different op/key/value sequences")
	}
	if reflect.DeepEqual(a, drawOps(8, 5000)) {
		t.Fatal("different seeds produced the same sequence")
	}
	if !reflect.DeepEqual(poissonArrivals(7, 5000, time.Second), poissonArrivals(7, 5000, time.Second)) {
		t.Fatal("same seed produced different arrival schedules")
	}
}

func TestMixAndZipfHead(t *testing.T) {
	table := sim.KeyTable(keyTableSize)
	g := newOpGen(1, 0, opMix{get: 95, put: 5, zipfGets: true}, 128, table, newValueGen(1))
	const n = 200000
	gets, head := 0, 0
	for i := 0; i < n; i++ {
		o := g.next()
		if o.kind == opCAS {
			t.Fatal("a 95/5 mix drew a CAS")
		}
		if o.kind == opGet {
			gets++
			if o.key == table[0] {
				head++
			}
		}
	}
	if share := float64(gets) / n; share < 0.94 || share > 0.96 {
		t.Errorf("Get share %.3f, want 0.95±0.01", share)
	}
	// zipf(s=1.2) over 10000 keys gives the hottest key ≈21% of draws
	// (pinned by sim.TestZipfKeysHead).
	if share := float64(head) / float64(gets); share < 0.18 || share > 0.24 {
		t.Errorf("zipf top-1 share %.3f, want 0.21±0.03", share)
	}
}

func TestPoissonMeanRate(t *testing.T) {
	const rate, dur = 5000.0, 10 * time.Second
	at := poissonArrivals(3, rate, dur)
	if got := float64(len(at)) / dur.Seconds(); got < rate*0.97 || got > rate*1.03 {
		t.Errorf("mean rate %.0f/s, want %.0f±3%%", got, rate)
	}
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] {
			t.Fatal("arrivals are not in time order")
		}
	}
	if last := at[len(at)-1]; last >= dur {
		t.Errorf("arrival at %v is outside the %v step", last, dur)
	}
}

func TestValuesAreUniqueAndSelfCertifying(t *testing.T) {
	g := newValueGen(5)
	seen := make(map[string]bool)
	for client := 0; client < 4; client++ {
		for seq := -3; seq < 500; seq++ {
			v := g.value("k00042", client, seq, 128)
			if len(v) != 128 {
				t.Fatalf("value of %d bytes, want 128", len(v))
			}
			if seen[v] {
				t.Fatalf("client %d seq %d repeats an earlier value", client, seq)
			}
			seen[v] = true
			if !g.check("k00042", v, 128) {
				t.Fatalf("generated value does not pass its own check: %q", v)
			}
		}
	}
	v := g.value("k00042", 1, 9, 128)
	if g.check("k00043", v, 128) {
		t.Error("a value written for one key passed as another key's")
	}
	if g.check("k00042", v[:100]+"X"+v[101:], 128) {
		t.Error("a corrupted value passed the check")
	}
	if newValueGen(6).check("k00042", v, 128) {
		t.Error("a value of another seed's generator passed the check")
	}
}
