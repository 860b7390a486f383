package expt

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/storage"
)

func TestE1GreedyViolatesSafeDoesNot(t *testing.T) {
	_, results := E1Fig1()
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	greedy, safe := results[0], results[1]
	if greedy.Violation == "" {
		t.Error("greedy 3-fast algorithm should violate atomicity (Figure 1)")
	}
	if greedy.Rd1.Rounds != 1 {
		t.Errorf("greedy rd rounds = %d, want 1", greedy.Rd1.Rounds)
	}
	if safe.Violation != "" {
		t.Errorf("safe 4-fast variant violated atomicity: %s", safe.Violation)
	}
	if safe.Rd2.Val != "v" {
		t.Errorf("safe rd' = %q, want v", safe.Rd2.Val)
	}
}

func TestE2IntersectionCounts(t *testing.T) {
	tbl := E2Fig2()
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// (3,3,3) must admit empty triple intersections; (4,4,3) must not.
	if tbl.Rows[0][2] == "0" {
		t.Error("(3,3,3) should have empty intersections")
	}
	if tbl.Rows[1][2] != "0" {
		t.Errorf("(4,4,3) empty intersections = %s, want 0", tbl.Rows[1][2])
	}
	if tbl.Rows[1][3] == "0" {
		t.Error("(4,4,3) min intersection should be ≥ 1")
	}
}

func TestE3VerifiesFig3(t *testing.T) {
	tbl := E3Fig3()
	for _, row := range tbl.Rows {
		if row[3] != "valid RQS" {
			t.Errorf("Fig3 verification failed: %v", row)
		}
	}
}

func TestE4Fig4Executions(t *testing.T) {
	tbl := E4Fig4()
	for _, row := range tbl.Rows {
		if strings.Contains(row[4], "VIOLATED") || strings.Contains(row[4], "UNEXPECTED") {
			t.Errorf("E4 row failed: %v", row)
		}
	}
}

func TestE4Deterministic(t *testing.T) {
	if a, b := E4Fig4().Format(), E4Fig4().Format(); a != b {
		t.Errorf("E4 differs between runs:\n%s\n%s", a, b)
	}
}

func TestE5LatencyShape(t *testing.T) {
	tbl := E5StorageLatency()
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for i, row := range tbl.Rows {
		wantRounds := strconv.Itoa(i + 1)
		if row[2] != wantRounds {
			t.Errorf("class %d RQS write rounds = %s, want %s", i+1, row[2], wantRounds)
		}
		if row[3] > wantRounds {
			t.Errorf("class %d RQS read rounds = %s, want ≤ %s", i+1, row[3], wantRounds)
		}
		if row[5] != "2" {
			t.Errorf("ABD read rounds = %s, want 2", row[5])
		}
	}
}

func TestE6Theorem3Shape(t *testing.T) {
	_, outcomes := E6Theorem3()
	broken, valid := outcomes[0], outcomes[1]
	if broken.Rd1.Val != "v1" {
		t.Errorf("broken rd1 = %+v, want v1", broken.Rd1)
	}
	if broken.Violation == "" {
		t.Error("broken system should violate atomicity under the Theorem 3 schedule")
	}
	if valid.Violation != "" {
		t.Errorf("valid system violated atomicity: %s", valid.Violation)
	}
	if valid.Rd1.Val != "v1" {
		t.Errorf("valid rd1 = %+v, want v1", valid.Rd1)
	}
	if broken.Rd2Blocked || broken.Rd2.Val != storage.NoValue {
		t.Errorf("broken rd2 = %+v (blocked %v), want ⊥", broken.Rd2, broken.Rd2Blocked)
	}
	if !valid.Rd2Blocked {
		t.Errorf("valid rd2 = %+v, want blocked", valid.Rd2)
	}
}

func TestE6Deterministic(t *testing.T) {
	a, _ := E6Theorem3()
	b, _ := E6Theorem3()
	if a.Format() != b.Format() {
		t.Errorf("E6 differs between runs:\n%s\n%s", a.Format(), b.Format())
	}
}

func TestE7LatencyShape(t *testing.T) {
	tbl := E7ConsensusLatency()
	wantRQS := []string{"2", "3", "4"}
	for i, row := range tbl.Rows {
		if row[2] != wantRQS[i] {
			t.Errorf("class %d RQS delays = %s, want %s", i+1, row[2], wantRQS[i])
		}
		if row[3] != "4" {
			t.Errorf("PBFT delays = %s, want 4", row[3])
		}
	}
}

func TestE7Deterministic(t *testing.T) {
	if a, b := E7ConsensusLatency().Format(), E7ConsensusLatency().Format(); a != b {
		t.Errorf("E7 differs between runs:\n%s\n%s", a, b)
	}
}

func TestE8Theorem6Shape(t *testing.T) {
	_, outcomes := E8Theorem6()
	broken, valid := outcomes[0], outcomes[1]
	if !broken.AgreementViolated {
		t.Errorf("broken system should violate agreement; choose = %+v", broken.Choose)
	}
	if valid.AgreementViolated {
		t.Error("valid system violated agreement")
	}
	if !valid.Choose.Abort && valid.Choose.V != "1" {
		t.Errorf("valid choose = %+v, want abort or the decided value 1", valid.Choose)
	}
}

func TestE9TableHasKnownInstances(t *testing.T) {
	tbl := E9MinimalN()
	var sawPBFT, sawFaB bool
	for _, row := range tbl.Rows {
		switch row[5] {
		case "PBFT n=3t+1":
			sawPBFT = true
		case "FaB n=5t+1 (Martin-Alvisi)":
			sawFaB = true
		}
	}
	if !sawPBFT || !sawFaB {
		t.Error("E9 should annotate the known PBFT and FaB instantiations")
	}
}

func TestE10Converges(t *testing.T) {
	tbl := E10ViewChange()
	for _, row := range tbl.Rows {
		if strings.Contains(row[1], "timeout") {
			t.Errorf("E10 scenario %q did not converge on every seed", row[0])
		}
		if row[2] != "true" {
			t.Errorf("E10 scenario %q: agreement = %s", row[0], row[2])
		}
	}
	// The view-change row must lose view 0 on every seed: its lowest
	// deciding view is at least 1.
	lo, _, _ := strings.Cut(tbl.Rows[1][3], "-")
	if v, err := strconv.Atoi(lo); err != nil || v < 1 {
		t.Errorf("E10 view-change row decided in view %s, want ≥ 1", tbl.Rows[1][3])
	}
}

func TestE10Deterministic(t *testing.T) {
	if a, b := E10ViewChange().Format(), E10ViewChange().Format(); a != b {
		t.Errorf("E10 differs between runs:\n%s\n%s", a, b)
	}
}

func TestE12Monotone(t *testing.T) {
	tbl := E12Availability()
	prev := 2.0
	for _, row := range tbl.Rows {
		a1, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if a1 > prev {
			t.Errorf("class-1 availability should fall with p: %v", row)
		}
		prev = a1
	}
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{
		ID: "X", Title: "demo",
		Columns: []string{"a", "bbbb"},
		Notes:   []string{"hello"},
	}
	tbl.AddRow(1, "y")
	out := tbl.Format()
	for _, want := range []string{"== X — demo ==", "a", "bbbb", "1", "y", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q in:\n%s", want, out)
		}
	}
}
