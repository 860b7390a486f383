package expt

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/E*.golden from the current tables")

// TestGolden renders every experiment table and compares it byte for
// byte with testdata/<ID>.golden, the reproduction as committed. A
// change to a table prints the unified diff of that table; regenerate
// the files with `go test ./internal/expt -run TestGolden -update` and
// list the change where the change is recorded.
func TestGolden(t *testing.T) {
	for id, run := range Experiments {
		t.Run(id, func(t *testing.T) {
			got := run().Format()
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("%s differs from %s:\n%s", id, path, unifiedDiff(path, id, string(want), got))
			}
		})
	}
}

// unifiedDiff renders the line diff of a and b as one unified hunk over
// their longest common subsequence.
func unifiedDiff(nameA, nameB, a, b string) string {
	x, y := strings.SplitAfter(a, "\n"), strings.SplitAfter(b, "\n")
	// lcs[i][j] is the LCS length of x[i:] and y[j:].
	lcs := make([][]int, len(x)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(y)+1)
	}
	for i := len(x) - 1; i >= 0; i-- {
		for j := len(y) - 1; j >= 0; j-- {
			if x[i] == y[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	var out strings.Builder
	fmt.Fprintf(&out, "--- %s\n+++ %s\n@@ -1,%d +1,%d @@\n", nameA, nameB, len(x), len(y))
	line := func(prefix, s string) {
		out.WriteString(prefix + strings.TrimSuffix(s, "\n") + "\n")
	}
	i, j := 0, 0
	for i < len(x) || j < len(y) {
		switch {
		case i < len(x) && j < len(y) && x[i] == y[j]:
			line(" ", x[i])
			i, j = i+1, j+1
		case i < len(x) && (j == len(y) || lcs[i+1][j] >= lcs[i][j+1]):
			line("-", x[i])
			i++
		default:
			line("+", y[j])
			j++
		}
	}
	return out.String()
}
