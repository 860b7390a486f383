// Package expt contains the executable experiments E1–E12 of
// EXPERIMENTS.md: one runner per table/figure/claim of the paper. The
// bench harness (bench_test.go), the rqs-bench binary and the test suite
// all call into these runners.
package expt

import (
	"fmt"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row; values are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiments renders every table rqs-bench prints, by ID. E11 is the
// throughput suite of bench_test.go, not a table.
var Experiments = map[string]func() *Table{
	"E1":  func() *Table { t, _ := E1Fig1(); return t },
	"E2":  E2Fig2,
	"E3":  E3Fig3,
	"E4":  E4Fig4,
	"E5":  E5StorageLatency,
	"E6":  func() *Table { t, _ := E6Theorem3(); return t },
	"E7":  E7ConsensusLatency,
	"E8":  func() *Table { t, _ := E8Theorem6(); return t },
	"E9":  E9MinimalN,
	"E10": E10ViewChange,
	"E12": E12Availability,
}
