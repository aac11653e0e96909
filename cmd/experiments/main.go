// Command experiments regenerates the tables of the W experiments defined
// in DESIGN.md §3 and recorded in EXPERIMENTS.md. The paper's claims (T1–T8,
// F1–F5) are counted package tests under `go test ./...`; EXPERIMENTS.md's
// claim table names each one.
//
// Usage:
//
//	experiments            # run everything
//	experiments -exp W3    # run one experiment
//	experiments -quick     # smaller sizes for a fast pass
//
// A full-size run of W1, W3, W5, W6, W8 or W10 rewrites that experiment's
// section of BENCH_experiments.json (run from the repository root); -quick
// runs never write it. The process exits 1 when any experiment's invariant
// check failed. harness.go holds what the experiments share.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
)

// experiment is one table generator.
type experiment struct {
	id    string
	title string
	run   func(q bool)
}

var experiments = []experiment{
	{"W1", "Write-path latency vs open change consumers (maintainer)", runW1},
	{"W2", "Incremental view refresh vs rebuild under concurrent writers", runW2},
	{"W3", "Online backup: incremental vs full cost, hot-backup interference, restore/PITR", runW3},
	{"W5", "Availability: failover window / zero lost acked writes, admission control under overload", runW5},
	{"W6", "Partitioned namespace: live moves and dead-mate re-homing, zero lost acked writes", runW6},
	{"W8", "Epidemic mesh convergence under churn: ring + hub-spoke, partition, killed mate", runW8},
	{"W10", "Deadline budgets + hedged reads: stalled-mate tail, wasted work, write-safety audit", runW10},
	{"GUARD", "Bench drift guard: the probe table re-measured against " + baselineFile, runGuard},
}

func main() {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	exp := flag.String("exp", "all", "experiment id to run ("+strings.Join(ids, ", ")+", or all)")
	quick := flag.Bool("quick", false, "run with reduced sizes; never writes the baseline file")
	flag.Parse()
	os.Exit(run(strings.ToUpper(*exp), *quick))
}

// run executes the selected experiments under one temp root and returns the
// process exit code: 1 when any invariant check failed.
func run(want string, quick bool) int {
	root, err := os.MkdirTemp("", "domino-exp")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)
	scratchRoot = root
	ran := 0
	for _, e := range experiments {
		if want != "ALL" && e.id != want {
			continue
		}
		fmt.Printf("\n=== %s: %s ===\n", e.id, e.title)
		e.run(quick)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", want)
		return 2
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "\n%d invariant violation(s):\n  %s\n", len(violations), strings.Join(violations, "\n  "))
		return 1
	}
	return 0
}

// table renders rows with aligned columns.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func (t *table) print() {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Println("  " + strings.Join(parts, "  "))
	}
	line(t.header)
	seps := make([]string, len(t.header))
	for i, w := range widths {
		seps[i] = strings.Repeat("-", w)
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
}

// pick returns q when quick, full otherwise.
func pick(quick bool, full, q int) int {
	if quick {
		return q
	}
	return full
}
