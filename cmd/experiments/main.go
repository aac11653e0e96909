// Command experiments regenerates every table and figure of the experiment
// suite defined in DESIGN.md §3 and recorded in EXPERIMENTS.md.
//
// Usage:
//
//	experiments            # run everything
//	experiments -exp F1    # run one experiment
//	experiments -quick     # smaller sizes for a fast pass
//
// A full-size run of W1 or W3..W10 rewrites that experiment's section of
// BENCH_experiments.json (run from the repository root); -quick runs never
// write it. The process exits 1 when any experiment's invariant check
// failed. harness.go holds what the experiments share.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
)

// experiment is one table/figure generator.
type experiment struct {
	id    string
	title string
	run   func(q bool)
}

var experiments = []experiment{
	{"T1", "Note CRUD throughput vs document size", runT1},
	{"T2", "Incremental view update vs full rebuild", runT2},
	{"T3", "Deletion stub cutoff vs resurrection anomaly", runT3},
	{"T4", "Crash recovery time vs operations since checkpoint", runT4},
	{"T5", "Reader-field enforcement overhead on view reads", runT5},
	{"T6", "Mail routing throughput (local and cross-server)", runT6},
	{"T7", "Formula evaluation cost by complexity", runT7},
	{"T8", "Change propagation: cluster push vs scheduled replication", runT8},
	{"W1", "Write-path latency vs open change consumers (changefeed)", runW1},
	{"W2", "Incremental view refresh vs rebuild under concurrent writers", runW2},
	{"W3", "Online backup: incremental vs full cost, hot-backup interference, restore/PITR", runW3},
	{"W4", "Read path under concurrent writes: RW latch + snapshot scans + note cache", runW4},
	{"W5", "Availability: failover window / zero lost acked writes, admission control under overload", runW5},
	{"W6", "Partitioned namespace: live moves and dead-mate re-homing, zero lost acked writes", runW6},
	{"W7", "Group-commit write scaling: writers x SyncWAL x commit window", runW7},
	{"W8", "Epidemic mesh convergence under churn: ring + hub-spoke, partition, killed mate", runW8},
	{"W9", "Paginated bulk reads: view open over 5ms RTT vs per-note, frame-bound 200k-row stream", runW9},
	{"W10", "Deadline budgets + hedged reads: stalled-mate tail, wasted work, write-safety audit", runW10},
	{"GUARD", "Bench drift guard: the probe table re-measured against " + baselineFile, runGuard},
	{"F1", "Incremental replication vs full copy across deltas", runF1},
	{"F2", "Conflict outcomes vs concurrent-edit overlap", runF2},
	{"F3", "Full-text query latency: index vs scan", runF3},
	{"F4", "Replication topology convergence: hub-spoke vs ring", runF4},
	{"F5", "B+tree point lookups vs scan baseline", runF5},
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
