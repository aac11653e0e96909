package kit

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// MetricSpec declares a metric: its name and unit and, for an end-to-end
// metric, which direction is better and the share of the baseline by which
// it may worsen before a change counts as a regression.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// Metric is one measured value. N is the number of samples behind it (0
// for a count or a ratio that has none).
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// WorkloadResult is one workload's run.
type WorkloadResult struct {
	Name       string            `json:"name"`
	OpCounts   map[string]int    `json:"op_counts"`
	OpListHash string            `json:"op_list_hash"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	EndToEnd   map[string]Metric `json:"end_to_end,omitempty"`
	PerLayer   map[string]Metric `json:"per_layer,omitempty"`
}

// Result is a result file: provenance, then one entry per workload run.
type Result struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	// Comparable is false for -quick runs: their sizes differ, so their
	// numbers may not be held against a full run's.
	Comparable bool             `json:"comparable"`
	Workloads  []WorkloadResult `json:"workloads"`
}

// ReadResult loads a result file.
func ReadResult(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// WriteFile stores the result as indented JSON.
func (r *Result) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func (r *Result) workload(name string) *WorkloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// Verdicts of a comparison row.
const (
	OK         = "ok"
	Worse      = "worse"
	Better     = "better"
	Unresolved = "unresolved"
)

// Row is the comparison of one end-to-end metric on one workload.
type Row struct {
	Metric, Workload string
	A, B             float64
	// Change is (B-A)/A signed so that positive is worse.
	Change  float64
	Verdict string
	Why     string // set for unresolved rows
}

// Compare holds every end-to-end metric of every workload in a against the
// same in b. A row is worse or better when b differs from a by more than the
// metric's bound in that direction, ok when within it, and unresolved when
// the two files cannot decide: a side lacks the workload or the metric, a
// base is zero, a side failed operations or is not comparable, or the two
// drove different op lists.
func Compare(a, b *Result, specs []MetricSpec) []Row {
	var rows []Row
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		for _, spec := range specs {
			row := Row{Metric: spec.Name, Workload: wa.Name, Verdict: Unresolved}
			ma, okA := wa.EndToEnd[spec.Name]
			row.A = ma.Value
			switch {
			case wb == nil:
				row.Why = "workload missing from second file"
			case !okA:
				row.Why = "metric missing from first file"
			default:
				mb, okB := wb.EndToEnd[spec.Name]
				row.B = mb.Value
				switch {
				case !okB:
					row.Why = "metric missing from second file"
				case !a.Comparable || !b.Comparable:
					row.Why = "a -quick run is not comparable"
				case wa.OpListHash != wb.OpListHash:
					row.Why = "op lists differ"
				case wa.Failed > 0 || wb.Failed > 0:
					row.Why = "a run failed operations"
				case ma.Value == 0:
					row.Why = "zero base"
				default:
					row.Change = (mb.Value - ma.Value) / ma.Value
					if spec.Better == "higher" {
						row.Change = -row.Change
					}
					switch {
					case row.Change > spec.Bound:
						row.Verdict = Worse
					case row.Change < -spec.Bound:
						row.Verdict = Better
					default:
						row.Verdict = OK
					}
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// PrintRows writes one line per row and reports whether any row is worse.
func PrintRows(w io.Writer, rows []Row) (anyWorse bool) {
	fmt.Fprintf(w, "%-22s %-14s %14s %14s %8s  %s\n", "metric", "workload", "first", "second", "change", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %-14s %14.4f %14.4f %+7.1f%%  %s", r.Metric, r.Workload, r.A, r.B, 100*r.Change, r.Verdict)
		if r.Why != "" {
			fmt.Fprintf(w, " (%s)", r.Why)
		}
		fmt.Fprintln(w)
		anyWorse = anyWorse || r.Verdict == Worse
	}
	return anyWorse
}
