// Command bench is the repository's one benchmark: four named workloads
// driven by two closed-loop clients over loopback TCP against in-process
// servers, every answer checked, every metric printed by name. README.md
// has the catalogue; BENCHMARK.json at the repository root has the contract
// a change is held to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"repro/bench/kit"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all four) and end with the one-line JSON result")
		seed     = flag.Int64("seed", 1, "seed of the op lists and documents")
		seconds  = flag.Int("seconds", 8, "length of the measured window")
		trace    = flag.Int("trace", 0, "1: also run the traced pass and report the per-layer metrics")
		quick    = flag.Bool("quick", false, "sizes / 20 and a 1 s window; the output is marked not comparable")
		out      = flag.String("out", "", "write the result file here")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		os.Exit(runCompare(flag.Args()))
	}
	os.Exit(run(*workload, *seed, *seconds, *trace != 0, *quick, *out))
}

func runCompare(files []string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
		return 2
	}
	a, err := kit.ReadResult(files[0])
	if err == nil {
		var b *kit.Result
		if b, err = kit.ReadResult(files[1]); err == nil {
			if kit.PrintRows(os.Stdout, kit.Compare(a, b, endToEnd)) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, err)
	return 2
}

func run(workload string, seed int64, seconds int, trace, quick bool, out string) int {
	names := workloadNames
	if workload != "" {
		if _, ok := specs[workload]; !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q; have %s\n", workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{workload}
	}
	// The generator shares the machine with the servers: more runnable
	// threads or clients than cores would measure the scheduler.
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc || clients > nproc {
		fmt.Fprintf(os.Stderr, "GOMAXPROCS %d and %d clients need at least as many cores; have %d\n",
			runtime.GOMAXPROCS(0), clients, nproc)
		return 2
	}
	cfg := config{seed: seed, seconds: seconds, trace: trace, scale: 1, outDir: "out"}
	if quick {
		cfg.scale, cfg.seconds = 20, 1
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	root, err := os.MkdirTemp(cfg.outDir, "data-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cfg.root = root
	// The data directories go on every exit path, a signal included.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(root)
		os.Exit(130)
	}()
	defer os.RemoveAll(root)

	result := &kit.Result{
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: nproc,
		Seed: seed, Seconds: cfg.seconds, Comparable: !quick,
	}
	failed := 0
	for _, name := range names {
		res, err := runWorkload(name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			return 1
		}
		report(res, trace)
		failed += res.Failed
		result.Workloads = append(result.Workloads, *res)
	}
	if out != "" {
		if err := result.WriteFile(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if workload != "" {
		printContractLine(&result.Workloads[0], trace)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d operations failed or answered wrongly\n", failed)
		return 1
	}
	return 0
}

// commit names the commit being measured, when there is a git checkout to
// ask.
func commit() string {
	b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// report prints one workload's metrics by name, with unit and sample
// count: the end-to-end metrics of an untraced run, and the per-layer
// metrics the run reached (all of them after a traced pass).
func report(res *kit.WorkloadResult, trace bool) {
	fmt.Printf("\n== %s: %d operations attempted, %d failed; op list %s\n", res.Name, res.Attempted, res.Failed, res.OpListHash)
	var kinds []string
	for k, n := range res.OpCounts {
		kinds = append(kinds, fmt.Sprintf("%s %d", k, n))
	}
	sort.Strings(kinds)
	fmt.Printf("   %s\n", strings.Join(kinds, ", "))
	line := func(name string, m kit.Metric) {
		fmt.Printf("%-32s %16.4f %-6s", name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Printf(" n=%d", m.N)
		}
		fmt.Println()
	}
	for _, s := range endToEnd {
		if m, ok := res.EndToEnd[s.Name]; ok {
			line(s.Name, m)
		}
	}
	for _, s := range perLayer {
		if m := res.PerLayer[s.Name]; trace || m.Value != 0 {
			line(s.Name, m)
		}
	}
}

// printContractLine ends the output with the one JSON object the benchmark
// contract asks for: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one.
func printContractLine(res *kit.WorkloadResult, trace bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	values := res.EndToEnd
	if trace {
		values = res.PerLayer
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for name, m := range values {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	b, _ := json.Marshal(line)
	fmt.Println(string(b))
}
