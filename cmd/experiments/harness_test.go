package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	domino "repro"
	invariant "repro/internal/check"
)

func TestProbeVerdict(t *testing.T) {
	lower := probe{better: "lower", ratio: 1.30, floor: 15}
	higher := probe{better: "higher", ratio: 1.30, floor: 100}
	cases := []struct {
		name      string
		p         probe
		want, got float64
		found     bool
		verdict   string
	}{
		{"lower: better than baseline", lower, 100, 50, true, "ok"},
		{"lower: within ratio", lower, 100, 129, true, "ok"},
		{"lower: past ratio and floor", lower, 100, 131, true, "REGRESSED"},
		{"lower: past ratio but inside floor", lower, 5, 19, true, "ok"},
		{"lower: past both on a tiny baseline", lower, 5, 21, true, "REGRESSED"},
		{"higher: better than baseline", higher, 1000, 2000, true, "ok"},
		{"higher: within ratio", higher, 1000, 800, true, "ok"},
		{"higher: past ratio and floor", higher, 1000, 700, true, "REGRESSED"},
		{"higher: past ratio but inside floor", higher, 200, 120, true, "ok"},
		{"ratio without floor, lower", probe{better: "lower", ratio: 2}, 10, 20.1, true, "REGRESSED"},
		{"ratio without floor, higher", probe{better: "higher", ratio: 1.30}, 1000, 769, true, "REGRESSED"},
		{"ratio without floor, higher, at the edge", probe{better: "higher", ratio: 1.30}, 1000, 770, true, "ok"},
		{"floor without ratio, lower", probe{better: "lower", floor: 50}, 10, 61, true, "REGRESSED"},
		{"floor without ratio, lower, inside", probe{better: "lower", floor: 50}, 10, 59, true, "ok"},
		{"floor without ratio, higher", probe{better: "higher", floor: 50}, 100, 49, true, "REGRESSED"},
		{"missing row", lower, 0, 0, false, "MISSING"},
	}
	for _, tc := range cases {
		if v := tc.p.verdict(tc.want, tc.found, tc.got); v != tc.verdict {
			t.Errorf("%s: verdict(%v, %v) = %s, want %s", tc.name, tc.want, tc.got, v, tc.verdict)
		}
	}
}

func TestProbeBestKeepsTheBetterTrial(t *testing.T) {
	for better, want := range map[string]float64{"lower": 3, "higher": 9} {
		trials := []float64{5, 3, 9}
		p := probe{better: better, trials: len(trials), measure: func() float64 {
			v := trials[0]
			trials = trials[1:]
			return v
		}}
		if got := p.best(); got != want || len(trials) != 0 {
			t.Errorf("%s: best = %v with %d trials unrun, want %v", better, got, len(trials), want)
		}
	}
}

// chdir moves the test into dir (the baseline file is cwd-relative) and
// back when the test ends.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

func TestBaselineRoundTrip(t *testing.T) {
	chdir(t, t.TempDir())

	// A missing file and a missing section both carry the regenerate hint.
	if _, err := baselineSection("W6"); err == nil || !strings.Contains(err.Error(), "make experiment EXP=W6") {
		t.Fatalf("missing file: err = %v, want the regenerate hint", err)
	}
	w1 := []row{newRow("views=0", "p50_us", 5.669, "ops", 3000, "ok", true)}
	w6 := []row{newRow("rehome", "rehome_median_ms", 3.244983, "lost_acked", uint64(0))}
	saveBaseline("W1", false, w1)
	saveBaseline("W6", false, w6)
	if _, err := baselineSection("W9"); err == nil || !strings.Contains(err.Error(), "no W9 section") {
		t.Fatalf("missing section: err = %v", err)
	}

	// Saving one section preserved the other, values intact.
	got, err := baselineSection("W1")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := findRow(got, "views=0", "p50_us"); !ok || v != 5.669 {
		t.Errorf("W1 p50_us = %v, %v after saving W6", v, ok)
	}
	if v, ok := findRow(got, "views=0", "ok"); !ok || v != 1 {
		t.Errorf("bool metric = %v, %v, want 1", v, ok)
	}
	if _, ok := findRow(got, "views=9", "p50_us"); ok {
		t.Error("findRow found a row that does not exist")
	}
	if _, ok := findRow(got, "views=0", "p99_us"); ok {
		t.Error("findRow found a metric that does not exist")
	}

	// A quick run, and a run with a failed invariant, leave the file
	// byte-identical.
	before, _ := os.ReadFile(baselineFile)
	saveBaseline("W1", true, []row{newRow("views=0", "p50_us", 99.0)})
	violations = []string{"forced"}
	saveBaseline("W1", false, []row{newRow("views=0", "p50_us", 99.0)})
	violations = nil
	if after, _ := os.ReadFile(baselineFile); !bytes.Equal(before, after) {
		t.Errorf("quick or failed run rewrote %s", baselineFile)
	}

	// A corrupt file is an error, never an empty baseline.
	if err := os.WriteFile(baselineFile, before[:len(before)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := baselineSection("W1"); err == nil {
		t.Error("corrupt baseline file read as valid")
	}
}

// The committed file must be exactly what saveBaseline would write, so
// regenerating one section leaves every other byte alone; and every guard
// probe must find its row in it.
func TestCommittedBaselineIsCanonicalAndCoversProbes(t *testing.T) {
	chdir(t, filepath.Join("..", ".."))
	raw, err := os.ReadFile(baselineFile)
	if err != nil {
		t.Fatal(err)
	}
	b, err := readBaseline()
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(out, '\n'), raw) {
		t.Errorf("%s is not in saveBaseline's canonical form", baselineFile)
	}
	for _, p := range probes {
		rows, err := baselineSection(p.exp)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := findRow(rows, p.row, p.metric); !ok {
			t.Errorf("probe %s %q %s has no committed baseline", p.exp, p.row, p.metric)
		}
	}
}

func TestClusterKillRestartLosesNoAckedWrite(t *testing.T) {
	scratchRoot = t.TempDir()
	defer func() { scratchRoot = "" }()
	const path = "apps/t.nsf"
	c := newCluster(mates("a", "b", "c")...)
	defer c.close()
	c.openAll(path)

	fc := c.dial(domino.FailoverOptions{
		Client: domino.ClientOptions{BackoffBase: time.Millisecond, DialTimeout: 2 * time.Second},
	})
	defer fc.Close()
	db, err := fc.OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	mateAt := func() string {
		addr, _ := fc.Current()
		for name, a := range c.addr {
			if a == addr {
				return name
			}
		}
		t.Fatalf("client bound to %q, not a mate of %v", addr, c.addr)
		return ""
	}
	bound := mateAt()

	model := invariant.NewModel()
	for i := 0; i < 8; i++ {
		if i == 4 {
			c.kill(bound)
		}
		n := domino.NewDocument()
		n.SetText("Subject", fmt.Sprintf("doc %d", i))
		if o, _ := model.Create(db, n, 0); o != invariant.Acked {
			t.Fatalf("create %d never acknowledged", i)
		}
	}
	survivor := mateAt()
	if survivor == bound {
		t.Fatalf("client still bound to the killed mate %s", bound)
	}
	if fc.Stats().Failovers == 0 {
		t.Error("no failover recorded across the kill")
	}

	// The restarted mate comes back on a new port with its files and its
	// databases open; catching it up makes the survivor hold every ack.
	oldAddr := c.addr[bound]
	c.restart(bound)
	if c.addr[bound] == oldAddr {
		t.Errorf("restart reused address %s", oldAddr)
	}
	if _, err := domino.Replicate(c.db(bound, path), &domino.LocalPeer{DB: c.db(survivor, path)},
		domino.ReplicationOptions{PeerName: "catchup"}); err != nil {
		t.Fatal(err)
	}
	if err := model.Durable(c.db(survivor, path)).Err(); err != nil {
		t.Error(err)
	}
	// The audit is not vacuous: a UNID that was never written is lost.
	model.Created(domino.NewDocument(), invariant.Acked)
	if lost := model.Durable(c.db(survivor, path)).Lost; lost != 1 {
		t.Errorf("audit of a never-written note: lost = %d, want 1", lost)
	}
}

func TestCheckCollectsViolations(t *testing.T) {
	defer func() { violations = nil }()
	if !check(true, "fine") || len(violations) != 0 {
		t.Fatal("a passing check recorded a violation")
	}
	if check(false, "lost %d", 3) || len(violations) != 1 || violations[0] != "lost 3" {
		t.Fatalf("violations = %q", violations)
	}
}

func TestRecorder(t *testing.T) {
	var r recorder
	if r.pct(0.5) != 0 || r.mean() != 0 {
		t.Error("empty recorder is not zero")
	}
	for _, d := range []time.Duration{5, 1, 4, 2, 3} {
		r.add(d * time.Millisecond)
	}
	var other recorder
	other.add(6 * time.Millisecond)
	r.merge(other)
	if r.n() != 6 || r.pct(0) != time.Millisecond || r.pct(0.5) != 3*time.Millisecond || r.pct(1) != 6*time.Millisecond {
		t.Errorf("n=%d p0=%v p50=%v p100=%v", r.n(), r.pct(0), r.pct(0.5), r.pct(1))
	}
	if r.mean() != 3500*time.Microsecond || msf(r.mean()) != 3.5 || usf(r.mean()) != 3500 {
		t.Errorf("mean = %v", r.mean())
	}
}
