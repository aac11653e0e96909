package kit

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestHistQuantilesMatchSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Hist
	samples := make([]int64, 100_000)
	for i := range samples {
		// Log-normal around 50µs with a long tail, like a latency sample.
		samples[i] = int64(math.Exp(rng.NormFloat64()*1.2 + math.Log(50_000)))
		h.Record(samples[i])
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		want := float64(samples[int(math.Ceil(q*float64(len(samples))))-1])
		got := h.Quantile(q)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.3f = %.0f, exact sort gives %.0f", q, got, want)
		}
	}
	if h.Max() != samples[len(samples)-1] || h.Count() != len(samples) {
		t.Errorf("max %d count %d", h.Max(), h.Count())
	}
	q, v := h.Tail()
	want := float64(samples[len(samples)-10-1])
	if math.Abs(q-0.9999) > 1e-9 || math.Abs(v-want)/want > 0.01 {
		t.Errorf("tail = q%.5f %.0f, want q0.9999 %.0f", q, v, want)
	}
}

func TestHistMergeAndSmallValues(t *testing.T) {
	var a, b Hist
	for i := int64(0); i < 100; i++ {
		a.Record(i)
		b.Record(i + 100)
	}
	a.Merge(&b)
	if a.Count() != 200 || a.Max() != 199 || a.Sum() != 199*200/2 {
		t.Fatalf("count %d max %d", a.Count(), a.Max())
	}
	if got := a.Quantile(0.5); got != 99 {
		t.Errorf("median %v, want 99", got)
	}
	if q, _ := new(Hist).Tail(); q != 0.5 {
		t.Errorf("empty tail q = %v", q)
	}
}

func TestSelfTimes(t *testing.T) {
	var tr Trace
	// Two requests. client(100) > server(70) > {core(40) > store(10), codec(5)}.
	for req, scale := range []int64{1, 2} {
		tr.Add("client", "", req, 0, 100*scale)
		tr.Add("server", "client", req, 0, 70*scale)
		tr.Add("core", "server", req, 0, 40*scale)
		tr.Add("codec", "server", req, 0, 5*scale)
		tr.Add("store", "core", req, 0, 10*scale)
	}
	got := tr.SelfTimes()
	// Median of the two requests' self times (scale 1 and 2) is 1.5x.
	want := map[string]float64{"client": 45, "server": 37.5, "core": 45, "codec": 7.5, "store": 15}
	for name, w := range want {
		if got[name].MedianNs != w || got[name].N != 2 {
			t.Errorf("%s self = %+v, want %v over 2", name, got[name], w)
		}
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); !strings.Contains(string(b), `"parent":"core"`) {
		t.Errorf("trace file lacks the store span's parent: %s", b)
	}
}

func TestOpListSeeded(t *testing.T) {
	mix := []Share{{Get, 60}, {ViewPage, 15}, {Update, 10}, {Create, 15}}
	a := GenOps(1, 0, 5000, mix, 4000, 1.1)
	if HashOps(a) != HashOps(GenOps(1, 0, 5000, mix, 4000, 1.1)) {
		t.Error("same seed gave different op lists")
	}
	if HashOps(a) == HashOps(GenOps(2, 0, 5000, mix, 4000, 1.1)) {
		t.Error("different seeds gave the same op list")
	}
	if HashOps(a) == HashOps(GenOps(1, 1, 5000, mix, 4000, 1.1)) {
		t.Error("two clients of one seed got the same op list")
	}
	counts := make(map[Kind]int)
	hot := 0
	for _, op := range a {
		counts[op.Kind]++
		if op.Kind == Get && op.Key < 400 {
			hot++
		}
	}
	if g := counts[Get]; g != 3000 {
		t.Errorf("%d gets of 5000 at weight 60%%: the list is not stratified", g)
	}
	if counts[Scan]+counts[Delete] != 0 {
		t.Error("a class outside the mix was generated")
	}
	// Zipf: a tenth of the keys takes well over half of the Gets.
	if hot*2 < counts[Get] {
		t.Errorf("only %d of %d gets hit the hottest tenth", hot, counts[Get])
	}
}

func TestCompareVerdicts(t *testing.T) {
	specs := []MetricSpec{
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
		{Name: "point_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
		{Name: "reopen_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	}
	a, err := ReadResult("testdata/a.json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadResult("testdata/b.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"ops_per_s/interactive":    Worse,      // 10000 -> 8000, higher is better
		"point_p50_us/interactive": OK,         // 30 -> 31.5
		"reopen_ms/interactive":    Unresolved, // missing from b
		"ops_per_s/read_cold":      Better,     // 500 -> 600
		"point_p50_us/read_cold":   Better,     // 60 -> 40
		"reopen_ms/read_cold":      Worse,      // 1000 -> 1200
		"ops_per_s/replicate":      Unresolved, // op lists differ
		"point_p50_us/replicate":   Unresolved,
		"reopen_ms/replicate":      Unresolved,
	}
	rows := Compare(a, b, specs)
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if w := want[r.Metric+"/"+r.Workload]; r.Verdict != w {
			t.Errorf("%s on %s: %s (%s), want %s", r.Metric, r.Workload, r.Verdict, r.Why, w)
		}
	}
	var out strings.Builder
	if !PrintRows(&out, rows) {
		t.Error("PrintRows did not report the worse rows")
	}
	if same := Compare(a, a, specs); PrintRows(&out, same) {
		t.Error("a file compared with itself has a worse row")
	}
	b.Comparable = false
	for _, r := range Compare(a, b, specs) {
		if r.Verdict != Unresolved {
			t.Errorf("%s on %s resolved against a -quick run", r.Metric, r.Workload)
		}
	}
}

func TestSlicesMedianIgnoresADisturbedSlice(t *testing.T) {
	start := time.Unix(0, 0)
	a, b := NewSlices(start, 8*time.Second, 8), NewSlices(start, 8*time.Second, 8)
	for _, sl := range []*Slices{a, b} {
		for s := 0; s < 8; s++ {
			at := start.Add(time.Duration(s)*time.Second + time.Millisecond)
			ops, lat := 100, int64(100)
			if s == 3 { // one slice is hit: a tenth of the work, ten times as slow
				ops, lat = 10, 1000
			}
			for i := 0; i < ops; i++ {
				sl.At(at).Ops++
				sl.At(at).Point.Record(lat)
			}
		}
	}
	a.At(start.Add(time.Hour)).Ops++ // past the end: last slice
	got := Summarize(a, b)
	if got.OpsPerSec != 200 || got.PointNs != 100 {
		t.Errorf("summary %+v, want 200 ops/s, point 100", got)
	}
	if got.Points != 2*(7*100+10) || got.Ops != got.Points+1 {
		t.Errorf("counts %+v", got)
	}
}
