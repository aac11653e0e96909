package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	domino "repro"
	"repro/internal/faultnet"
	"repro/internal/workload"
)

// The experiment harness: the four things every experiment needs and none
// should re-build — a cluster fixture, a latency recorder, the one
// baseline file, and the drift-guard probe table. Experiments are scenario
// descriptions over these; the acked-write audit is package check's Model.

// --- scratch space and invariant collection ---

// scratchRoot is the run's one temp root (main creates and removes it);
// empty means the system temp directory.
var scratchRoot string

// scratch returns a fresh directory under the run's temp root.
func scratch(name string) string {
	dir, err := os.MkdirTemp(scratchRoot, name+"-")
	if err != nil {
		log.Fatal(err)
	}
	return dir
}

// violations collects every failed invariant of the run; main exits
// non-zero when it is non-empty, and no baseline is written past one.
var violations []string

// check records an invariant violation when ok is false, and returns ok.
func check(ok bool, format string, args ...any) bool {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		fmt.Println("  !! " + msg)
		violations = append(violations, msg)
	}
	return ok
}

// tempDB opens a throwaway database; the caller must Close it.
func tempDB(title string, replica domino.ReplicaID) *domino.Database {
	db, err := domino.Open(filepath.Join(scratch("db"), "exp.nsf"),
		domino.Options{Title: title, ReplicaID: replica})
	if err != nil {
		log.Fatal(err)
	}
	return db
}

// seedDocs creates count documents of body bytes from g in db.
func seedDocs(db *domino.Database, g *workload.Generator, count, body int) []*domino.Note {
	sess := db.Session("exp")
	docs := g.Corpus(count, body)
	for _, n := range docs {
		if err := sess.Create(n); err != nil {
			log.Fatal(err)
		}
	}
	return docs
}

// --- latency recorder ---

// recorder accumulates per-operation latencies. Not safe for concurrent
// use: concurrent workers each fill their own and merge after the join.
type recorder struct{ ds []time.Duration }

func (r *recorder) add(d time.Duration)   { r.ds = append(r.ds, d) }
func (r *recorder) since(start time.Time) { r.add(time.Since(start)) }
func (r *recorder) merge(o recorder)      { r.ds = append(r.ds, o.ds...) }
func (r *recorder) n() int                { return len(r.ds) }

// pct returns the p-quantile (0..1) of the recorded latencies, 0 when empty.
func (r *recorder) pct(p float64) time.Duration {
	if len(r.ds) == 0 {
		return 0
	}
	sort.Slice(r.ds, func(i, j int) bool { return r.ds[i] < r.ds[j] })
	return r.ds[int(p*float64(len(r.ds)-1))]
}

func (r *recorder) mean() time.Duration {
	if len(r.ds) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range r.ds {
		total += d
	}
	return total / time.Duration(len(r.ds))
}

// usf and msf are a duration as fractional µs / ms (baseline metrics); us
// and ms render the same for table cells.
func usf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func msf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) string   { return fmt.Sprintf("%.1f", usf(d)) }
func ms(d time.Duration) string   { return fmt.Sprintf("%.2f", msf(d)) }

// --- cluster fixture ---

// mate describes one server of a cluster fixture.
type mate struct {
	name string
	// opts carries tuning only (SyncWAL, admission, page budget); the
	// fixture fills Name, DataDir, Directory and PeerSecret.
	opts domino.ServerOptions
	// plan, when non-nil, puts the listener behind a faultnet; injection is
	// off until the experiment calls nets[name].Enable().
	plan *faultnet.Plan
}

func mates(names ...string) []mate {
	ms := make([]mate, len(names))
	for i, n := range names {
		ms[i] = mate{name: n}
	}
	return ms
}

type replicaAt struct {
	path string
	id   domino.ReplicaID
}

// cluster is N named servers under one temp root sharing a directory (user
// ada/pw plus one user per mate, whose secret is also its peer secret) and
// a full peer table.
type cluster struct {
	root   string
	dir    *domino.Directory
	mates  []mate
	srv    map[string]*domino.Server // live servers only
	addr   map[string]string         // last known address, dead mates included
	nets   map[string]*faultnet.Net
	opened map[string][]replicaAt // what restart re-opens
}

func newCluster(ms ...mate) *cluster {
	c := &cluster{
		root: scratch("cluster"), dir: domino.NewDirectory(), mates: ms,
		srv: map[string]*domino.Server{}, addr: map[string]string{},
		nets: map[string]*faultnet.Net{}, opened: map[string][]replicaAt{},
	}
	c.dir.AddUser(domino.User{Name: "ada", Secret: "pw"})
	for _, m := range ms {
		c.dir.AddUser(domino.User{Name: m.name, Secret: m.name + "-secret"})
	}
	for _, m := range ms {
		c.boot(m)
	}
	c.setPeers()
	return c
}

// boot creates (or, after a kill, re-creates from the same data directory)
// one server, re-opens the databases it had open, and starts serving on a
// fresh port.
func (c *cluster) boot(m mate) {
	o := m.opts
	o.Name, o.DataDir = m.name, filepath.Join(c.root, m.name)
	o.Directory, o.PeerSecret = c.dir, m.name+"-secret"
	s, err := domino.NewServer(o)
	if err != nil {
		log.Fatal(err)
	}
	c.srv[m.name] = s
	reopen := c.opened[m.name]
	c.opened[m.name] = nil
	for _, r := range reopen {
		c.open(m.name, r.path, r.id)
	}
	if m.plan == nil {
		if c.addr[m.name], err = s.Start("127.0.0.1:0"); err != nil {
			log.Fatal(err)
		}
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fn := faultnet.New(*m.plan)
	fn.Disable()
	c.nets[m.name] = fn
	c.addr[m.name] = s.Serve(fn.Listener(ln))
}

// setPeers gives every live server the address of every other mate —
// at startup, and again after a restart lands a mate on a new port.
func (c *cluster) setPeers() {
	for name, s := range c.srv {
		peers := map[string]string{}
		for _, m := range c.mates {
			if m.name != name {
				peers[m.name] = c.addr[m.name]
			}
		}
		s.SetPeers(peers)
	}
}

// open opens path on one mate with ada and every mate as editors.
func (c *cluster) open(name, path string, replica domino.ReplicaID) *domino.Database {
	db, err := c.srv[name].OpenDB(path, domino.Options{Title: path, ReplicaID: replica})
	if err != nil {
		log.Fatal(err)
	}
	db.ACL().Set("ada", domino.Editor)
	for _, m := range c.mates {
		db.ACL().Set(m.name, domino.Editor)
	}
	c.opened[name] = append(c.opened[name], replicaAt{path, replica})
	return db
}

// openAll opens one new replica of path on every mate, in mate order.
func (c *cluster) openAll(path string) []*domino.Database {
	replica := domino.NewReplicaID()
	dbs := make([]*domino.Database, len(c.mates))
	for i, m := range c.mates {
		dbs[i] = c.open(m.name, path, replica)
	}
	return dbs
}

// db returns a live mate's open database.
func (c *cluster) db(name, path string) *domino.Database {
	db, ok := c.srv[name].DB(path)
	if !ok {
		log.Fatalf("%s has no copy of %s", name, path)
	}
	return db
}

// push turns on event-driven cluster push from one mate to another.
func (c *cluster) push(from, to string) {
	c.srv[from].EnableClustering(map[string]string{to: c.addr[to]})
}

func (c *cluster) kill(name string) {
	if err := c.srv[name].Close(); err != nil {
		log.Fatal(err)
	}
	delete(c.srv, name)
}

func (c *cluster) restart(name string) {
	for _, m := range c.mates {
		if m.name == name {
			c.boot(m)
		}
	}
	c.setPeers()
}

// close stops the live servers in mate order — a pushing mate listed first
// stops pushing before its target's listener goes away — and removes the
// cluster's files.
func (c *cluster) close() {
	for _, m := range c.mates {
		if s, ok := c.srv[m.name]; ok {
			s.Close()
		}
	}
	os.RemoveAll(c.root)
}

func (c *cluster) addrs() []string {
	out := make([]string, len(c.mates))
	for i, m := range c.mates {
		out[i] = c.addr[m.name]
	}
	return out
}

// dial connects a failover client as ada over every mate, in mate order.
func (c *cluster) dial(opts domino.FailoverOptions) *domino.FailoverClient {
	fc, err := domino.DialFailover(c.addrs(), "ada", "pw", opts)
	if err != nil {
		log.Fatal(err)
	}
	return fc
}

// remote dials one mate as ada and binds a handle on path.
func (c *cluster) remote(name, path string, opts domino.ClientOptions) (*domino.Client, *domino.RemoteDB) {
	cl, err := domino.DialOptions(c.addr[name], "ada", "pw", opts)
	if err != nil {
		log.Fatal(err)
	}
	rdb, err := cl.OpenDB(path)
	if err != nil {
		log.Fatal(err)
	}
	return cl, rdb
}

// --- baseline file ---

// row is the one row schema of the baseline file: a name that identifies
// the configuration within its experiment, and its numeric measurements.
type row struct {
	Name string             `json:"row"`
	M    map[string]float64 `json:"metrics"`
}

// newRow builds a row from alternating metric names and numeric values
// (booleans record as 0/1).
func newRow(name string, kv ...any) row {
	r := row{Name: name, M: map[string]float64{}}
	for i := 0; i < len(kv); i += 2 {
		var f float64
		switch v := kv[i+1].(type) {
		case int:
			f = float64(v)
		case int64:
			f = float64(v)
		case uint64:
			f = float64(v)
		case float64:
			f = v
		case bool:
			if v {
				f = 1
			}
		default:
			panic(fmt.Sprintf("newRow %s: metric %v has non-numeric type %T", name, kv[i], v))
		}
		r.M[kv[i].(string)] = f
	}
	return r
}

// findRow returns the named row's metric.
func findRow(rows []row, name, metric string) (float64, bool) {
	for _, r := range rows {
		if r.Name == name {
			v, ok := r.M[metric]
			return v, ok
		}
	}
	return 0, false
}

// baseline is BENCH_experiments.json: every experiment's committed rows
// keyed by experiment id, under a header describing the last writer.
type baseline struct {
	Go          string           `json:"go"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	Experiments map[string][]row `json:"experiments"`
}

const baselineFile = "BENCH_experiments.json"

// startProcs is GOMAXPROCS at process start, for the baseline header: W5
// widens the scheduler while it runs.
var startProcs = runtime.GOMAXPROCS(0)

func readBaseline() (baseline, error) {
	var b baseline
	raw, err := os.ReadFile(baselineFile)
	if err == nil {
		err = json.Unmarshal(raw, &b)
	}
	return b, err
}

// baselineSection returns one experiment's committed rows; a missing or
// corrupt section is an error — comparing against nothing would pass
// silently.
func baselineSection(id string) ([]row, error) {
	b, err := readBaseline()
	if err == nil && len(b.Experiments[id]) == 0 {
		err = fmt.Errorf("no %s section", id)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w; run `make experiment EXP=%s` and commit the result", baselineFile, err, id)
	}
	return b.Experiments[id], nil
}

// saveBaseline rewrites only id's section of the baseline file. Quick runs
// measure reduced sizes and a run with a failed invariant measured a broken
// system, so neither writes.
func saveBaseline(id string, quick bool, rows []row) {
	if quick || len(violations) > 0 {
		fmt.Printf("  (%s not written: quick=%v, failed invariants=%d)\n", baselineFile, quick, len(violations))
		return
	}
	b, err := readBaseline()
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		log.Fatalf("%s: %v; restore it before regenerating a section", baselineFile, err)
	}
	if b.Experiments == nil {
		b.Experiments = map[string][]row{}
	}
	b.Go, b.GOMAXPROCS = runtime.Version(), startProcs
	b.Experiments[id] = rows
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(baselineFile, append(out, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  baseline section %s written to %s\n", id, baselineFile)
}

// --- drift guard ---

// probe is one drift-guard measurement: a committed baseline metric, which
// way is better, and how far a fresh best-of-trials value may fall behind
// it. A probe regresses only when it is worse by more than ratio× AND by
// more than floor (an absolute slack in the metric's unit; 0 = none): the
// guard hunts real regressions — a serialized write path, a broken move
// pipeline or mesh scheduler — not scheduler noise.
type probe struct {
	exp, row, metric string
	better           string // "lower" or "higher"
	ratio, floor     float64
	trials           int
	measure          func() float64
}

// verdict compares a fresh value against the committed one.
func (p probe) verdict(want float64, found bool, got float64) string {
	switch {
	case !found:
		return "MISSING"
	case p.better == "lower" && got > want*p.ratio && got > want+p.floor,
		p.better == "higher" && got*p.ratio < want && got < want-p.floor:
		return "REGRESSED"
	}
	return "ok"
}

// best runs the probe's trials and keeps the best value.
func (p probe) best() float64 {
	got := p.measure()
	for i := 1; i < p.trials; i++ {
		if v := p.measure(); (v < got) == (p.better == "lower") {
			got = v
		}
	}
	return got
}

// probes is the drift-guard table. Sizes are the quick ones whatever the
// flag says: the guard runs in CI.
var probes = []probe{
	// Async put p50 with 0 and 8 open views: the asynchronous-maintenance claim.
	{"W1", w1Row(0, false, "async"), "p50_us", "lower", 1.30, 15, 3, func() float64 { return w1Probe(0) }},
	{"W1", w1Row(8, false, "async"), "p50_us", "lower", 1.30, 15, 3, func() float64 { return w1Probe(8) }},
	// Wall-clock-dominated probes get generous tolerances: they hunt a
	// broken move pipeline, mesh scheduler or hedge, not jitter. The
	// scenario functions check their own hard invariants (zero lost acked
	// writes, converged fingerprints, a >= 5x hedged speedup) on every run.
	{"W6", "rehome", "rehome_median_ms", "lower", 2.0, 50, 3,
		func() float64 { return w6Rehome(6, 8, 4, 0).M["rehome_median_ms"] }},
	{"W8", "ring", "converge_ms", "lower", 3.0, 500, 3,
		func() float64 { return w8Churn("ring", 4, 6, true).M["converge_ms"] }},
	{"W10", "tail hedged", "p99_ms", "lower", 3.0, 30, 1, func() float64 {
		_, hedged := w10TailPair(10, 3)
		return hedged.M["p99_ms"]
	}},
}

// runGuard walks the probe table against the committed baseline; any
// regression, missing row or broken invariant fails the run (and CI).
func runGuard(bool) {
	t := newTable("probe", "baseline", "fresh", "tolerance", "verdict")
	for _, p := range probes {
		rows, err := baselineSection(p.exp)
		if err != nil {
			log.Fatal(err)
		}
		want, found := findRow(rows, p.row, p.metric)
		got := 0.0
		if found {
			got = p.best()
		}
		v := p.verdict(want, found, got)
		label := fmt.Sprintf("%s %s %s", p.exp, p.row, p.metric)
		check(v == "ok", "GUARD %s: %s (baseline %.1f, fresh %.1f)", label, v, want, got)
		t.add(label, fmt.Sprintf("%.1f", want), fmt.Sprintf("%.1f", got),
			fmt.Sprintf("%s, %.2fx + %.0f", p.better, p.ratio, p.floor), v)
	}
	t.print()
	if len(violations) == 0 {
		fmt.Println("  no drift beyond tolerance against " + baselineFile)
	}
}
