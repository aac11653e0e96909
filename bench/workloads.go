package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/bench/kit"
	"repro/internal/core"
	"repro/internal/nsf"
	"repro/internal/repl"
	"repro/internal/server"
)

const (
	clients      = 2       // closed-loop clients; the sandbox has two cores
	opListLen    = 1 << 16 // operations generated per client; the list wraps
	warmupOps    = 500
	windowSlices = 8 // the window is reported as the median of this many slices
	reopenRuns   = 3
	// setupBudget bounds the time spent repeating set-up for its median.
	setupBudget = 6 * time.Second
)

// spec describes a workload. README.md gives each one's reason.
type spec struct {
	name   string
	docs   int
	mix    []kit.Share
	zipfS  float64
	server server.Options
	// mate adds a second server holding a replica of the database:
	// "cluster" seeds it and has the home server push every change to it,
	// "empty" leaves it empty for the workload to pull into.
	mate string
	// point names the operation classes behind point_p50_us.
	point []kit.Kind
}

var specs = map[string]spec{
	"interactive": {
		name: "interactive", docs: 8000, zipfS: 1.1, mate: "cluster",
		mix: []kit.Share{{Kind: kit.Get, Weight: 60}, {Kind: kit.ViewPage, Weight: 15}, {Kind: kit.Search, Weight: 5},
			{Kind: kit.Update, Weight: 10}, {Kind: kit.Create, Weight: 5}, {Kind: kit.Delete, Weight: 5}},
		point: []kit.Kind{kit.Get},
	},
	"read_cold": {
		name: "read_cold", docs: 40000,
		mix: []kit.Share{{Kind: kit.Get, Weight: 70}, {Kind: kit.ViewPage, Weight: 10}, {Kind: kit.Search, Weight: 10},
			{Kind: kit.Scan, Weight: 10}},
		point: []kit.Kind{kit.Get},
	},
	"write_durable": {
		name: "write_durable", docs: 5000,
		server: server.Options{SyncWAL: true, GroupCommitWindow: 200 * time.Microsecond},
		mix: []kit.Share{{Kind: kit.Create, Weight: 50}, {Kind: kit.Update, Weight: 30}, {Kind: kit.Delete, Weight: 5},
			{Kind: kit.PutBatch, Weight: 15}},
		point: []kit.Kind{kit.Create, kit.Update},
	},
	// The clients of replicate only make the changes each round carries:
	// one document in a hundred per round, three updates in four.
	"replicate": {
		name: "replicate", docs: 20000, mate: "empty",
		mix: []kit.Share{{Kind: kit.Update, Weight: 75}, {Kind: kit.Create, Weight: 20}, {Kind: kit.Delete, Weight: 5}},
	},
}

func (s spec) readOnly() bool {
	for _, sh := range s.mix {
		if sh.Kind >= kit.Update {
			return false
		}
	}
	return true
}

// config is what the command line fixes for a run.
type config struct {
	seed    int64
	seconds int
	trace   bool
	scale   int    // sizes are divided by it; 1 except in -quick
	root    string // data directories are made here and removed on exit
	outDir  string // trace files are written here
}

// window is the length of the measured window. A traced run halves it: it
// wants the window for the layers' counters only, and spends the other half
// on the traced pass.
func (c config) window() time.Duration {
	d := time.Duration(c.seconds) * time.Second
	if c.trace {
		d /= 2
	}
	return d
}

func replOptions() repl.Options { return repl.Options{PullOnly: true} }

// env is a set-up workload: servers up, clients dialed, models loaded.
type env struct {
	spec     spec
	dir      string
	home     *node
	mate     *node
	counters connCounters
	clients  []*client
	cfg      config
	// res collects the run's tallies; firstErr is the first failed
	// operation or answer check, for the operator.
	res      *kit.WorkloadResult
	firstErr error
}

func (e *env) close() {
	for _, c := range e.clients {
		if c.fc != nil {
			c.fc.Close()
		}
	}
	for _, n := range []*node{e.home, e.mate} {
		if n != nil && n.srv != nil {
			n.srv.Close()
		}
	}
	os.RemoveAll(e.dir)
}

// setUp builds the workload from an empty directory to clients connected:
// generate the corpus, seed the home server, define the views, build the
// full-text index, bring up the mate, dial. All of it is what setup_s
// times.
func setUp(s spec, cfg config) (*env, error) {
	dir, err := os.MkdirTemp(cfg.root, s.name+"-")
	if err != nil {
		return nil, err
	}
	e := &env{spec: s, dir: dir, cfg: cfg, res: &kit.WorkloadResult{Name: s.name, OpCounts: map[string]int{}}}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	d := newDirectory("home", "mate")
	if e.home, err = startNode(dir, "home", d, s.server, nsf.ReplicaID{}); err != nil {
		return nil, err
	}
	corpus := newDocMaker(cfg.seed, "seed").corpus(s.docs / cfg.scale)
	if err := e.home.seed(corpus); err != nil {
		return nil, err
	}
	if err := e.home.addViews(); err != nil {
		return nil, err
	}
	if err := e.home.serve(); err != nil {
		return nil, err
	}
	if s.mate != "" {
		// A replica defines no views of its own: the designs replicate.
		if e.mate, err = startNode(dir, "mate", d, s.server, e.home.db.ReplicaID()); err != nil {
			return nil, err
		}
		if err := e.mate.serve(); err != nil {
			return nil, err
		}
	}
	if s.mate == "cluster" {
		// Push replication starts only once the mate holds the corpus, so
		// the seeding does not flood the push queue.
		if _, err := e.mate.srv.ReplicateWith("home", e.home.addr, dbPath, replOptions()); err != nil {
			return nil, err
		}
	}

	// Each client owns every clients-th document, so its model is exact
	// without the clients coordinating; a read-only workload shares one
	// model and checks pages against its sort order.
	var shared *model
	var sorted []*doc
	if s.readOnly() {
		shared = newModel(corpus)
		sorted = sortedModel(shared)
	}
	for id := 0; id < clients; id++ {
		c := &client{id: id, own: shared, sorted: sorted, viewRows: len(corpus), queries: queries(),
			maker: newDocMaker(cfg.seed*31+int64(id)+1, fmt.Sprintf("c%d", id))}
		c.edits = c.maker.gen
		for _, k := range s.point {
			c.point[k] = true
		}
		if shared == nil {
			var mine []*nsf.Note
			for i := id; i < len(corpus); i += clients {
				mine = append(mine, corpus[i])
			}
			c.own = newModel(mine)
		}
		c.ops = kit.GenOps(cfg.seed, id, opListLen, s.mix, len(c.own.docs), s.zipfS)
		e.clients = append(e.clients, c)
	}
	if err := e.connect(); err != nil {
		return nil, err
	}
	ok = true
	return e, nil
}

// connect starts cluster push where the workload has it and dials the
// clients: each its own failover client over the mates' addresses, one TCP
// connection each.
func (e *env) connect() error {
	addrs := []string{e.home.addr}
	if e.spec.mate == "cluster" {
		e.home.srv.EnableClustering(map[string]string{"mate": e.mate.addr})
		addrs = append(addrs, e.mate.addr)
	}
	for _, c := range e.clients {
		var err error
		if c.fc, c.db, err = dialFailover(addrs, &e.counters); err != nil {
			return err
		}
	}
	return nil
}

// target is the server that holds the workload's data at the end: the
// replica in replicate, the home server elsewhere.
func (e *env) target() *node {
	if e.spec.mate == "empty" {
		return e.mate
	}
	return e.home
}

// timedSetUp sets the workload up, several times while that is cheap, and
// returns the last environment with the median set-up time.
func timedSetUp(s spec, cfg config) (*env, kit.Metric, error) {
	var times []float64
	var total time.Duration
	for {
		t0 := time.Now()
		e, err := setUp(s, cfg)
		if err != nil {
			return nil, kit.Metric{}, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		times = append(times, d.Seconds())
		total += d
		if len(times) == 3 || total+d > setupBudget {
			return e, kit.Metric{Value: kit.Median(times), N: len(times)}, nil
		}
		e.close()
	}
}

func (e *env) eachClient(fn func(*client)) {
	var wg sync.WaitGroup
	for _, c := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// --- the measured window ---

// processCounters is what the Go runtime and the kernel count for the
// whole benchmark process, servers and clients alike.
type processCounters struct {
	mallocs, allocBytes, gcPauseNs uint64
	cpu                            time.Duration
}

func readProcess() processCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return processCounters{
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcPauseNs: ms.PauseTotalNs,
		cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// window differences the layers' public counters over the measured part of
// a run, and polls at 10 Hz the gauges no counter keeps a maximum of.
type window struct {
	e            *env
	start, end   time.Time
	proc         processCounters
	store        core.Stats
	health       server.Health
	bytes, frame int64

	stop                            chan struct{}
	polled                          sync.WaitGroup
	queuedMax, dirtyMax, feedLagMax uint64
}

func (e *env) wireBytes() int64 { return e.counters.bytesIn.Load() + e.counters.bytesOut.Load() }

func (e *env) beginWindow() *window {
	// Every window begins with set-up's and warm-up's garbage collected,
	// so that the collector's pace in the window is the window's own.
	runtime.GC()
	w := &window{e: e, store: e.home.db.Stats(), health: e.home.srv.Health(),
		bytes: e.wireBytes(), frame: e.counters.framesIn.Load(), stop: make(chan struct{})}
	w.polled.Add(1)
	go func() {
		defer w.polled.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				st := e.home.db.Stats()
				w.queuedMax = max(w.queuedMax, uint64(e.home.srv.Health().Queued))
				w.dirtyMax = max(w.dirtyMax, uint64(st.DirtyPages))
				w.feedLagMax = max(w.feedLagMax, st.Feed.MaxLag)
			}
		}
	}()
	w.proc = readProcess()
	w.start = time.Now()
	return w
}

// finish closes the window at the last acknowledgement and reports what the
// counters moved by, per completed operation where that is the useful form.
func (w *window) finish(ops float64, e2e, layer metrics) {
	w.end = time.Now()
	proc := readProcess()
	close(w.stop)
	w.polled.Wait()
	e, n := w.e, int(ops)

	e2e.set("allocs_per_op", float64(proc.mallocs-w.proc.mallocs)/ops, n)
	layer.set("runtime.cpu_us_per_op", float64((proc.cpu-w.proc.cpu).Microseconds())/ops, n)
	layer.set("runtime.bytes_per_op", float64(proc.allocBytes-w.proc.allocBytes)/ops, n)
	layer.set("runtime.gc_pause_ms", float64(proc.gcPauseNs-w.proc.gcPauseNs)/1e6, 0)
	layer.set("wire.bytes_per_op", float64(e.wireBytes()-w.bytes)/ops, n)
	layer.set("wire.frames_per_op", float64(e.counters.framesIn.Load()-w.frame)/ops, n)
	var fs [3]uint64
	for _, c := range e.clients {
		s := c.fc.Stats()
		fs[0], fs[1], fs[2] = fs[0]+s.Failovers, fs[1]+s.Hedges, fs[2]+s.BusyRedirects
	}
	layer.set("wire.failovers", float64(fs[0]), 0)
	layer.set("wire.hedges", float64(fs[1]), 0)
	layer.set("wire.busy_redirects", float64(fs[2]), 0)

	health, st := e.home.srv.Health(), e.home.db.Stats()
	layer.set("server.dispatched", float64(health.Dispatched-w.health.Dispatched), 0)
	layer.set("server.sheds", float64(health.Sheds-w.health.Sheds), 0)
	layer.set("server.deadline_sheds", float64(health.DeadlineSheds-w.health.DeadlineSheds), 0)
	layer.set("server.queued_max", float64(w.queuedMax), 0)
	layer.set("server.latency_ewma_us", float64(health.Latency.Microseconds()), 0)
	hits, misses := st.NoteCacheHits-w.store.NoteCacheHits, st.NoteCacheMisses-w.store.NoteCacheMisses
	if hits+misses > 0 {
		layer.set("store.notecache_hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	layer.set("store.pages", float64(st.Pages), 0)
	layer.set("store.dirty_pages_max", float64(w.dirtyMax), 0)
	flushes, records := st.GroupCommitFlushes-w.store.GroupCommitFlushes, st.GroupCommitRecords-w.store.GroupCommitRecords
	if acks := st.LastUSN - w.store.LastUSN; flushes > 0 && acks > 0 {
		layer.set("store.gc_records_per_flush", float64(records)/float64(flushes), int(flushes))
		layer.set("store.flushes_per_ack", float64(flushes)/float64(acks), int(acks))
	}
	layer.set("changefeed.max_lag", float64(w.feedLagMax), 0)
	var resyncs uint64
	for i, sub := range st.Feed.Subscribers {
		resyncs += sub.Resyncs - w.store.Feed.Subscribers[i].Resyncs
	}
	layer.set("changefeed.resyncs", float64(resyncs), 0)
}

// merged pools the clients' latency samples of the given classes.
func merged(cs []*client, kinds ...kit.Kind) *kit.Hist {
	var h kit.Hist
	for _, c := range cs {
		for _, k := range kinds {
			h.Merge(&c.lat[k])
		}
	}
	return &h
}

func us(ns float64) float64 { return ns / 1e3 }

// clientMetrics reports the clients' latencies by operation class: the
// median, and the highest percentile that has ten samples beyond it.
func clientMetrics(layer metrics, cs []*client) {
	all := merged(cs, kit.Scan, kit.Delete, kit.PutBatch)
	for name, kinds := range map[string][]kit.Kind{
		"get": {kit.Get}, "put": {kit.Create, kit.Update}, "viewpage": {kit.ViewPage}, "search": {kit.Search},
	} {
		h := merged(cs, kinds...)
		all.Merge(h)
		_, tail := h.Tail()
		layer.set("client."+name+"_p50_us", us(h.Quantile(0.5)), h.Count())
		layer.set("client."+name+"_tail_us", us(tail), h.Count())
	}
	layer.set("client.max_us", us(float64(all.Max())), all.Count())
	var scanRows, batched int
	for _, c := range cs {
		scanRows += c.scanRows
		batched += c.batchDocs
	}
	if scan := merged(cs, kit.Scan); scan.Count() > 0 {
		layer.set("client.scanpage_rows_per_s", float64(scanRows)/(float64(scan.Sum())/1e9), scan.Count())
	}
	if batch := merged(cs, kit.PutBatch); batch.Count() > 0 {
		layer.set("client.putbatch_docs_per_s", float64(batched)/(float64(batch.Sum())/1e9), batch.Count())
	}
}

// collect folds the clients' tallies into the result.
func (e *env) collect() {
	var lists [][]kit.Op
	for _, c := range e.clients {
		e.res.Attempted += c.attempted
		e.res.Failed += c.failed
		lists = append(lists, c.ops)
		if e.firstErr == nil {
			e.firstErr = c.firstErr
		}
		for k := kit.Kind(0); k < kit.NumKinds; k++ {
			if n := c.lat[k].Count(); n > 0 {
				e.res.OpCounts[k.String()] += n
			}
		}
	}
	e.res.OpListHash = kit.HashOps(lists...)
}

// check counts one answer check made outside the clients into the result.
func (e *env) check(err error) {
	e.res.Attempted++
	if err != nil {
		e.res.Failed++
		if e.firstErr == nil {
			e.firstErr = err
		}
	}
}

// setSummary reports the window's two sliced metrics.
func setSummary(e2e metrics, sum kit.Summary) {
	e2e.set("ops_per_s", sum.OpsPerSec, sum.Ops)
	e2e.set("point_p50_us", us(sum.PointNs), sum.Points)
}

// runWorkload runs the named workload once.
func runWorkload(name string, cfg config) (*kit.WorkloadResult, error) {
	e, setup, err := timedSetUp(specs[name], cfg)
	if err != nil {
		return nil, err
	}
	defer e.close()
	e2e, layer := metrics{"setup_s": setup}, metrics{}
	if name == "replicate" {
		err = e.runReplicate(e2e, layer)
	} else {
		err = e.runClients(e2e, layer)
	}
	if err != nil {
		return nil, err
	}
	// End-to-end metrics come from untraced runs only.
	e.res.PerLayer = layer.fill(perLayer)
	if !cfg.trace {
		if err := e.storedRatio(e2e); err != nil {
			return nil, err
		}
		e.res.EndToEnd = e2e.fill(endToEnd)
	}
	if e.firstErr != nil {
		fmt.Fprintf(os.Stderr, "%s: first failed operation: %v\n", name, e.firstErr)
	}
	return e.res, nil
}

// runClients measures a client workload: both clients run their op lists,
// closed loop, for the configured time.
func (e *env) runClients(e2e, layer metrics) error {
	if err := e.reopen(layer); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	// Warm-up, discarded: caches fill and lazy set-up finishes.
	e.eachClient(func(c *client) { c.runN(warmupOps / e.cfg.scale); c.reset() })

	w := e.beginWindow()
	e.eachClient(func(c *client) { c.runFor(w.start, e.cfg.window()) })
	e.collect()
	w.finish(float64(e.res.Attempted-e.res.Failed), e2e, layer)

	// The write side is not done when the last ack leaves: the changefeed
	// still feeds views and full text, and the pusher still feeds the mate.
	e.home.db.Refresh()
	layer.set("changefeed.drain_ms", time.Since(w.end).Seconds()*1e3, 1)
	if e.mate != nil {
		e.check(waitConverged(e.home, e.mate))
		layer.set("server.cluster_drain_ms", time.Since(w.end).Seconds()*1e3, 1)
		layer.set("server.cluster_dropped", float64(e.home.srv.Dropped()), 0)
	}

	var sliced []*kit.Slices
	for _, c := range e.clients {
		sliced = append(sliced, c.slices)
	}
	setSummary(e2e, kit.Summarize(sliced...))
	clientMetrics(layer, e.clients)

	e.verifySearches()
	if e.spec.server.SyncWAL {
		e.check(e.verifyDurable())
	}
	if e.cfg.trace {
		if err := e.tracePass(layer); err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
	}
	return nil
}

// runReplicate measures replication into the mate: the initial pull of the
// whole corpus into the empty replica, then for the configured time cycles
// of (clients change one document in a hundred on the home server, one
// incremental round, three rounds with nothing to do).
func (e *env) runReplicate(e2e, layer metrics) error {
	round := func() (repl.Stats, time.Duration, error) {
		t0 := time.Now()
		st, err := e.mate.srv.ReplicateWith("home", e.home.addr, dbPath, replOptions())
		return st, time.Since(t0), err
	}
	docs := e.clients[0].viewRows
	st, d, err := round()
	if err != nil {
		return fmt.Errorf("initial pull: %w", err)
	}
	if st.Pull.Added < docs {
		e.check(fmt.Errorf("the initial pull added %d of %d documents", st.Pull.Added, docs))
	}
	layer.set("repl.initial_docs_per_s", float64(docs)/d.Seconds(), 1)
	e.mate.db.Refresh()
	if err := e.reopen(layer); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}

	var incr, idle kit.Hist
	var total repl.Stats
	var changed, idleFetched int
	delta := max(2, docs/100)
	for _, c := range e.clients {
		c.touched = map[nsf.UNID]struct{}{}
	}
	w := e.beginWindow()
	sl := kit.NewSlices(w.start, e.cfg.window(), windowSlices)
	for now := w.start; now.Before(w.start.Add(e.cfg.window())); now = time.Now() {
		cycle := sl.At(now)
		e.eachClient(func(c *client) { c.runN(delta / clients) })
		want := 0
		for _, c := range e.clients {
			want += len(c.touched)
			clear(c.touched)
		}
		st, d, err := round()
		if err != nil {
			return fmt.Errorf("incremental round: %w", err)
		}
		// Deletions travel as summaries; everything else is fetched.
		if got := st.Pull.Total(); got != want || st.NotesFetched > want {
			e.check(fmt.Errorf("a round after %d changes fetched %d notes and applied %d", want, st.NotesFetched, got))
		} else {
			e.check(nil)
			incr.Record(int64(d))
			cycle.Ops += want
		}
		changed += want
		total.SummariesIn += st.SummariesIn
		total.NotesFetched += st.NotesFetched
		total.BytesIn += st.BytesIn

		// Rounds with nothing to do, three for the sample count, on servers
		// that are idle too: the changes' index upkeep is waited out first.
		e.home.db.Refresh()
		e.mate.db.Refresh()
		for i := 0; i < 3; i++ {
			st, d, err = round()
			if err != nil {
				return fmt.Errorf("idle round: %w", err)
			}
			idleFetched += st.NotesFetched
			if st.NotesFetched != 0 || st.Pull.Total() != 0 {
				e.check(fmt.Errorf("a round with nothing changed fetched %d notes and applied %d", st.NotesFetched, st.Pull.Total()))
			} else {
				e.check(nil)
				idle.Record(int64(d))
				cycle.Point.Record(int64(d))
			}
		}
	}
	e.collect()
	w.finish(float64(changed), e2e, layer)
	e.check(waitConverged(e.home, e.mate))

	setSummary(e2e, kit.Summarize(sl))
	layer.set("repl.incr_round_ms", incr.Quantile(0.5)/1e6, incr.Count())
	layer.set("repl.idle_round_ms", idle.Quantile(0.5)/1e6, idle.Count())
	rounds := float64(max(1, incr.Count()))
	layer.set("repl.summaries_in", float64(total.SummariesIn)/rounds, incr.Count())
	layer.set("repl.notes_fetched", float64(total.NotesFetched)/rounds, incr.Count())
	layer.set("repl.bytes_in", float64(total.BytesIn)/rounds, incr.Count())
	layer.set("repl.bytes_per_changed_doc", float64(total.BytesIn)/float64(max(1, changed)), changed)
	layer.set("repl.idle_notes_fetched", float64(idleFetched), idle.Count())
	clientMetrics(layer, e.clients)
	if e.cfg.trace {
		notes := e.notes()
		codecAlone(notes[:min(len(notes), 2000)], layer)
	}
	return nil
}
