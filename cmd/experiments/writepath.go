package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	domino "repro"
	"repro/internal/workload"
)

// --- W1: write-path latency vs number of open change consumers ---
//
// The changefeed claim: Put latency is independent of how many views (and
// whether a full-text index) are open, because maintenance happens on
// subscriber goroutines. The "+refresh" rows re-add the cost by placing a
// full refresh barrier after every write — the synchronous-equivalent
// configuration the old write path always paid.

// wpDB opens a database with the requested consumers attached.
func wpDB(views int, fulltext bool) *domino.Database {
	db := tempDB("w1", domino.NewReplicaID())
	for v := 0; v < views; v++ {
		def, err := domino.NewView(fmt.Sprintf("w%d", v), "SELECT @All",
			domino.ViewColumn{Title: "Subject", ItemName: "Subject", Sorted: true},
			domino.ViewColumn{Title: "Cat", ItemName: "Category", Sorted: true})
		if err != nil {
			log.Fatal(err)
		}
		if err := db.AddView(nil, def); err != nil {
			log.Fatal(err)
		}
	}
	if fulltext {
		if err := db.EnableFullText(); err != nil {
			log.Fatal(err)
		}
	}
	return db
}

// measureWrites runs ops creates and returns their latencies.
func measureWrites(db *domino.Database, ops int, refreshed bool, seed int64) recorder {
	sess := db.Session("exp")
	var lat recorder
	for _, n := range workload.New(seed).Corpus(ops, 512) {
		start := time.Now()
		if err := sess.Create(n); err != nil {
			log.Fatal(err)
		}
		if refreshed {
			db.Refresh()
		}
		lat.since(start)
	}
	return lat
}

// w1Row names one W1 configuration in the baseline file.
func w1Row(views int, fulltext bool, mode string) string {
	return fmt.Sprintf("views=%d fulltext=%v %s", views, fulltext, mode)
}

// w1Probe is the drift guard's W1 measurement: async put p50 in µs with
// `views` open views and no full-text index.
func w1Probe(views int) float64 {
	db := wpDB(views, false)
	defer db.Close()
	lat := measureWrites(db, 400, false, int64(400+views))
	db.Refresh()
	return usf(lat.pct(0.50))
}

func runW1(quick bool) {
	ops := pick(quick, 3000, 400)
	var rows []row
	t := newTable("views", "fulltext", "mode", "p50 µs", "p95 µs", "mean µs")
	measure := func(views int, ftOn, refreshed bool, mode string, seed int64) {
		db := wpDB(views, ftOn)
		lat := measureWrites(db, ops, refreshed, seed)
		db.Refresh()
		db.Close()
		p50, p95, mean := usf(lat.pct(0.50)), usf(lat.pct(0.95)), usf(lat.mean())
		rows = append(rows, newRow(w1Row(views, ftOn, mode), "views", views, "ops", ops,
			"p50_us", p50, "p95_us", p95, "mean_us", mean))
		t.add(views, fmt.Sprint(ftOn), mode, p50, p95, mean)
	}
	for _, views := range []int{0, 1, 8} {
		for _, ftOn := range []bool{false, true} {
			measure(views, ftOn, false, "async", int64(100+views))
		}
	}
	for _, views := range []int{0, 8} {
		measure(views, false, true, "+refresh", int64(200+views))
	}
	t.print()
	p50v0, _ := findRow(rows, w1Row(0, false, "async"), "p50_us")
	p50v8, _ := findRow(rows, w1Row(8, false, "async"), "p50_us")
	fmt.Printf("  p50 ratio 8 views / 0 views = %.2fx (target: <= 1.5x)\n", p50v8/p50v0)
	fmt.Println("  (shape check: async p50 flat in consumer count; +refresh pays it back)")
	saveBaseline("W1", quick, rows)
}

// --- W7: group-commit write scaling (writers x SyncWAL x commit window) ---
//
// The group-commit claim: every commit reaches the WAL through one commit
// group, so with SyncWAL on N concurrent writers share one WAL force instead
// of paying one fsync each, and the aggregate put rate scales with the
// writer count instead of being pinned to the disk's fsync rate. A lone
// writer with no window pays one fsync per put — the per-op-fsync rate — so
// the acceptance target (>= 5x) is 64 writers over 1 writer, SyncWAL on, no
// window. The window column is GroupCommitWindow: 0, or the 200 µs a lone
// SyncWAL committer then lingers for company.

// w7Windows are the commit windows W7 sweeps.
var w7Windows = []time.Duration{0, 200 * time.Microsecond}

// w7Row names one W7 configuration in the baseline file.
func w7Row(writers int, syncWAL bool, window time.Duration) string {
	return fmt.Sprintf("writers=%d sync_wal=%v window_us=%d", writers, syncWAL, window.Microseconds())
}

// measureW7 runs writers goroutines of opsPer puts each against one fresh
// database and reports aggregate throughput plus per-op latency.
func measureW7(writers, opsPer int, syncWAL bool, window time.Duration) row {
	dir := scratch("w7")
	defer os.RemoveAll(dir)
	db, err := domino.Open(filepath.Join(dir, "w7.nsf"), domino.Options{
		Title:     "w7",
		ReplicaID: domino.NewReplicaID(),
		Store:     domino.StoreOptions{SyncWAL: syncWAL, GroupCommitWindow: window},
	})
	if err != nil {
		log.Fatal(err)
	}
	// Generate every writer's corpus before the clock starts.
	corpora := make([][]*domino.Note, writers)
	for w := range corpora {
		corpora[w] = workload.New(int64(700+w)).Corpus(opsPer, 256)
	}
	lats := make([]recorder, writers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := db.Session(fmt.Sprintf("w7-%d", w))
			var mine recorder // local: neighbours in lats share cache lines
			for _, n := range corpora[w] {
				t0 := time.Now()
				if err := sess.Create(n); err != nil {
					log.Fatal(err)
				}
				mine.since(t0)
			}
			lats[w] = mine
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	st := db.Stats()
	db.Close()

	var all recorder
	for _, l := range lats {
		all.merge(l)
	}
	return newRow(w7Row(writers, syncWAL, window), "writers", writers, "ops", writers*opsPer,
		"puts_per_sec", float64(writers*opsPer)/elapsed.Seconds(),
		"p50_us", usf(all.pct(0.50)), "p95_us", usf(all.pct(0.95)),
		"wal_flushes", st.GroupCommitFlushes, "wal_records", st.GroupCommitRecords)
}

func runW7(quick bool) {
	opsPer := pick(quick, 150, 30)
	var rows []row
	t := newTable("writers", "syncWAL", "window µs", "puts/s", "p50 µs", "p95 µs", "records/flush")
	for _, writers := range []int{1, 4, 16, 64} {
		for _, syncWAL := range []bool{false, true} {
			for _, window := range w7Windows {
				r := measureW7(writers, opsPer, syncWAL, window)
				rows = append(rows, r)
				t.add(writers, fmt.Sprint(syncWAL), window.Microseconds(), fmt.Sprintf("%.0f", r.M["puts_per_sec"]),
					r.M["p50_us"], r.M["p95_us"], fmt.Sprintf("%.1f", r.M["wal_records"]/r.M["wal_flushes"]))
			}
		}
	}
	t.print()
	one, _ := findRow(rows, w7Row(1, true, 0), "puts_per_sec")
	many, _ := findRow(rows, w7Row(64, true, 0), "puts_per_sec")
	fmt.Printf("  SyncWAL on, no window: 64 writers = %.1fx 1 writer's per-op fsync rate (target: >= 5x)\n", many/one)
	fmt.Println("  (shape check: a lone writer is pinned to the fsync rate; concurrent writers share forces)")
	saveBaseline("W7", quick, rows)
}

// --- W2: incremental view refresh vs rebuild under concurrent writers ---
//
// The T2 experiment re-run with the write load still running: readers use
// the refresh barrier (incremental catch-up) or force a full rebuild while
// writers churn documents. The feed keeps maintenance incremental; the
// resync counter shows whether the churn ever forced the rebuild fallback.

func runW2(quick bool) {
	n := pick(quick, 10000, 1000)
	db := tempDB("w2", domino.NewReplicaID())
	defer db.Close()
	g := workload.New(7)
	docs := seedDocs(db, g, n, 512)
	def, _ := domino.NewView("bycat", "SELECT @All",
		domino.ViewColumn{Title: "Category", ItemName: "Category", Sorted: true},
		domino.ViewColumn{Title: "Subject", ItemName: "Subject", Sorted: true})
	if err := db.AddView(nil, def); err != nil {
		log.Fatal(err)
	}

	// Background churn: 4 writers mutating documents until stopped.
	var stop atomic.Bool
	var wrote atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wg2 := workload.New(int64(300 + w))
			sess := db.Session(fmt.Sprintf("writer%d", w))
			for i := 0; !stop.Load(); i++ {
				d := docs[(w*1000+i)%len(docs)].Clone()
				wg2.Mutate(d)
				if err := sess.Update(d); err != nil {
					log.Fatal(err)
				}
				wrote.Add(1)
			}
		}(w)
	}

	reads := pick(quick, 200, 40)
	var refresh recorder
	for i := 0; i < reads; i++ {
		start := time.Now()
		if _, ok := db.View("bycat"); !ok { // barrier + lookup
			log.Fatal("view lost")
		}
		refresh.since(start)
	}

	rebuilds := 3
	start := time.Now()
	for i := 0; i < rebuilds; i++ {
		if err := db.AddView(nil, def); err != nil { // re-add forces rebuild
			log.Fatal(err)
		}
	}
	rebuild := time.Since(start) / time.Duration(rebuilds)

	stop.Store(true)
	wg.Wait()
	db.Refresh()

	t := newTable("docs", "writers", "refresh p50 µs", "refresh p95 µs", "rebuild ms", "rebuild/refresh")
	p50, p95 := refresh.pct(0.50), refresh.pct(0.95)
	ratio := float64(rebuild) / float64(p50)
	t.add(n, 4, us(p50), us(p95), ms(rebuild), fmt.Sprintf("%.0fx", ratio))
	t.print()
	fs := db.Stats().Feed
	fmt.Printf("  churn: %d concurrent updates; feed usn=%d, resyncs:", wrote.Load(), fs.LastUSN)
	for _, s := range fs.Subscribers {
		fmt.Printf(" %s=%d", s.Name, s.Resyncs)
	}
	fmt.Println()
	fmt.Println("  (shape check: refresh barrier stays µs-scale under churn; rebuild pays the full scan)")
}
