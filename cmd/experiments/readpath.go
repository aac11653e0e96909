package main

import (
	"fmt"
	"log"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	domino "repro"
	"repro/internal/workload"
)

// --- W4: read path under concurrent writes ---
//
// The tentpole claim of the RW-latch work: point reads scale past a
// sustained writer instead of queuing behind it, and a full scan no longer
// holds the store latch across its callback, so writers are never stalled
// for a whole scan. The rows are named after the store's latching
// discipline (RW latch + decoded-note cache, "rw+cache"); EXPERIMENTS.md W4
// states what it measured against the single-semaphore store it replaced.

// w4ReadThroughput measures RawGet throughput from `readers` goroutines
// while one writer continuously updates documents.
func w4ReadThroughput(docs, readers int, dur time.Duration) row {
	db := tempDB("w4a", domino.NewReplicaID())
	defer db.Close()
	g := workload.New(41)
	corpus := seedDocs(db, g, docs, 512)

	var stop atomic.Bool
	var writerOps atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wmut := workload.New(43)
		sess := db.Session("writer")
		for i := 0; !stop.Load(); i++ {
			d := corpus[i%len(corpus)].Clone()
			wmut.Mutate(d)
			if err := sess.Update(d); err != nil {
				log.Fatal(err)
			}
			writerOps.Add(1)
		}
	}()

	// 90/10 hot-set access: most reads hit a tenth of the corpus, the rest
	// roam the whole file — the usual shape of a mail file or discussion
	// database, and what a bounded cache is for.
	hot := len(corpus) / 10
	if hot == 0 {
		hot = 1
	}
	var reads atomic.Int64
	deadline := time.Now().Add(dur)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			n := int64(0)
			for i := 0; time.Now().Before(deadline); i++ {
				j := r*7919 + i
				var u domino.UNID
				if i%10 != 9 {
					u = corpus[j*31%hot].OID.UNID
				} else {
					u = corpus[j%len(corpus)].OID.UNID
				}
				if _, err := db.RawGet(u); err != nil {
					log.Fatal(err)
				}
				n++
			}
			reads.Add(n)
		}(r)
	}
	// Wait out the measurement window, then stop the writer.
	time.Sleep(time.Until(deadline))
	stop.Store(true)
	wg.Wait()

	st := db.Stats()
	hitRate := 0.0
	if total := st.NoteCacheHits + st.NoteCacheMisses; total > 0 {
		hitRate = float64(st.NoteCacheHits) / float64(total)
	}
	return newRow("read-throughput rw+cache", "docs", docs, "readers", readers,
		"reads", reads.Load(), "reads_per_sec", float64(reads.Load())/dur.Seconds(),
		"writer_ops", writerOps.Load(), "cache_hits", st.NoteCacheHits,
		"cache_misses", st.NoteCacheMisses, "hit_rate", hitRate)
}

// w4ScanInterference measures Put latency while full scans run
// back-to-back: snapshot scans never hold the latch across the callback,
// so the writer does not wait out whole scans.
func w4ScanInterference(docs, puts int) row {
	db := tempDB("w4b", domino.NewReplicaID())
	defer db.Close()
	g := workload.New(47)
	corpus := seedDocs(db, g, docs, 512)

	var stop atomic.Bool
	var scans atomic.Int64
	var scanNanos atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			start := time.Now()
			if err := db.ScanAll(func(*domino.Note) bool { return true }); err != nil {
				log.Fatal(err)
			}
			scans.Add(1)
			scanNanos.Add(time.Since(start).Nanoseconds())
		}
	}()

	sess := db.Session("writer")
	wmut := workload.New(53)
	var lat recorder
	for i := 0; i < puts; i++ {
		d := corpus[i%len(corpus)].Clone()
		wmut.Mutate(d)
		start := time.Now()
		if err := sess.Update(d); err != nil {
			log.Fatal(err)
		}
		lat.since(start)
	}
	stop.Store(true)
	wg.Wait()

	scanAvgMs := 0.0
	if n := scans.Load(); n > 0 {
		scanAvgMs = float64(scanNanos.Load()) / float64(n) / 1e6
	}
	return newRow("scan-interference rw+cache", "docs", docs, "writer_ops", puts,
		"put_p50_us", usf(lat.pct(0.50)), "put_p99_us", usf(lat.pct(0.99)), "scan_avg_ms", scanAvgMs)
}

func runW4(quick bool) {
	// Widen the scheduler: the container pins GOMAXPROCS to the core count,
	// and at 1 the reader goroutines never overlap the writer at all.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	docs := pick(quick, 10000, 1000)
	readers := 4
	dur := time.Duration(pick(quick, 2000, 400)) * time.Millisecond
	ra := w4ReadThroughput(docs, readers, dur)
	ta := newTable("readers", "reads/s", "writer ops", "cache hit rate")
	ta.add(readers, fmt.Sprintf("%.0f", ra.M["reads_per_sec"]), int(ra.M["writer_ops"]),
		fmt.Sprintf("%.1f%%", 100*ra.M["hit_rate"]))
	fmt.Println("  Phase A: point-read throughput under a sustained writer")
	ta.print()

	rb := w4ScanInterference(docs, pick(quick, 2000, 300))
	tb := newTable("put p50 µs", "put p99 µs", "avg scan ms")
	tb.add(fmt.Sprintf("%.1f", rb.M["put_p50_us"]), fmt.Sprintf("%.1f", rb.M["put_p99_us"]),
		fmt.Sprintf("%.2f", rb.M["scan_avg_ms"]))
	fmt.Println("  Phase B: Put latency while full scans run back-to-back")
	tb.print()
	saveBaseline("W4", quick, []row{ra, rb})
}
