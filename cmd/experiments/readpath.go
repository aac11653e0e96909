package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
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
// for a whole scan. The baseline it is compared against — the seed's
// single-semaphore discipline (exclusive latch for reads, latch-held scans,
// no note cache) — no longer exists in the store: its "serialized" rows in
// BENCH_readpath.json are frozen measurements (see EXPERIMENTS.md W4) that
// this experiment carries over untouched.

// w4Result is one measured configuration, serialized to
// BENCH_readpath.json as the regression baseline.
type w4Result struct {
	Phase       string  `json:"phase"`
	Mode        string  `json:"mode"`
	Docs        int     `json:"docs"`
	Readers     int     `json:"readers,omitempty"`
	Reads       int64   `json:"reads,omitempty"`
	ReadsPerSec float64 `json:"reads_per_sec,omitempty"`
	WriterOps   int64   `json:"writer_ops,omitempty"`
	PutP50us    float64 `json:"put_p50_us,omitempty"`
	PutP99us    float64 `json:"put_p99_us,omitempty"`
	ScanAvgMs   float64 `json:"scan_avg_ms,omitempty"`
	CacheHits   uint64  `json:"cache_hits,omitempty"`
	CacheMisses uint64  `json:"cache_misses,omitempty"`
	HitRate     float64 `json:"hit_rate,omitempty"`
}

// Mode labels of the W4 rows: the store's one latching discipline, and the
// frozen baseline it replaced.
const (
	w4Live   = "rw+cache"
	w4Frozen = "serialized"
)

// w4ReadThroughput measures RawGet throughput from `readers` goroutines
// while one writer continuously updates documents.
func w4ReadThroughput(docs, readers int, dur time.Duration) w4Result {
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
	res := w4Result{
		Phase:       "read-throughput",
		Mode:        w4Live,
		Docs:        docs,
		Readers:     readers,
		Reads:       reads.Load(),
		ReadsPerSec: float64(reads.Load()) / dur.Seconds(),
		WriterOps:   writerOps.Load(),
		CacheHits:   st.NoteCacheHits,
		CacheMisses: st.NoteCacheMisses,
	}
	if total := st.NoteCacheHits + st.NoteCacheMisses; total > 0 {
		res.HitRate = float64(st.NoteCacheHits) / float64(total)
	}
	return res
}

// w4ScanInterference measures Put latency while full scans run
// back-to-back: the frozen serialized discipline made the writer wait out
// whole scans (p99 ≈ scan length); snapshot scans keep it µs-scale.
func w4ScanInterference(docs, puts int) w4Result {
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
	lats := make([]time.Duration, 0, puts)
	for i := 0; i < puts; i++ {
		d := corpus[i%len(corpus)].Clone()
		wmut.Mutate(d)
		start := time.Now()
		if err := sess.Update(d); err != nil {
			log.Fatal(err)
		}
		lats = append(lats, time.Since(start))
	}
	stop.Store(true)
	wg.Wait()

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	toUs := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	res := w4Result{
		Phase:     "scan-interference",
		Mode:      w4Live,
		Docs:      docs,
		WriterOps: int64(puts),
		PutP50us:  toUs(percentile(lats, 0.50)),
		PutP99us:  toUs(percentile(lats, 0.99)),
	}
	if s := scans.Load(); s > 0 {
		res.ScanAvgMs = float64(scanNanos.Load()) / float64(s) / 1e6
	}
	return res
}

func runW4(quick bool) {
	// Widen the scheduler: the container pins GOMAXPROCS to the core count,
	// and at 1 the reader goroutines never overlap the writer at all.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	docs := pick(quick, 10000, 1000)
	readers := 4
	dur := time.Duration(pick(quick, 2000, 400)) * time.Millisecond
	ra := w4ReadThroughput(docs, readers, dur)
	ta := newTable("mode", "readers", "reads/s", "writer ops", "cache hit rate")
	ta.add(ra.Mode, ra.Readers, fmt.Sprintf("%.0f", ra.ReadsPerSec), ra.WriterOps, fmt.Sprintf("%.1f%%", 100*ra.HitRate))
	fmt.Println("  Phase A: point-read throughput under a sustained writer")
	ta.print()

	rb := w4ScanInterference(docs, pick(quick, 2000, 300))
	tb := newTable("mode", "put p50 µs", "put p99 µs", "avg scan ms")
	tb.add(rb.Mode, fmt.Sprintf("%.1f", rb.PutP50us), fmt.Sprintf("%.1f", rb.PutP99us),
		fmt.Sprintf("%.2f", rb.ScanAvgMs))
	fmt.Println("  Phase B: Put latency while full scans run back-to-back")
	tb.print()
	fmt.Println("  (frozen serialized baseline: EXPERIMENTS.md W4 — put p99 ≈ scan length there, µs-scale here)")

	// The frozen baseline rows stay in the file; only the live ones are
	// replaced.
	base := loadRPBaseline()
	var rows []w4Result
	for _, r := range base.W4 {
		if r.Mode == w4Frozen {
			rows = append(rows, r)
		}
	}
	base.W4 = append(rows, ra, rb)
	saveRPBaseline(base)
	fmt.Println("  baseline written to " + rpBaselineFile)
}

// --- read-path baseline file (shared by W4, W9, and the drift guard) ---

// rpBaseline is the committed read-path baseline: the W4 latching matrix
// plus the W9 bulk-read measurements. Each experiment rewrites only its
// own section, so regenerating one does not discard the other.
type rpBaseline struct {
	W4 []w4Result `json:"w4"`
	W9 []w9Result `json:"w9"`
}

const rpBaselineFile = "BENCH_readpath.json"

func loadRPBaseline() rpBaseline {
	var base rpBaseline
	raw, err := os.ReadFile(rpBaselineFile)
	if err != nil {
		return base
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		log.Fatalf("%s: %v", rpBaselineFile, err) // never overwrite the frozen rows with a partial file
	}
	return base
}

func saveRPBaseline(base rpBaseline) {
	f, err := os.Create(rpBaselineFile)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(base); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}
