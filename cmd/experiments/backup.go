package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	domino "repro"
	"repro/internal/store"
	"repro/internal/workload"
)

// --- W3: online backup and media recovery ---
//
// Three claims from DESIGN.md §8:
//
//  1. Incremental backup cost scales with the delta, not the database:
//     an incremental image after touching k notes is a small fraction of a
//     full image's bytes and time.
//  2. Hot backup never blocks the commit path: Put latency while a full
//     backup streams the page file is indistinguishable from idle.
//  3. Restore and point-in-time recovery are fast and exact: full image +
//     incremental chain + archived-log replay reach the requested USN.

// w3Row records one measured operation: delta_docs is the notes touched
// since the previous image (backup rows) or restored (restore rows), bytes
// the image size, usn where the row ends.
func w3Row(phase, label string, deltaDocs int, bytes int64, millis float64, usn uint64) row {
	return newRow(phase+" "+label, "delta_docs", deltaDocs, "bytes", bytes, "millis", millis, "usn", usn)
}

func runW3(quick bool) {
	docs := pick(quick, 4000, 600)
	body := 1024
	deltas := []int{docs / 100, docs / 20, docs / 5} // 1%, 5%, 20%

	root := scratch("w3")
	defer os.RemoveAll(root)
	arcDir := filepath.Join(root, "walog")
	setDir := filepath.Join(root, "bak")
	db, err := domino.Open(filepath.Join(root, "src.nsf"), domino.Options{
		Title: "w3",
		Store: store.Options{ArchiveDir: arcDir},
	})
	if err != nil {
		log.Fatal(err)
	}

	g := workload.New(42)
	corpus := seedDocs(db, g, docs, body)
	sess := db.Session("exp")
	var rows []row

	// Phase 1: full image cost, then incremental cost per delta size.
	bt := newTable("image", "delta docs", "MB", "ms", "MB vs full %")
	start := time.Now()
	full, err := db.Backup(setDir)
	if err != nil {
		log.Fatal(err)
	}
	fullMs := float64(time.Since(start).Microseconds()) / 1e3
	rows = append(rows, w3Row("backup", "full", docs, full.Size, fullMs, full.EndUSN))
	bt.add("full", docs, float64(full.Size)/1e6, fullMs, 100.0)
	lastIncrUSN := full.EndUSN
	for round, k := range deltas {
		for i := 0; i < k; i++ {
			n, err := sess.Get(corpus[(i*31+round*17)%len(corpus)].OID.UNID)
			if err != nil {
				log.Fatal(err)
			}
			g.Mutate(n)
			if err := sess.Update(n); err != nil {
				log.Fatal(err)
			}
		}
		start = time.Now()
		img, err := db.BackupIncremental(setDir)
		if err != nil {
			log.Fatal(err)
		}
		ms := float64(time.Since(start).Microseconds()) / 1e3
		rows = append(rows, w3Row("backup", fmt.Sprintf("incr-%dpct", 100*k/docs), k, img.Size, ms, img.EndUSN))
		bt.add(fmt.Sprintf("incr (%d%%)", 100*k/docs), k,
			float64(img.Size)/1e6, ms, 100*float64(img.Size)/float64(full.Size))
		lastIncrUSN = img.EndUSN
	}
	bt.print()

	// Phase 2: Put latency with an idle backup subsystem vs while a full
	// backup streams the database. The hot-backup design claim is that the
	// two distributions match — commits never wait on the copy.
	measurePuts := func(n int) (p50, p95 float64) {
		var lat recorder
		for _, doc := range g.Corpus(n, body) {
			t0 := time.Now()
			if err := sess.Create(doc); err != nil {
				log.Fatal(err)
			}
			lat.since(t0)
		}
		return usf(lat.pct(0.50)), usf(lat.pct(0.95))
	}
	putN := pick(quick, 800, 150)
	idle50, idle95 := measurePuts(putN)
	backupDone := make(chan error, 1)
	go func() {
		_, err := db.Backup(setDir)
		backupDone <- err
	}()
	hot50, hot95 := measurePuts(putN)
	if err := <-backupDone; err != nil {
		log.Fatal(err)
	}
	rows = append(rows,
		w3Row("hot-put", "idle", 0, 0, idle50/1e3, uint64(putN)),
		w3Row("hot-put", "during-backup", 0, 0, hot50/1e3, uint64(putN)))
	ht := newTable("writer state", "p50 µs", "p95 µs")
	ht.add("backup idle", idle50, idle95)
	ht.add("backup running", hot50, hot95)
	ht.print()
	fmt.Printf("  -> hot backup put-latency ratio p50 %.2fx (1.0 = no interference)\n",
		hot50/idle50)

	// Phase 3: restore and PITR. Write past the last image so the tail
	// lives only in the archived log, close the source to seal it, then
	// time three recoveries.
	tailDocs := pick(quick, 400, 80)
	seedDocs(db, g, tailDocs, body)
	lastUSN := db.LastUSN()
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}

	rt := newTable("scenario", "target USN", "notes", "archive recs", "ms")
	restore := func(label string, target uint64) {
		dst := filepath.Join(root, label+".nsf")
		start := time.Now()
		rdb, info, err := domino.RestoreDatabase(setDir, dst,
			domino.RestoreOptions{TargetUSN: target, ArchiveDir: arcDir}, domino.Options{})
		if err != nil {
			log.Fatal(err)
		}
		ms := float64(time.Since(start).Microseconds()) / 1e3
		count := rdb.Count()
		rdb.Close()
		rows = append(rows, w3Row("restore", label, count, 0, ms, info.ReachedUSN))
		rt.add(label, info.ReachedUSN, count, info.ArchiveRecords, ms)
	}
	restore("full-only", full.EndUSN)
	restore("full-plus-incrementals", lastIncrUSN)
	restore("pitr-latest", lastUSN)
	restore("pitr-mid-archive", lastUSN-uint64(tailDocs)/2)
	rt.print()

	saveBaseline("W3", quick, rows)
}
