package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	domino "repro"
	"repro/internal/ft"
	"repro/internal/workload"
)

// tempDB opens a throwaway database; the caller must Close it.
func tempDB(title string, replica domino.ReplicaID) *domino.Database {
	db, err := domino.Open(filepath.Join(scratch("db"), "exp.nsf"),
		domino.Options{Title: title, ReplicaID: replica})
	if err != nil {
		log.Fatal(err)
	}
	return db
}

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

// timeOps runs fn and returns the per-operation latency given ops count.
func timeOps(ops int, fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start) / time.Duration(ops)
}

// --- T1: CRUD throughput vs document size ---

func runT1(quick bool) {
	ops := pick(quick, 2000, 300)
	t := newTable("body bytes", "create µs/op", "read µs/op", "update µs/op", "delete µs/op")
	for _, size := range []int{512, 2048, 8192} {
		db := tempDB("t1", domino.NewReplicaID())
		g := workload.New(int64(size))
		sess := db.Session("exp")
		docs := g.Corpus(ops, size)
		create := timeOps(ops, func() {
			for _, n := range docs {
				if err := sess.Create(n); err != nil {
					log.Fatal(err)
				}
			}
		})
		read := timeOps(ops, func() {
			for _, n := range docs {
				if _, err := sess.Get(n.OID.UNID); err != nil {
					log.Fatal(err)
				}
			}
		})
		update := timeOps(ops, func() {
			for _, n := range docs {
				g.Mutate(n)
				if err := sess.Update(n); err != nil {
					log.Fatal(err)
				}
			}
		})
		del := timeOps(ops, func() {
			for _, n := range docs {
				if err := sess.Delete(n.OID.UNID); err != nil {
					log.Fatal(err)
				}
			}
		})
		t.add(size, us(create), us(read), us(update), us(del))
		db.Close()
	}
	t.print()
	fmt.Println("  (shape check: latency grows sublinearly with body size; reads cheapest)")
}

// --- T2: incremental view update vs rebuild ---

func runT2(quick bool) {
	sizes := []int{1000, 10000, 50000}
	if quick {
		sizes = []int{500, 2000}
	}
	t := newTable("docs", "incremental µs/update", "full rebuild ms", "rebuild/incremental")
	for _, n := range sizes {
		db := tempDB("t2", domino.NewReplicaID())
		g := workload.New(2)
		docs := seedDocs(db, g, n, 512)
		def, _ := domino.NewView("bycat", "SELECT @All",
			domino.ViewColumn{Title: "Category", ItemName: "Category", Sorted: true},
			domino.ViewColumn{Title: "Subject", ItemName: "Subject", Sorted: true})
		if err := db.AddView(nil, def); err != nil {
			log.Fatal(err)
		}
		sess := db.Session("exp")
		updates := pick(quick, 200, 50)
		inc := timeOps(updates, func() {
			for i := 0; i < updates; i++ {
				d := docs[i%len(docs)]
				g.Mutate(d)
				if err := sess.Update(d); err != nil {
					log.Fatal(err)
				}
			}
		})
		start := time.Now()
		if err := db.AddView(nil, def); err != nil { // re-add forces rebuild
			log.Fatal(err)
		}
		rebuild := time.Since(start)
		ratio := float64(rebuild) / float64(inc)
		t.add(n, us(inc), ms(rebuild), fmt.Sprintf("%.0fx", ratio))
		db.Close()
	}
	t.print()
	fmt.Println("  (shape check: rebuild cost grows with N; incremental stays ~flat)")
}

// --- T3: stub purge cutoff vs resurrection ---

func runT3(quick bool) {
	docs := pick(quick, 200, 50)
	deletes := docs / 4
	t := newTable("scenario", "stubs kept", "deleted docs", "resurrected after sync")
	for _, purgeEarly := range []bool{false, true} {
		replica := domino.NewReplicaID()
		a := tempDB("t3-a", replica)
		b := tempDB("t3-b", replica)
		g := workload.New(3)
		seeded := seedDocs(a, g, docs, 256)
		mustReplicate(b, a, "a")
		// While b is "offline": a deletes a quarter of the documents, and
		// the b user keeps editing those same documents on their laptop.
		sess := a.Session("exp")
		for i := 0; i < deletes; i++ {
			if err := sess.Delete(seeded[i].OID.UNID); err != nil {
				log.Fatal(err)
			}
			bd, err := b.Session("exp").Get(seeded[i].OID.UNID)
			if err != nil {
				log.Fatal(err)
			}
			g.Mutate(bd)
			// Two edits so the laptop version has the higher sequence
			// number: without the stub, nothing marks it as deleted.
			if err := b.Session("exp").Update(bd); err != nil {
				log.Fatal(err)
			}
			g.Mutate(bd)
			if err := b.Session("exp").Update(bd); err != nil {
				log.Fatal(err)
			}
		}
		stubs := deletes
		if purgeEarly {
			purged, err := a.PurgeStubs(a.Clock().Now() + 1)
			if err != nil {
				log.Fatal(err)
			}
			stubs -= purged
		}
		// b comes back online and syncs (twice, for both directions to
		// settle).
		mustReplicate(b, a, "a")
		mustReplicate(b, a, "a")
		resurrected := 0
		for i := 0; i < deletes; i++ {
			if _, err := a.Session("exp").Get(seeded[i].OID.UNID); err == nil {
				resurrected++
			}
		}
		name := "cutoff > offline time (correct)"
		if purgeEarly {
			name = "cutoff < offline time (anomaly)"
		}
		t.add(name, stubs, deletes, resurrected)
		a.Close()
		b.Close()
	}
	t.print()
	fmt.Println("  (shape check: with stubs intact, deletion wins the delete-vs-edit race;")
	fmt.Println("   purging stubs before the offline replica syncs resurrects the deletes)")
}

func mustReplicate(local *domino.Database, peer *domino.Database, name string) domino.ReplicationStats {
	st, err := domino.Replicate(local, &domino.LocalPeer{DB: peer},
		domino.ReplicationOptions{PeerName: name})
	if err != nil {
		log.Fatal(err)
	}
	return st
}

// --- T4: recovery time vs ops since checkpoint ---

func runT4(quick bool) {
	sizes := []int{1000, 10000, 50000}
	if quick {
		sizes = []int{500, 2000}
	}
	t := newTable("ops since checkpoint", "WAL bytes", "recovery ms")
	for _, ops := range sizes {
		path := filepath.Join(scratch("t4"), "crash.nsf")
		db, err := domino.Open(path, domino.Options{Store: storeNoCheckpoint()})
		if err != nil {
			log.Fatal(err)
		}
		g := workload.New(4)
		sess := db.Session("exp")
		for i := 0; i < ops; i++ {
			if err := sess.Create(g.Document(512)); err != nil {
				log.Fatal(err)
			}
		}
		wal := db.Stats().WALBytes
		// Crash: reopen without closing.
		start := time.Now()
		db2, err := domino.Open(path, domino.Options{})
		if err != nil {
			log.Fatal(err)
		}
		rec := time.Since(start)
		t.add(ops, wal, ms(rec))
		db2.Close()
		db.Close()
	}
	t.print()
	fmt.Println("  (shape check: recovery time scales ~linearly with the unflushed WAL)")
}

// --- T5: reader-field enforcement overhead ---

func runT5(quick bool) {
	n := pick(quick, 5000, 1000)
	t := newTable("restricted docs", "view rows visible", "read all rows ms")
	for _, pct := range []int{0, 50, 95} {
		db := tempDB("t5", domino.NewReplicaID())
		g := workload.New(5)
		sess := db.Session("writer")
		for i := 0; i < n; i++ {
			doc := g.Document(256)
			if i*100/n < pct {
				doc.SetWithFlags("DocReaders", domino.TextValue("somebody else"),
					domino.FlagReaders|domino.FlagSummary)
			}
			if err := sess.Create(doc); err != nil {
				log.Fatal(err)
			}
		}
		def, _ := domino.NewView("v", "SELECT @All",
			domino.ViewColumn{Title: "Subject", ItemName: "Subject", Sorted: true})
		if err := db.AddView(nil, def); err != nil {
			log.Fatal(err)
		}
		reader := db.Session("reader")
		var rows int
		reps := pick(quick, 20, 5)
		d := timeOps(reps, func() {
			for i := 0; i < reps; i++ {
				r, err := reader.Rows("v")
				if err != nil {
					log.Fatal(err)
				}
				rows = len(r)
			}
		})
		t.add(fmt.Sprintf("%d%%", pct), rows, ms(d))
		db.Close()
	}
	t.print()
	fmt.Println("  (shape check: filtering cost is flat; visible rows shrink with restriction)")
}

// --- T7: formula cost ---

func runT7(quick bool) {
	iters := pick(quick, 20000, 2000)
	g := workload.New(7)
	docs := g.Corpus(256, 512)
	t := newTable("formula", "ns/eval")
	for _, tc := range []struct{ name, src string }{
		{"simple", `SELECT Form = "Memo"`},
		{"medium", `SELECT Form = "Memo" & Priority > 3 & @Contains(Subject; "report")`},
		{"complex", `x := @UpperCase(@Left(Subject; 10));
			y := @If(Priority > 5; "high"; Priority > 2; "mid"; "low");
			SELECT @Begins(x; "A") | (y = "high" & @Elements(@Explode(Body; " ")) > 20)`},
	} {
		f, err := domino.CompileFormula(tc.src)
		if err != nil {
			log.Fatal(err)
		}
		d := timeOps(iters, func() {
			for i := 0; i < iters; i++ {
				if _, err := f.Selects(docs[i%len(docs)], nil); err != nil {
					log.Fatal(err)
				}
			}
		})
		t.add(tc.name, d.Nanoseconds())
	}
	t.print()
}

// --- F3: full-text index vs scan ---

func runF3(quick bool) {
	sizes := []int{1000, 10000, 50000}
	if quick {
		sizes = []int{500, 2000}
	}
	// openFT times opening path and enabling full text on it; Close then
	// writes the index back to the .ft sidecar.
	openFT := func(path string) time.Duration {
		start := time.Now()
		db, err := domino.Open(path, domino.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if err := db.EnableFullText(); err != nil {
			log.Fatal(err)
		}
		d := time.Since(start)
		if err := db.Close(); err != nil {
			log.Fatal(err)
		}
		return d
	}
	t := newTable("docs", "indexed µs/query", "scan µs/query", "speedup", "warm open ms", "cold open ms")
	for _, n := range sizes {
		path := filepath.Join(scratch("f3"), "exp.nsf")
		db, err := domino.Open(path, domino.Options{Title: "f3"})
		if err != nil {
			log.Fatal(err)
		}
		g := workload.New(6)
		seedDocs(db, g, n, 512)
		if err := db.EnableFullText(); err != nil {
			log.Fatal(err)
		}
		queries := g.Queries(32)
		sess := db.Session("exp")
		reps := pick(quick, 200, 30)
		indexed := timeOps(reps, func() {
			for i := 0; i < reps; i++ {
				if _, err := sess.Search(queries[i%len(queries)]); err != nil {
					log.Fatal(err)
				}
			}
		})
		scanReps := pick(quick, 10, 3)
		scan := timeOps(scanReps, func() {
			for i := 0; i < scanReps; i++ {
				if _, err := ft.ScanSearch(queries[i%len(queries)], db.ScanAll); err != nil {
					log.Fatal(err)
				}
			}
		})
		db.Close()
		// Persistence: a warm open loads the sidecar and catches up; a cold
		// one re-tokenizes every note.
		warm := openFT(path)
		if err := os.Remove(path + ".ft"); err != nil {
			log.Fatal(err)
		}
		cold := openFT(path)
		t.add(n, us(indexed), us(scan), fmt.Sprintf("%.0fx", float64(scan)/float64(indexed)), ms(warm), ms(cold))
	}
	t.print()
	fmt.Println("  (shape check: scan grows linearly with corpus; index stays ~flat; a warm open skips the rebuild)")
}
