// Benchmark harness regenerating the experiment suite from DESIGN.md §3.
// Each Benchmark function is one table/figure series; cmd/experiments
// renders the same measurements as the tables recorded in EXPERIMENTS.md.
package domino_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	domino "repro"
	"repro/internal/ft"
	"repro/internal/repl"
	"repro/internal/router"
	"repro/internal/store"
	"repro/internal/workload"
)

// storeNoCheckpoint disables automatic checkpoints so a reopen replays the
// whole WAL (the simulated-crash configuration for T4).
func storeNoCheckpoint() store.Options { return store.Options{CheckpointEvery: -1} }

func openBench(b *testing.B, replica domino.ReplicaID) *domino.Database {
	b.Helper()
	db, err := domino.Open(filepath.Join(b.TempDir(), "bench.nsf"),
		domino.Options{Title: "bench", ReplicaID: replica})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

func seed(b *testing.B, db *domino.Database, count, bodyBytes int) []*domino.Note {
	b.Helper()
	g := workload.New(1)
	sess := db.Session("bench")
	docs := g.Corpus(count, bodyBytes)
	for _, n := range docs {
		if err := sess.Create(n); err != nil {
			b.Fatal(err)
		}
	}
	return docs
}

// --- T1: note CRUD throughput vs document size ---

func BenchmarkT1Create(b *testing.B) {
	for _, size := range []int{512, 2048, 8192} {
		b.Run(fmt.Sprintf("body=%dB", size), func(b *testing.B) {
			db := openBench(b, domino.NewReplicaID())
			g := workload.New(2)
			docs := g.Corpus(b.N, size)
			sess := db.Session("bench")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sess.Create(docs[i]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkT1Read(b *testing.B) {
	for _, size := range []int{512, 2048, 8192} {
		b.Run(fmt.Sprintf("body=%dB", size), func(b *testing.B) {
			db := openBench(b, domino.NewReplicaID())
			docs := seed(b, db, 1000, size)
			sess := db.Session("bench")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Get(docs[i%len(docs)].OID.UNID); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkT1Update(b *testing.B) {
	for _, size := range []int{512, 2048, 8192} {
		b.Run(fmt.Sprintf("body=%dB", size), func(b *testing.B) {
			db := openBench(b, domino.NewReplicaID())
			docs := seed(b, db, 1000, size)
			g := workload.New(3)
			sess := db.Session("bench")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := docs[i%len(docs)]
				g.Mutate(n)
				if err := sess.Update(n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkT1Delete(b *testing.B) {
	db := openBench(b, domino.NewReplicaID())
	docs := seed(b, db, b.N, 512)
	sess := db.Session("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.Delete(docs[i].OID.UNID); err != nil {
			b.Fatal(err)
		}
	}
}

// --- T2: incremental view update vs full rebuild ---

func viewedDB(b *testing.B, n int) (*domino.Database, []*domino.Note) {
	db := openBench(b, domino.NewReplicaID())
	docs := seed(b, db, n, 512)
	def, err := domino.NewView("bycat", "SELECT @All",
		domino.ViewColumn{Title: "Category", ItemName: "Category", Sorted: true},
		domino.ViewColumn{Title: "Subject", ItemName: "Subject", Sorted: true})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.AddView(nil, def); err != nil {
		b.Fatal(err)
	}
	return db, docs
}

func BenchmarkT2ViewIncremental(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			db, docs := viewedDB(b, n)
			g := workload.New(4)
			sess := db.Session("bench")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := docs[i%len(docs)]
				g.Mutate(d)
				if err := sess.Update(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkT2ViewRebuild(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			db, _ := viewedDB(b, n)
			ix, _ := db.View("bycat")
			_ = ix
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Re-register the view, forcing a rebuild from the store.
				def := ix.Definition()
				if err := db.AddView(nil, def); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- F1: incremental replication vs full copy at varying deltas ---

func replicatedPair(b *testing.B, corpus int) (*domino.Database, *domino.Database, []*domino.Note) {
	replica := domino.NewReplicaID()
	a := openBench(b, replica)
	c, err := domino.Open(filepath.Join(b.TempDir(), "b.nsf"),
		domino.Options{Title: "b", ReplicaID: replica})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	docs := seed(b, a, corpus, 512)
	if _, err := domino.Replicate(c, &domino.LocalPeer{DB: a},
		domino.ReplicationOptions{PeerName: "a"}); err != nil {
		b.Fatal(err)
	}
	return a, c, docs
}

func BenchmarkF1ReplicationIncremental(b *testing.B) {
	const corpus = 2000
	for _, pct := range []int{1, 10, 50, 100} {
		b.Run(fmt.Sprintf("delta=%d%%", pct), func(b *testing.B) {
			a, c, docs := replicatedPair(b, corpus)
			g := workload.New(5)
			sess := a.Session("bench")
			delta := corpus * pct / 100
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < delta; j++ {
					d := docs[(i*delta+j)%len(docs)]
					g.Mutate(d)
					if err := sess.Update(d); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if _, err := domino.Replicate(c, &domino.LocalPeer{DB: a},
					domino.ReplicationOptions{PeerName: "a"}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkF1ReplicationFullCopy(b *testing.B) {
	const corpus = 2000
	a, c, _ := replicatedPair(b, corpus)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repl.FullCopy(c, &repl.LocalPeer{DB: a}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F2: conflict detection and resolution throughput ---

func BenchmarkF2ConflictApply(b *testing.B) {
	for _, mode := range []struct {
		name  string
		merge bool
	}{{"conflictdocs", false}, {"fieldmerge", true}} {
		b.Run(mode.name, func(b *testing.B) {
			replica := domino.NewReplicaID()
			a := openBench(b, replica)
			docs := seed(b, a, 1000, 512)
			sess := a.Session("bench")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Build a synthetic concurrent edit: same seq, later time,
				// touching a disjoint item (mergeable) to exercise the
				// conflict path end to end.
				local := docs[i%len(docs)]
				remote := local.Clone()
				remote.SetText("RemoteItem", fmt.Sprint(i))
				for k := range remote.Items {
					if remote.Items[k].Name == "RemoteItem" {
						remote.Items[k].Rev = remote.OID.Seq
					}
				}
				remote.OID.SeqTime = a.Clock().Now()
				if _, err := repl.ApplyNote(a, remote, repl.ApplyOptions{FieldMerge: mode.merge}); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				// Restore the local version so the next iteration conflicts
				// again.
				if err := sess.Update(local); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// --- F3: full-text query latency, indexed vs scan ---

func BenchmarkF3FullTextIndexed(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			db := openBench(b, domino.NewReplicaID())
			seed(b, db, n, 512)
			if err := db.EnableFullText(); err != nil {
				b.Fatal(err)
			}
			queries := workload.New(6).Queries(64)
			sess := db.Session("bench")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Search(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkF3FullTextScan(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			db := openBench(b, domino.NewReplicaID())
			seed(b, db, n, 512)
			queries := workload.New(6).Queries(64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ft.ScanSearch(queries[i%len(queries)], db.ScanAll); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- W1: write-path latency vs number of open consumers (changefeed) ---

// writePathDB opens a database with the requested number of views (each
// with a formula column, so maintenance does real work) and optionally a
// full-text index.
func writePathDB(b *testing.B, views int, fulltext bool) *domino.Database {
	b.Helper()
	db := openBench(b, domino.NewReplicaID())
	for v := 0; v < views; v++ {
		def, err := domino.NewView(fmt.Sprintf("w%d", v), "SELECT @All",
			domino.ViewColumn{Title: "Subject", ItemName: "Subject", Sorted: true},
			domino.ViewColumn{Title: "Cat", ItemName: "Category", Sorted: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := db.AddView(nil, def); err != nil {
			b.Fatal(err)
		}
	}
	if fulltext {
		if err := db.EnableFullText(); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkW1WritePath measures raw Put latency as consumers scale. With
// the changefeed, index maintenance runs on subscriber goroutines, so
// views=8 should sit within a small factor of views=0 — write latency
// independent of view count.
func BenchmarkW1WritePath(b *testing.B) {
	for _, views := range []int{0, 1, 8} {
		for _, ftOn := range []bool{false, true} {
			b.Run(fmt.Sprintf("views=%d/ft=%v", views, ftOn), func(b *testing.B) {
				db := writePathDB(b, views, ftOn)
				g := workload.New(11)
				docs := g.Corpus(b.N, 512)
				sess := db.Session("bench")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := sess.Create(docs[i]); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				db.Refresh() // drain maintainers so Cleanup's Close is fair
			})
		}
	}
}

// BenchmarkW1WritePathRefreshed is the synchronous-equivalent cost: every
// write is followed by a full refresh barrier, so maintenance latency is
// paid back on the writer. The gap between this and W1WritePath is what
// the changefeed takes off the write path.
func BenchmarkW1WritePathRefreshed(b *testing.B) {
	for _, views := range []int{0, 8} {
		b.Run(fmt.Sprintf("views=%d", views), func(b *testing.B) {
			db := writePathDB(b, views, false)
			g := workload.New(12)
			docs := g.Corpus(b.N, 512)
			sess := db.Session("bench")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sess.Create(docs[i]); err != nil {
					b.Fatal(err)
				}
				db.Refresh()
			}
		})
	}
}

// --- T4: crash recovery time vs operations since the last checkpoint ---

func BenchmarkT4Recovery(b *testing.B) {
	for _, ops := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "crash.nsf")
			db, err := domino.Open(path, domino.Options{
				Title: "crash",
				Store: storeNoCheckpoint(),
			})
			if err != nil {
				b.Fatal(err)
			}
			g := workload.New(7)
			sess := db.Session("bench")
			for i := 0; i < ops; i++ {
				if err := sess.Create(g.Document(512)); err != nil {
					b.Fatal(err)
				}
			}
			// Abandon db without Close: the page file was never flushed, so
			// reopening replays all ops from the WAL.
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db2, err := domino.Open(path, domino.Options{Store: storeNoCheckpoint()})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				db2.Close()
				// Closing checkpointed; recreate the crashed state for the
				// next iteration only if more iterations remain.
				if i+1 < b.N {
					db3, err := domino.Open(path, domino.Options{Store: storeNoCheckpoint()})
					if err != nil {
						b.Fatal(err)
					}
					s3 := db3.Session("bench")
					for j := 0; j < ops; j++ {
						if err := s3.Create(g.Document(512)); err != nil {
							b.Fatal(err)
						}
					}
					// Abandon again.
				}
				b.StartTimer()
			}
		})
	}
}

// --- T5: Reader-field enforcement overhead on view reads ---

func BenchmarkT5Readers(b *testing.B) {
	for _, pct := range []int{0, 50, 95} {
		b.Run(fmt.Sprintf("restricted=%d%%", pct), func(b *testing.B) {
			db := openBench(b, domino.NewReplicaID())
			g := workload.New(8)
			sess := db.Session("bench")
			for i := 0; i < 5000; i++ {
				n := g.Document(256)
				if i*100/5000 < pct {
					n.SetWithFlags("DocReaders", domino.TextValue("somebody else"),
						domino.FlagReaders|domino.FlagSummary)
				}
				if err := sess.Create(n); err != nil {
					b.Fatal(err)
				}
			}
			def, _ := domino.NewView("v", "SELECT @All",
				domino.ViewColumn{Title: "Subject", ItemName: "Subject", Sorted: true})
			if err := db.AddView(nil, def); err != nil {
				b.Fatal(err)
			}
			reader := db.Session("reader")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := reader.Rows("v"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T6: mail routing throughput (local delivery) ---

func BenchmarkT6Routing(b *testing.B) {
	d := domino.NewDirectory()
	d.AddUser(domino.User{Name: "ada", MailFile: "mail/ada.nsf"})
	mailbox := openBench(b, domino.NewReplicaID())
	inbox := openBench(b, domino.NewReplicaID())
	r := &domino.Router{
		ServerName:   "local",
		Mailbox:      mailbox,
		Directory:    d,
		OpenMailFile: func(string) (*domino.Database, error) { return inbox, nil },
	}
	g := workload.New(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		msg := g.Document(512)
		msg.SetText(router.ItemSendTo, "ada")
		if err := r.Deposit(msg); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := r.RouteOnce(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- T7: formula evaluation cost by complexity ---

func BenchmarkT7Formula(b *testing.B) {
	cases := []struct{ name, src string }{
		{"simple", `SELECT Form = "Memo"`},
		{"medium", `SELECT Form = "Memo" & Priority > 3 & @Contains(Subject; "report")`},
		{"complex", `x := @UpperCase(@Left(Subject; 10));
			y := @If(Priority > 5; "high"; Priority > 2; "mid"; "low");
			SELECT @Begins(x; "A") | (y = "high" & @Elements(@Explode(Body; " ")) > 20)`},
	}
	g := workload.New(10)
	docs := g.Corpus(256, 512)
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			f, err := domino.CompileFormula(tc.src)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.Selects(docs[i%len(docs)], nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- W4: read path under concurrent writes (RW latch + note cache) ---

// BenchmarkW4ReadUnderWriter measures RawGet throughput from parallel
// readers while one writer continuously updates documents (RW latch with
// the decoded-note cache; the seed's single-semaphore baseline is frozen in
// EXPERIMENTS.md W4). The scheduler is widened so the writer and readers
// genuinely interleave on a single-core box (at GOMAXPROCS=1 the writer
// only yields at blocking points).
func BenchmarkW4ReadUnderWriter(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	db, err := domino.Open(filepath.Join(b.TempDir(), "bench.nsf"),
		domino.Options{Title: "w4"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	docs := seed(b, db, 2000, 512)
	hot := len(docs) / 10

	// The writer is paced (not free-running) so both modes face the
	// same write load and ns/op reflects reader latency, not the
	// CPU share a faster writer can grab.
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		g := workload.New(21)
		sess := db.Session("writer")
		tick := time.NewTicker(250 * time.Microsecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			d := docs[i%len(docs)].Clone()
			g.Mutate(d)
			if err := sess.Update(d); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			var u domino.UNID
			if i%10 != 9 {
				u = docs[i*31%hot].OID.UNID
			} else {
				u = docs[i%len(docs)].OID.UNID
			}
			if _, err := db.RawGet(u); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	close(stop)
	<-writerDone
}

// BenchmarkW4ScanAll measures a full snapshot scan.
func BenchmarkW4ScanAll(b *testing.B) {
	db, err := domino.Open(filepath.Join(b.TempDir(), "bench.nsf"),
		domino.Options{Title: "w4scan"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	seed(b, db, 2000, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if err := db.ScanAll(func(*domino.Note) bool { count++; return true }); err != nil {
			b.Fatal(err)
		}
	}
}
