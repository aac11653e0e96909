package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	domino "repro"
	"repro/internal/repl"
	"repro/internal/router"
	"repro/internal/store"
	"repro/internal/workload"
)

func storeNoCheckpoint() store.Options { return store.Options{CheckpointEvery: -1} }

// --- F1: incremental replication vs full copy across delta sizes ---

func runF1(quick bool) {
	corpus := pick(quick, 2000, 400)
	t := newTable("changed", "incremental ms", "incr bytes", "full-copy ms", "full bytes", "bytes saved")
	for _, pct := range []int{1, 10, 50, 100} {
		replica := domino.NewReplicaID()
		a := tempDB("f1-a", replica)
		b := tempDB("f1-b", replica)
		g := workload.New(11)
		docs := seedDocs(a, g, corpus, 512)
		mustReplicate(b, a, "a")
		// Mutate pct% of the corpus at a.
		sess := a.Session("exp")
		delta := corpus * pct / 100
		for i := 0; i < delta; i++ {
			g.Mutate(docs[i])
			if err := sess.Update(docs[i]); err != nil {
				log.Fatal(err)
			}
		}
		start := time.Now()
		st := mustReplicate(b, a, "a")
		incTime := time.Since(start)
		incBytes := st.BytesIn + st.BytesOut

		// Full-copy baseline over the same pair (state already converged, so
		// the transfer volume is the whole database either way).
		start = time.Now()
		fc, err := repl.FullCopy(b, &repl.LocalPeer{DB: a})
		if err != nil {
			log.Fatal(err)
		}
		fullTime := time.Since(start)
		fullBytes := fc.BytesIn + fc.BytesOut
		saved := fmt.Sprintf("%.0f%%", 100*(1-float64(incBytes)/float64(fullBytes)))
		t.add(fmt.Sprintf("%d%%", pct), ms(incTime), incBytes, ms(fullTime), fullBytes, saved)
		a.Close()
		b.Close()
	}
	t.print()
	fmt.Println("  (shape check: incremental cost tracks the delta; full copy always pays for everything)")
}

// --- F2: conflict outcomes vs concurrent-edit overlap probability ---

func runF2(quick bool) {
	docs := pick(quick, 300, 60)
	t := newTable("overlap prob", "conflicting docs", "conflict docs (no merge)", "conflict docs (merge)", "merged")
	for _, overlap := range []float64{0.0, 0.25, 0.5, 1.0} {
		type result struct{ conflicts, merged int }
		results := make(map[bool]result)
		for _, merge := range []bool{false, true} {
			replica := domino.NewReplicaID()
			a := tempDB("f2-a", replica)
			b := tempDB("f2-b", replica)
			g := workload.New(12)
			rng := rand.New(rand.NewSource(int64(overlap*100) + 7))
			seeded := seedDocs(a, g, docs, 256)
			mustReplicate(b, a, "a")
			// Concurrent edits: each doc edited on both replicas; with
			// probability `overlap` both writers touch the same item.
			sa, sb := a.Session("alice"), b.Session("bob")
			for _, d := range seeded {
				da, err := sa.Get(d.OID.UNID)
				if err != nil {
					log.Fatal(err)
				}
				db2, err := sb.Get(d.OID.UNID)
				if err != nil {
					log.Fatal(err)
				}
				if rng.Float64() < overlap {
					da.SetText("Body", "alice version")
					db2.SetText("Body", "bob version")
				} else {
					da.SetText("AliceNotes", "from alice")
					db2.SetText("BobNotes", "from bob")
				}
				if err := sa.Update(da); err != nil {
					log.Fatal(err)
				}
				if err := sb.Update(db2); err != nil {
					log.Fatal(err)
				}
			}
			opts := domino.ReplicationOptions{PeerName: "a", Apply: domino.ApplyOptions{FieldMerge: merge}}
			st1, err := domino.Replicate(b, &domino.LocalPeer{DB: a, Opts: opts.Apply}, opts)
			if err != nil {
				log.Fatal(err)
			}
			st2, err := domino.Replicate(b, &domino.LocalPeer{DB: a, Opts: opts.Apply}, opts)
			if err != nil {
				log.Fatal(err)
			}
			_ = st1
			_ = st2
			conflicts := 0
			b.ScanAll(func(n *domino.Note) bool {
				if n.IsConflict() {
					conflicts++
				}
				return true
			})
			merges := st1.Pull.Merged + st1.Push.Merged + st2.Pull.Merged + st2.Push.Merged
			results[merge] = result{conflicts: conflicts, merged: merges}
			a.Close()
			b.Close()
		}
		t.add(fmt.Sprintf("%.0f%%", overlap*100), docs,
			results[false].conflicts, results[true].conflicts, results[true].merged)
	}
	t.print()
	fmt.Println("  (shape check: field merge eliminates conflicts for disjoint edits;")
	fmt.Println("   at 100% overlap both modes degenerate to one conflict doc per doc)")
}

// --- F4: topology convergence: hub-and-spoke vs ring ---

func runF4(quick bool) {
	nReplicas := 8
	docsEach := pick(quick, 20, 5)
	t := newTable("topology", "replicas", "rounds to converge", "sessions", "bytes moved")
	for _, topo := range []string{"hub-spoke", "ring"} {
		replica := domino.NewReplicaID()
		dbs := make([]*domino.Database, nReplicas)
		for i := range dbs {
			dbs[i] = tempDB(fmt.Sprintf("f4-%d", i), replica)
			g := workload.New(int64(100 + i))
			seedDocs(dbs[i], g, docsEach, 256)
		}
		rounds, sessions, bytes := 0, 0, int64(0)
		for rounds = 1; rounds <= 20; rounds++ {
			switch topo {
			case "hub-spoke":
				// Hub (replica 0) replicates with each spoke.
				for i := 1; i < nReplicas; i++ {
					st := mustReplicate(dbs[0], dbs[i], fmt.Sprintf("r%d", i))
					sessions++
					bytes += st.BytesIn + st.BytesOut
				}
			case "ring":
				for i := 0; i < nReplicas; i++ {
					j := (i + 1) % nReplicas
					st, err := domino.Replicate(dbs[i], &domino.LocalPeer{DB: dbs[j]},
						domino.ReplicationOptions{PeerName: fmt.Sprintf("r%d", j)})
					if err != nil {
						log.Fatal(err)
					}
					sessions++
					bytes += st.BytesIn + st.BytesOut
				}
			}
			if converged(dbs) {
				break
			}
		}
		t.add(topo, nReplicas, rounds, sessions, bytes)
		for _, db := range dbs {
			db.Close()
		}
	}
	t.print()
	fmt.Println("  (shape check: both topologies converge in ~2 sequential passes because")
	fmt.Println("   changes cascade within a pass; the ring pays more sessions and bytes)")
}

// converged checks all replicas hold the same document fingerprint set.
func converged(dbs []*domino.Database) bool {
	fingerprint := func(db *domino.Database) map[string]bool {
		out := make(map[string]bool)
		db.ScanAll(func(n *domino.Note) bool {
			if n.Class == domino.ClassDocument {
				out[fmt.Sprintf("%s/%d/%d", n.OID.UNID, n.OID.Seq, n.OID.SeqTime)] = true
			}
			return true
		})
		return out
	}
	base := fingerprint(dbs[0])
	for _, db := range dbs[1:] {
		fp := fingerprint(db)
		if len(fp) != len(base) {
			return false
		}
		for k := range base {
			if !fp[k] {
				return false
			}
		}
	}
	return true
}

// --- T6: mail routing throughput ---

func runT6(quick bool) {
	msgs := pick(quick, 500, 50)
	t := newTable("path", "messages", "ms total", "µs/message")
	// Local delivery.
	d := domino.NewDirectory()
	d.AddUser(domino.User{Name: "ada", MailFile: "mail/ada.nsf"})
	mailbox := tempDB("t6-box", domino.NewReplicaID())
	inbox := tempDB("t6-inbox", domino.NewReplicaID())
	defer mailbox.Close()
	defer inbox.Close()
	r := &domino.Router{
		ServerName:   "local",
		Mailbox:      mailbox,
		Directory:    d,
		OpenMailFile: func(string) (*domino.Database, error) { return inbox, nil },
	}
	g := workload.New(13)
	for i := 0; i < msgs; i++ {
		m := g.Document(512)
		m.SetText(router.ItemSendTo, "ada")
		if err := r.Deposit(m); err != nil {
			log.Fatal(err)
		}
	}
	start := time.Now()
	st, err := r.RouteOnce()
	if err != nil {
		log.Fatal(err)
	}
	local := time.Since(start)
	if st.Delivered != msgs {
		log.Fatalf("delivered %d of %d", st.Delivered, msgs)
	}
	t.add("local delivery", msgs, ms(local), us(local/time.Duration(msgs)))

	// Cross-server over loopback TCP.
	c := newCluster(mates("hub", "remote")...)
	defer c.close()
	c.dir.AddUser(domino.User{Name: "bob", Secret: "pw", MailFile: "mail/bob.nsf", MailServer: "remote"})
	hub, remote := c.srv["hub"], c.srv["remote"]
	wireMsgs := pick(quick, 200, 20)
	for i := 0; i < wireMsgs; i++ {
		m := g.Document(512)
		m.SetText(router.ItemSendTo, "bob")
		if err := hub.Router().Deposit(m); err != nil {
			log.Fatal(err)
		}
	}
	start = time.Now()
	if _, err := hub.Router().RouteOnce(); err != nil {
		log.Fatal(err)
	}
	if _, err := remote.Router().RouteOnce(); err != nil {
		log.Fatal(err)
	}
	wireTime := time.Since(start)
	t.add("cross-server (TCP)", wireMsgs, ms(wireTime), us(wireTime/time.Duration(wireMsgs)))
	t.print()
	fmt.Println("  (shape check: cross-server routing pays per-message wire overhead)")
}

// --- F5: B+tree lookups vs scan, via the public store surface ---

func runF5(quick bool) {
	sizes := []int{10000, 100000}
	if quick {
		sizes = []int{2000, 20000}
	}
	t := newTable("notes", "indexed get µs", "scan-to-find ms", "speedup")
	for _, n := range sizes {
		db := tempDB("f5", domino.NewReplicaID())
		g := workload.New(14)
		sess := db.Session("exp")
		docs := make([]*domino.Note, n)
		for i := range docs {
			doc := g.Document(64)
			if err := sess.Create(doc); err != nil {
				log.Fatal(err)
			}
			docs[i] = doc
		}
		rng := rand.New(rand.NewSource(9))
		reps := pick(quick, 2000, 200)
		indexed := timeOps(reps, func() {
			for i := 0; i < reps; i++ {
				if _, err := sess.Get(docs[rng.Intn(n)].OID.UNID); err != nil {
					log.Fatal(err)
				}
			}
		})
		scanReps := pick(quick, 5, 2)
		scan := timeOps(scanReps, func() {
			for i := 0; i < scanReps; i++ {
				want := docs[rng.Intn(n)].OID.UNID
				db.ScanAll(func(x *domino.Note) bool { return x.OID.UNID != want })
			}
		})
		t.add(n, us(indexed), ms(scan), fmt.Sprintf("%.0fx", float64(scan)/float64(indexed)))
		db.Close()
	}
	t.print()
	fmt.Println("  (shape check: indexed lookups stay ~flat; scans grow linearly)")
}
