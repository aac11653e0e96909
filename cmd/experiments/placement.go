package main

import (
	"fmt"
	"log"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	domino "repro"
)

// --- W6: partitioned namespace — live moves and dead-mate re-homing ---
//
// The placement layer's two claims, measured end to end:
//
// Phase A: a database moves between mates while a client streams writes
// through it. The move's drain fence plus the WrongMate redirect protocol
// mean the client never loses an acknowledged write and lands on the new
// home without reconfiguration.
//
// Phase B: a cluster of three mates homes a namespace of databases by
// rendezvous placement; one mate (homing about a third of them) is killed.
// Each of its databases is re-homed onto a survivor from its last hot
// backup image plus a catch-up pass over the dead disk, and the placement
// generation flips so clients re-route. The audit walks every write any
// client saw acknowledged and requires all of them on the new homes.

// w6Dial connects the fail-fast failover client both phases write through:
// no transparent retries, so every redirect and re-resolve is the
// protocol's doing, not backoff's.
func w6Dial(c *cluster) *domino.FailoverClient {
	return c.dial(domino.FailoverOptions{
		Client: domino.ClientOptions{MaxRetries: -1, BackoffBase: time.Millisecond,
			BackoffMax: 5 * time.Millisecond, DialTimeout: 2 * time.Second},
		Cooldown: 50 * time.Millisecond,
	})
}

// w6LiveMove runs Phase A: one database, a streaming writer, a live move
// under it.
func w6LiveMove(docs int) row {
	c := newCluster(mates("alpha", "beta")...)
	defer c.close()
	const path = "apps/move.nsf"
	c.open("alpha", path, domino.NewReplicaID())
	if _, err := c.dir.SetPlacement(path, []string{"alpha"}, 1); err != nil {
		log.Fatal(err)
	}

	fc := w6Dial(c)
	defer fc.Close()
	db, err := fc.OpenDB(path)
	if err != nil {
		log.Fatal(err)
	}

	var mu sync.Mutex
	var acked []*domino.Note
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; !stop.Load(); i++ {
			n := domino.NewDocument()
			n.SetText("Subject", fmt.Sprintf("w6 doc %d", i))
			if ok, _ := ackedCreate(db, n, 0); ok {
				mu.Lock()
				acked = append(acked, n)
				mu.Unlock()
			}
		}
	}()
	waitAcked := func(min int) {
		for {
			mu.Lock()
			n := len(acked)
			mu.Unlock()
			if n >= min {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitAcked(docs / 2)

	res, err := domino.MoveDatabase(c.dir, c.srv["alpha"], c.srv["beta"], path, domino.MoveOptions{
		BackupRoot: filepath.Join(c.root, "imgroot"), QuiesceTimeout: 10 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The writer must keep acking after the flip — through the stale-cache
	// redirect — before the audit runs.
	mu.Lock()
	atMove := len(acked)
	mu.Unlock()
	waitAcked(atMove + docs/2)
	stop.Store(true)
	<-done

	lost, _ := auditAcked(c.db("beta", path), acked)
	check(lost == 0, "W6: %d acknowledged writes lost across the move", lost)
	return newRow("live-move", "acked", len(acked), "lost_acked", lost,
		"move_ms", msf(res.Elapsed), "moved_notes", res.Moved, "catchup_rounds", res.Rounds,
		"generation", res.Generation, "redirects", fc.Stats().WrongMateRedirects)
}

// w6Rehome runs Phase B: rendezvous-place a namespace over three mates,
// kill one, recover its share onto the survivors.
func w6Rehome(dbs, docs, delta, post int) row {
	names := []string{"alpha", "beta", "gamma"}
	c := newCluster(mates(names...)...)
	defer c.close()

	// Rendezvous-place the namespace, one home mate per database, and open
	// each database on its home.
	paths := make([]string, dbs)
	home := map[string]string{}
	for i := range paths {
		paths[i] = fmt.Sprintf("apps/db%02d.nsf", i)
		p, err := c.dir.AssignPlacement(paths[i], names, 1)
		if err != nil {
			log.Fatal(err)
		}
		home[paths[i]] = p.Home[0]
		c.open(p.Home[0], paths[i], domino.NewReplicaID())
	}

	fc := w6Dial(c)
	defer fc.Close()
	handles := map[string]*domino.FailoverDB{}
	acked := map[string][]*domino.Note{}
	write := func(path string, k int) {
		for i := 0; i < k; i++ {
			n := domino.NewDocument()
			n.SetText("Subject", fmt.Sprintf("%s doc %d", path, len(acked[path])))
			if ok, _ := ackedCreate(handles[path], n, 0); ok {
				acked[path] = append(acked[path], n)
			}
		}
	}
	for _, path := range paths {
		h, err := fc.OpenDB(path)
		if err != nil {
			log.Fatal(err)
		}
		handles[path] = h
		write(path, docs)
	}

	// Scheduled hot backups on every mate, then more writes: the delta
	// exists only on the home mates' disks, beyond the images.
	for _, name := range names {
		if _, err := c.srv[name].BackupAll(filepath.Join(c.root, "backup-"+name), true); err != nil {
			log.Fatal(err)
		}
	}
	for _, path := range paths {
		write(path, delta)
	}

	// Kill the mate homing the largest share of the namespace.
	perMate := map[string]int{}
	for _, h := range home {
		perMate[h]++
	}
	dead := names[0]
	for _, name := range names[1:] {
		if perMate[name] > perMate[dead] {
			dead = name
		}
	}
	c.kill(dead)

	// Re-home every database the dead mate homed onto the survivors
	// (round-robin), from its backup image plus the dead disk.
	survivors := make([]string, 0, len(names)-1)
	for _, name := range names {
		if name != dead {
			survivors = append(survivors, name)
		}
	}
	var rehome recorder
	for _, path := range paths {
		if home[path] != dead {
			continue
		}
		dst := survivors[rehome.n()%len(survivors)]
		res, err := domino.RecoverDatabase(c.dir, dead, c.srv[dst], path, domino.RecoverOptions{
			BackupRoot:  filepath.Join(c.root, "backup-"+dead),
			DeadDataDir: filepath.Join(c.root, dead),
		})
		if err != nil {
			log.Fatal(err)
		}
		home[path] = dst
		rehome.add(res.Elapsed)
	}

	// The pre-kill handles are stale: their cached placement names the dead
	// mate. Writing through them exercises the redirect/re-resolve path.
	for _, path := range paths {
		write(path, post)
	}

	// Audit: every write any client saw acknowledged exists on the
	// database's current home.
	total, lost := 0, 0
	for _, path := range paths {
		l, _ := auditAcked(c.db(home[path], path), acked[path])
		total, lost = total+len(acked[path]), lost+l
	}
	check(lost == 0, "W6: %d acknowledged writes lost across the mate kill + re-home", lost)
	return newRow("rehome", "databases", dbs, "mates", len(names), "dead_homed", rehome.n(),
		"acked", total, "lost_acked", lost, "redirects", fc.Stats().WrongMateRedirects,
		"rehome_median_ms", msf(rehome.pct(0.50)), "rehome_max_ms", msf(rehome.pct(1)))
}

func runW6(quick bool) {
	mv := w6LiveMove(pick(quick, 40, 16))
	ta := newTable("acked", "lost acked", "move ms", "notes moved", "rounds", "gen", "redirects")
	ta.add(int(mv.M["acked"]), int(mv.M["lost_acked"]), fmt.Sprintf("%.1f", mv.M["move_ms"]),
		int(mv.M["moved_notes"]), int(mv.M["catchup_rounds"]), int(mv.M["generation"]), int(mv.M["redirects"]))
	fmt.Println("  Phase A: live move under a streaming writer")
	ta.print()
	if mv.M["lost_acked"] == 0 {
		fmt.Println("  (invariant: zero acknowledged writes lost across the move)")
	}

	re := w6Rehome(pick(quick, 12, 6), pick(quick, 20, 8), pick(quick, 8, 4), pick(quick, 6, 3))
	tb := newTable("dbs", "mates", "dead homed", "acked", "lost acked",
		"rehome median ms", "rehome max ms", "redirects")
	tb.add(int(re.M["databases"]), int(re.M["mates"]), int(re.M["dead_homed"]), int(re.M["acked"]),
		int(re.M["lost_acked"]), fmt.Sprintf("%.1f", re.M["rehome_median_ms"]),
		fmt.Sprintf("%.1f", re.M["rehome_max_ms"]), int(re.M["redirects"]))
	fmt.Println("  Phase B: kill the mate homing the largest namespace share, re-home onto survivors")
	tb.print()
	if re.M["lost_acked"] == 0 {
		fmt.Println("  (invariant: zero acknowledged writes lost across the mate kill + re-home)")
	}
	saveBaseline("W6", quick, []row{mv, re})
}
