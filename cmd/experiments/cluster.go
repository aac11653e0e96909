package main

import (
	"fmt"
	"log"
	"time"

	domino "repro"
	"repro/internal/repl"
)

// T8 — change-propagation latency: event-driven cluster push vs scheduled
// replication. The claim: clustering delivers saves to the mate in
// milliseconds, while a scheduled replicator's expected latency is half its
// interval — which is why Domino clusters push.

const t8Path = "apps/t8.nsf"

// measurePropagation creates docs on the first database, spacing apart, and
// records how long each takes to become visible on the second.
func measurePropagation(dbs []*domino.Database, docs int, spacing time.Duration) recorder {
	sess := dbs[0].Session("ada")
	var lat recorder
	for i := 0; i < docs; i++ {
		n := domino.NewDocument()
		n.SetText("Subject", fmt.Sprintf("t8 doc %d", i))
		start := time.Now()
		if err := sess.Create(n); err != nil {
			log.Fatal(err)
		}
		for time.Since(start) < 10*time.Second {
			if _, err := dbs[1].RawGet(n.OID.UNID); err == nil {
				break
			}
			time.Sleep(time.Millisecond)
		}
		lat.since(start)
		time.Sleep(spacing)
	}
	return lat
}

func runT8(quick bool) {
	docs := pick(quick, 12, 5)
	interval := 400 * time.Millisecond

	// Mode 1: cluster push.
	c := newCluster(mates("alpha", "beta")...)
	dbs := c.openAll(t8Path)
	c.push("alpha", "beta")
	pushLat := measurePropagation(dbs, docs, 20*time.Millisecond)
	c.close()

	// Mode 2: scheduled replication at a fixed interval (background loop,
	// like a cold mesh link).
	c = newCluster(mates("alpha", "beta")...)
	dbs = c.openAll(t8Path)
	stopRepl := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stopRepl:
				return
			case <-t.C:
				_, err := c.srv["alpha"].ReplicateWith("beta", c.addr["beta"], t8Path, repl.Options{})
				if err != nil {
					log.Printf("t8 scheduled replicate: %v", err)
				}
			}
		}
	}()
	schedLat := measurePropagation(dbs, docs, 50*time.Millisecond)
	close(stopRepl)
	c.close()

	t := newTable("mode", "docs", "median latency ms", "p95 ms")
	t.add("cluster push", docs, ms(pushLat.pct(0.5)), ms(pushLat.pct(0.95)))
	t.add(fmt.Sprintf("scheduled (every %s)", interval), docs,
		ms(schedLat.pct(0.5)), ms(schedLat.pct(0.95)))
	t.print()
	fmt.Println("  (shape check: push delivers in milliseconds; scheduled latency centers")
	fmt.Println("   on ~half the replication interval)")
}
