package main

import (
	"errors"
	"fmt"
	"log"
	"runtime"
	"sync"
	"time"

	domino "repro"
	invariant "repro/internal/check"
)

// --- W5: availability under node loss and overload ---
//
// The availability layer's two claims, measured end to end:
//
// Phase A: when a cluster mate dies mid-session, a failover client rebinds
// to the survivor within one op's retry window and no acknowledged write is
// lost — every create the client saw succeed is on the survivor after the
// dead mate's file is caught up.
//
// Phase B: under 2x overload, admission control sheds the excess with busy
// responses instead of queueing it, so the latency of *accepted* requests
// stays bounded where the unbounded server's p99 grows with the backlog —
// and once the load stops, the goroutine count returns to its baseline
// (shed work never started, so there is nothing to leak).

const w5Path = "apps/w5.nsf"

// w5Failover runs Phase A: a two-mate cluster, a failover client creating
// documents, the primary killed halfway through.
func w5Failover(docs int) row {
	c := newCluster(mates("alpha", "beta")...)
	defer c.close()
	dbs := c.openAll(w5Path)
	c.push("alpha", "beta")

	fc := c.dial(domino.FailoverOptions{
		Client: domino.ClientOptions{BackoffBase: 5 * time.Millisecond, DialTimeout: 2 * time.Second},
	})
	defer fc.Close()
	db, err := fc.OpenDB(w5Path)
	if err != nil {
		log.Fatal(err)
	}

	killAt := docs / 2
	model := invariant.NewModel()
	acked := 0
	var window time.Duration
	for i := 0; i < docs; i++ {
		if i == killAt {
			c.kill("alpha")
		}
		n := domino.NewDocument()
		n.SetText("Subject", fmt.Sprintf("w5 doc %d", i))
		start := time.Now()
		o, _ := model.Create(db, n, 0)
		if i == killAt {
			window = time.Since(start)
		}
		if o == invariant.Acked {
			acked++
		}
	}

	// Restart the dead mate and catch its file up into the survivor, then
	// check every acknowledged write is there. Writes acked by alpha before
	// the kill were cluster-pushed, but the push is asynchronous — the
	// catch-up replication is what the restarted mate would run.
	c.restart("alpha")
	if _, err := domino.Replicate(c.db("alpha", w5Path), &domino.LocalPeer{DB: dbs[1]},
		domino.ReplicationOptions{PeerName: "catchup"}); err != nil {
		log.Fatal(err)
	}
	lost := model.Durable(dbs[1]).Lost
	return newRow("failover", "docs", docs, "acked", acked, "lost_acked", lost,
		"failover_window_ms", msf(window), "failovers", fc.Stats().Failovers)
}

// w5Overload runs Phase B in one admission mode: `clients` connections all
// issuing creates as fast as they can against a server whose in-flight
// pool (if any) is a fraction of that.
func w5Overload(mode string, maxInFlight, clients int, dur time.Duration) row {
	// SyncWAL pins the service rate to the fsync path: writes serialize on
	// the log, so offered load from `clients` connections is a genuine
	// multiple of capacity no matter how many cores the host has.
	c := newCluster(mate{name: "w5b", opts: domino.ServerOptions{
		SyncWAL: true, MaxInFlight: maxInFlight, AdmitWait: 5 * time.Millisecond}})
	defer c.close()
	c.openAll(w5Path)

	// No client-side retries: a shed must surface (and be counted), not be
	// silently absorbed by backoff. Every handle is bound before any worker
	// starts: opens go through the same admission gate as everything else,
	// so an open racing the overload would itself be shed.
	copts := domino.ClientOptions{MaxRetries: -1, DialTimeout: 2 * time.Second}
	rdbs := make([]*domino.RemoteDB, clients)
	for i := range rdbs {
		cl, rdb := c.remote("w5b", w5Path, copts)
		defer cl.Close()
		rdbs[i] = rdb
	}
	goroBase := runtime.NumGoroutine()

	var mu sync.Mutex
	var lat recorder
	var shed uint64
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for i, rdb := range rdbs {
		wg.Add(1)
		go func(i int, rdb *domino.RemoteDB) {
			defer wg.Done()
			var mine recorder
			var myShed uint64
			body := string(make([]byte, 4096))
			for j := 0; time.Now().Before(deadline); j++ {
				n := domino.NewDocument()
				n.SetText("Subject", fmt.Sprintf("w5b %d/%d", i, j))
				n.SetText("Body", body)
				start := time.Now()
				err := rdb.Create(n)
				switch {
				case err == nil:
					mine.since(start)
				case isBusy(err):
					myShed++
				default:
					log.Fatal(err)
				}
			}
			mu.Lock()
			lat.merge(mine)
			shed += myShed
			mu.Unlock()
		}(i, rdb)
	}
	wg.Wait()

	// Shed work never started, so nothing lingers: after the load stops the
	// goroutine count settles back to (at most) its pre-load level.
	goroAfter := 0
	for i := 0; i < 100; i++ {
		if goroAfter = runtime.NumGoroutine(); goroAfter <= goroBase {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	return newRow("overload "+mode, "clients", clients, "max_in_flight", maxInFlight,
		"accepted", lat.n(), "sheds", shed, "goodput_per_sec", float64(lat.n())/dur.Seconds(),
		"accepted_p50_ms", msf(lat.pct(0.50)), "accepted_p99_ms", msf(lat.pct(0.99)),
		"goroutines_base", goroBase, "goroutines_after", goroAfter)
}

func isBusy(err error) bool {
	var be *domino.BusyError
	return errors.As(err, &be)
}

func runW5(quick bool) {
	// Widen the scheduler so the overload clients genuinely overlap.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))

	fa := w5Failover(pick(quick, 60, 20))
	rows := []row{fa}
	ta := newTable("docs", "acked", "lost acked", "failover window ms", "failovers")
	ta.add(int(fa.M["docs"]), int(fa.M["acked"]), int(fa.M["lost_acked"]),
		fmt.Sprintf("%.1f", fa.M["failover_window_ms"]), int(fa.M["failovers"]))
	fmt.Println("  Phase A: kill a cluster mate mid-session (failover client)")
	ta.print()
	if check(fa.M["lost_acked"] == 0, "W5: %.0f acknowledged writes lost across the node kill", fa.M["lost_acked"]) {
		fmt.Println("  (invariant: zero acknowledged writes lost across the node kill)")
	}

	clients := pick(quick, 32, 8)
	maxIF := pick(quick, 4, 2)
	dur := time.Duration(pick(quick, 2000, 500)) * time.Millisecond
	tb := newTable("mode", "clients", "pool", "accepted", "sheds", "goodput/s", "p50 ms", "p99 ms")
	for _, m := range []struct {
		name string
		mif  int
	}{{"admission", maxIF}, {"unbounded", -1}} {
		r := w5Overload(m.name, m.mif, clients, dur)
		rows = append(rows, r)
		pool := fmt.Sprint(m.mif)
		if m.mif < 0 {
			pool = "∞"
		}
		tb.add(m.name, clients, pool, int(r.M["accepted"]), int(r.M["sheds"]),
			fmt.Sprintf("%.0f", r.M["goodput_per_sec"]),
			fmt.Sprintf("%.2f", r.M["accepted_p50_ms"]), fmt.Sprintf("%.2f", r.M["accepted_p99_ms"]))
	}
	fmt.Println("  Phase B: 2x+ offered overload, admission control vs unbounded")
	tb.print()
	fmt.Println("  (shape check: admission sheds the excess and keeps accepted p99 near the")
	fmt.Println("   pool's service time; unbounded queues everything and p99 grows with it)")
	saveBaseline("W5", quick, rows)
}
