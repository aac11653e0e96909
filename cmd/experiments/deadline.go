package main

import (
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	domino "repro"
	invariant "repro/internal/check"
	"repro/internal/faultnet"
)

// --- W10: end-to-end deadlines, hedged reads, and wasted work ---
//
// The deadline layer's three claims, measured end to end:
//
// Phase A: with one faultnet-stalled mate in a 3-mate cluster, hedged +
// budgeted reads cut client-observed tail latency by >= 5x against the
// deadline-less baseline (flat OpTimeout, serial failover): the hedge fires
// after a small delay and a healthy mate answers while the stalled mate is
// still sitting on the response.
//
// Phase B: under sustained overload, a caller that abandons at D either
// carries D as a wire budget (the server sheds doomed requests before
// execution and wasted work stays ~0) or it does not (the server executes
// nearly everything for callers long gone).
//
// Phase C: deadline expiry mid-write is ambiguous, so the client runs the
// safe retry protocol (read back by UNID, re-create only if absent); the
// audit below shows zero acknowledged writes lost and zero duplicated
// across stall-induced expiries and failovers.

const w10Path = "apps/w10.nsf"

// newW10Cluster boots a 3-mate read cluster serving the same `docs` UNIDs,
// whose first mate's listener sits behind a faultnet: enabling it stalls
// every conversation with that mate (frames accepted, responses never sent)
// while the other two stay healthy.
func newW10Cluster(docs int) (*cluster, []domino.UNID) {
	ms := mates("m0", "m1", "m2")
	ms[0].plan = &faultnet.Plan{Seed: 10, StallProb: 1}
	c := newCluster(ms...)
	dbs := c.openAll(w10Path)

	// Seed the first mate, then replicate in-process so every mate serves
	// the same UNIDs.
	sess := dbs[0].Session("ada")
	unids := make([]domino.UNID, docs)
	for i := range unids {
		n := domino.NewDocument()
		n.SetText("Subject", fmt.Sprintf("w10 doc %d", i))
		if err := sess.Create(n); err != nil {
			log.Fatal(err)
		}
		unids[i] = n.OID.UNID
	}
	for i, db := range dbs[1:] {
		peer := fmt.Sprintf("seed-m%d", i+1)
		if _, err := domino.Replicate(dbs[0], &domino.LocalPeer{DB: db}, domino.ReplicationOptions{PeerName: peer}); err != nil {
			log.Fatal(err)
		}
	}
	return c, unids
}

// w10TailOpts is the per-mode client configuration for Phase A. The
// baseline is the deadline-less world: a flat per-op timeout and serial
// failover, so a stalled mate costs a full OpTimeout before the client
// moves on. The hedged mode carries a budget and races a second mate after
// a fixed 12ms hedge delay.
func w10TailOpts(mode string) domino.FailoverOptions {
	opts := domino.FailoverOptions{
		Client: domino.ClientOptions{
			OpTimeout: 400 * time.Millisecond, MaxRetries: 1,
			BackoffBase: 5 * time.Millisecond, DialTimeout: 2 * time.Second,
		},
	}
	if mode == "hedged" {
		opts.Client.OpBudget = 300 * time.Millisecond
		opts.HedgeDelay = 12 * time.Millisecond
	}
	return opts
}

// w10Tail measures Phase A in one mode: each trial binds a fresh session
// whose current mate is the stalled one, turns the stall on, and times a
// single Get — the moment a user's read lands on a mate that just went
// dark.
func w10Tail(c *cluster, unids []domino.UNID, mode string, trials int) row {
	var lat recorder
	var hedges, wins uint64
	for i := 0; i < trials; i++ {
		fc := c.dial(w10TailOpts(mode))
		db, err := fc.OpenDB(w10Path)
		if err != nil {
			log.Fatal(err)
		}
		c.nets["m0"].Enable()
		start := time.Now()
		if _, err := db.Get(unids[i%len(unids)]); err != nil {
			log.Fatalf("W10 %s trial %d: %v", mode, i, err)
		}
		lat.since(start)
		c.nets["m0"].Disable()
		st := fc.Stats()
		hedges += st.Hedges
		wins += st.HedgeWins
		fc.Close()
	}
	return newRow("tail "+mode, "trials", trials, "p50_ms", msf(lat.pct(0.50)), "p99_ms", msf(lat.pct(0.99)),
		"hedges", hedges, "hedge_wins", wins)
}

// w10TailPair measures Phase A in both modes on one cluster and records the
// hedged mode's p99 speedup over the deadline-less baseline.
func w10TailPair(docs, trials int) (baseline, hedged row) {
	c, unids := newW10Cluster(docs)
	defer c.close()
	baseline = w10Tail(c, unids, "baseline", trials)
	hedged = w10Tail(c, unids, "hedged", trials)
	hedged.M["speedup_x"] = baseline.M["p99_ms"] / hedged.M["p99_ms"]
	check(hedged.M["speedup_x"] >= w10MinSpeedup, "W10: hedged p99 only %.1fx better than the stalled-mate baseline (want >= %.0fx)",
		hedged.M["speedup_x"], w10MinSpeedup)
	return baseline, hedged
}

// w10Waste measures Phase B in one mode: `clients` connections hammer an
// overloaded single-slot server whose queue wait dwarfs the caller's
// patience D. "flat-timeout" callers wait out the queue but stop caring at
// D — every completion past D is work the server did for nobody.
// "budgeted" callers carry D on the wire, so admission sheds requests that
// cannot survive the queue before they execute.
func w10Waste(mode string, clients int, abandon, dur time.Duration) row {
	// One execution slot + SyncWAL pins the service rate to the fsync path;
	// the admit queue (not busy-shedding) is where requests go to die.
	c := newCluster(mate{name: "w10b", opts: domino.ServerOptions{
		SyncWAL: true, MaxInFlight: 1, AdmitWait: 200 * time.Millisecond}})
	defer c.close()
	c.openAll(w10Path)
	srv := c.srv["w10b"]

	// No client-side retries: every outcome is counted once.
	copts := domino.ClientOptions{MaxRetries: -1, DialTimeout: 2 * time.Second}
	if mode == "budgeted" {
		copts.OpBudget = abandon
	} else {
		// Deadline-less: the client waits out the whole queue, but the
		// caller behind it abandoned the result at `abandon`.
		copts.OpTimeout = 2 * time.Second
	}
	rdbs := make([]*domino.RemoteDB, clients)
	for i := range rdbs {
		cl, rdb := c.remote("w10b", w10Path, copts)
		defer cl.Close()
		rdbs[i] = rdb
	}
	h0 := srv.Health()

	var useful atomic.Int64
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for i, rdb := range rdbs {
		wg.Add(1)
		go func(i int, rdb *domino.RemoteDB) {
			defer wg.Done()
			body := string(make([]byte, 4<<10))
			for j := 0; time.Now().Before(deadline); j++ {
				n := domino.NewDocument()
				n.SetText("Subject", fmt.Sprintf("w10b %d/%d", i, j))
				n.SetText("Body", body)
				start := time.Now()
				err := rdb.Create(n)
				switch {
				case err == nil && time.Since(start) <= abandon:
					useful.Add(1)
				case err == nil:
					// completed for a caller that had left
				case isBusy(err) || isDeadline(err):
					// shed (busy or deadline-refused): never executed
				default:
					log.Fatal(err)
				}
			}
		}(i, rdb)
	}
	wg.Wait()

	h1 := srv.Health()
	dispatched := h1.Dispatched - h0.Dispatched
	wasted := int64(dispatched) - useful.Load()
	if wasted < 0 {
		wasted = 0
	}
	ratio := 0.0
	if dispatched > 0 {
		ratio = float64(wasted) / float64(dispatched)
	}
	return newRow("waste "+mode, "clients", clients, "abandon_ms", msf(abandon),
		"dispatched", dispatched, "useful_acks", useful.Load(), "wasted", wasted, "waste_ratio", ratio,
		"busy_sheds", h1.Sheds-h0.Sheds, "deadline_sheds", h1.DeadlineSheds-h0.DeadlineSheds,
		"deadline_aborts", h1.DeadlineAborts-h0.DeadlineAborts)
}

func isDeadline(err error) bool { return errors.Is(err, domino.ErrDeadline) }

// w10WriteSafety runs Phase C: a budgeted failover client creates
// documents against a 2-mate cluster whose primary stalls a fifth of its
// connections mid-conversation, so some creates die by deadline expiry
// after the server may have applied them. The client answers every
// ambiguous outcome with the safe retry protocol: read the UNID back
// (waiting out cluster-push lag), re-create only if genuinely absent. The
// audit then reconciles the replicas in-process and checks every
// acknowledged subject exists exactly once.
func w10WriteSafety(docs int) row {
	// alpha listed first: the fixture closes it — and its cluster pusher —
	// before beta's listener goes away.
	ms := mates("alpha", "beta")
	ms[0].plan = &faultnet.Plan{Seed: 20, StallProb: 0.2}
	c := newCluster(ms...)
	defer c.close()
	dbs := c.openAll(w10Path)
	// Cluster push alpha -> beta: a create the stalled alpha applied but
	// never acknowledged still reaches beta, which is exactly what makes
	// blind re-creates dangerous and the read-back protocol necessary.
	c.push("alpha", "beta")

	fc := c.dial(domino.FailoverOptions{
		Client: domino.ClientOptions{
			OpBudget: 200 * time.Millisecond, OpTimeout: time.Second,
			MaxRetries: 1, BackoffBase: 5 * time.Millisecond, DialTimeout: 2 * time.Second,
		},
		// Short cooldown so the client keeps drifting back to the stalling
		// primary during the run: several expiry -> failover -> recover
		// cycles get exercised, not just the first.
		Cooldown: 200 * time.Millisecond,
	})
	defer fc.Close()
	db, err := fc.OpenDB(w10Path)
	if err != nil {
		log.Fatal(err)
	}

	c.nets["alpha"].Enable()
	model := invariant.NewModel()
	acked, recovered := 0, 0
	for i := 0; i < docs; i++ {
		n := domino.NewDocument()
		n.SetText("Subject", fmt.Sprintf("w10c doc %04d", i))
		// An expiry or transport death after send is ambiguous: never
		// blind-resend. Read back first, for the 75ms a cluster push may
		// take to surface a create the stalled mate applied.
		o, rec := model.Create(db, n, 75*time.Millisecond)
		if o != invariant.Acked {
			continue // never acknowledged anywhere
		}
		if rec {
			recovered++
		}
		acked++
	}
	c.nets["alpha"].Disable()

	// Reconcile the replicas in-process (pull + push), then audit against
	// the merged state.
	if _, err := domino.Replicate(dbs[0], &domino.LocalPeer{DB: dbs[1]}, domino.ReplicationOptions{PeerName: "audit"}); err != nil {
		log.Fatal(err)
	}
	audit := model.Durable(dbs[1])
	return newRow("write-safety", "docs", docs, "acked", acked, "recovered", recovered,
		"lost_acked", audit.Lost, "duplicated", audit.Duplicated)
}

const (
	w10MinSpeedup = 5.0  // acceptance: hedged p99 >= 5x better
	w10MaxWaste   = 0.10 // acceptance: budgeted waste ratio ~0 (single-core client jitter slack)
)

func runW10(quick bool) {
	fmt.Println("  Phase A: read tail with one stalled mate — flat-timeout failover vs budget+hedge")
	ta := newTable("mode", "trials", "p50 ms", "p99 ms", "hedges", "wins", "speedup")
	baseline, hedged := w10TailPair(pick(quick, 50, 20), pick(quick, 12, 6))
	rows := []row{baseline, hedged}
	for _, r := range rows {
		sp := "—"
		if x, ok := r.M["speedup_x"]; ok {
			sp = fmt.Sprintf("%.1fx", x)
		}
		ta.add(strings.TrimPrefix(r.Name, "tail "), int(r.M["trials"]), fmt.Sprintf("%.1f", r.M["p50_ms"]), fmt.Sprintf("%.1f", r.M["p99_ms"]),
			int(r.M["hedges"]), int(r.M["hedge_wins"]), sp)
	}
	ta.print()
	fmt.Printf("  hedged reads cut p99 %.1fx (target >= %.0fx)\n", hedged.M["speedup_x"], w10MinSpeedup)

	clients := 48 // same both modes: more goroutines than this adds 1-CPU client jitter, not queue
	dur := time.Duration(pick(quick, 1500, 500)) * time.Millisecond
	abandon := 8 * time.Millisecond
	fmt.Println("  Phase B: overloaded server, callers abandon at 8ms — wasted completions")
	tb := newTable("mode", "clients", "dispatched", "useful acks", "wasted", "waste ratio", "busy sheds", "deadline sheds")
	for _, mode := range []string{"flat-timeout", "budgeted"} {
		r := w10Waste(mode, clients, abandon, dur)
		rows = append(rows, r)
		tb.add(mode, clients, int(r.M["dispatched"]), int(r.M["useful_acks"]), int(r.M["wasted"]),
			r.M["waste_ratio"], int(r.M["busy_sheds"]), int(r.M["deadline_sheds"]))
		// The quick run's 500ms window is too short to hold the ratio
		// steady, so only a full run enforces the target.
		if mode == "budgeted" && r.M["waste_ratio"] > w10MaxWaste {
			if quick {
				fmt.Printf("  (quick window: budgeted waste ratio %.2f over the %.2f target)\n", r.M["waste_ratio"], w10MaxWaste)
			} else {
				check(false, "W10: budgeted waste ratio %.2f (target <= %.2f)", r.M["waste_ratio"], w10MaxWaste)
			}
		}
	}
	tb.print()
	fmt.Println("  (shape check: without budgets the server completes the queue for callers long")
	fmt.Println("   gone; with budgets, doomed requests are refused before executing)")

	fmt.Println("  Phase C: write-safety audit across deadline-expiry retries (stalling primary)")
	ws := w10WriteSafety(pick(quick, 80, 30))
	rows = append(rows, ws)
	tc := newTable("docs", "acked", "recovered", "lost acked", "duplicated")
	tc.add(int(ws.M["docs"]), int(ws.M["acked"]), int(ws.M["recovered"]), int(ws.M["lost_acked"]), int(ws.M["duplicated"]))
	tc.print()
	if check(ws.M["lost_acked"] == 0 && ws.M["duplicated"] == 0, "W10: %.0f lost, %.0f duplicated acked writes",
		ws.M["lost_acked"], ws.M["duplicated"]) {
		fmt.Println("  (invariant: zero acked writes lost or duplicated — ambiguity answered by read-back, not resend)")
	}
	saveBaseline("W10", quick, rows)
}
