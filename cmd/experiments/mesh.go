package main

import (
	"fmt"
	"log"
	"time"

	domino "repro"
	"repro/internal/faultnet"
	"repro/internal/mesh"
)

// --- W8: epidemic mesh convergence under churn ---
//
// The replication-topology claim, measured end to end over the wire: 8
// servers each holding a replica of one database, connected by a mesh of
// hot links in a ring and in a hub-and-spoke, converge to identical
// (UNID, Seq, SeqTime) fingerprints — while the network drops and severs
// connections, one node sits behind a near-total inbound partition, and
// another is killed mid-churn and restarted on a new address. The audit
// also requires zero spurious conflicts: distinct documents gossiped over
// redundant paths must never be misread as concurrent edits.
//
// A selective phase runs the selection-stub semantics over a live link: a
// document edited out of the link's selection formula must be observed as
// a selection stub at the destination, with the fingerprints still equal.

const w8Path = "apps/disc.nsf"

// w8Mesh is a mesh deployment over a cluster fixture: every server holds a
// replica of w8Path and runs the links of topo it is the source of.
type w8Mesh struct {
	*cluster
	topo []domino.TopoLink
	mesh map[string]*domino.Mesh // live servers' schedulers
}

func newW8Mesh(ms []mate, topo []domino.TopoLink) *w8Mesh {
	c := &w8Mesh{cluster: newCluster(ms...), topo: topo, mesh: map[string]*domino.Mesh{}}
	c.openAll(w8Path)
	for _, m := range ms {
		c.startMesh(m.name)
	}
	return c
}

func (c *w8Mesh) startMesh(name string) {
	m, err := c.srv[name].EnableMesh(domino.MeshOptions{
		Interval: 50 * time.Millisecond,
		Debounce: 2 * time.Millisecond,
		Cooldown: 250 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range domino.MeshLinksFor(c.topo, name) {
		if err := m.Add(l); err != nil {
			log.Fatal(err)
		}
	}
	c.mesh[name] = m
}

func (c *w8Mesh) churn(on bool) {
	for _, fn := range c.nets {
		if on {
			fn.Enable()
		} else {
			fn.Disable()
		}
	}
}

func (c *w8Mesh) write(name string, n int) {
	sess := c.db(name, w8Path).Session("ada")
	for i := 0; i < n; i++ {
		doc := domino.NewDocument()
		doc.SetText("Subject", fmt.Sprintf("%s doc %d", name, i))
		doc.SetNumber("Priority", float64(i%5))
		if err := sess.Create(doc); err != nil {
			log.Fatal(err)
		}
	}
}

// waitConverged polls the convergence audit over the live replicas; it
// returns the elapsed time and the last audit (converged or timed out).
func (c *w8Mesh) waitConverged(timeout time.Duration) (time.Duration, mesh.Audit) {
	start := time.Now()
	for {
		dbs := map[string]*domino.Database{}
		for name := range c.srv {
			dbs[name] = c.db(name, w8Path)
		}
		audit, err := mesh.AuditConvergence(dbs)
		if err != nil {
			log.Fatal(err)
		}
		if audit.Converged || time.Since(start) > timeout {
			return time.Since(start), audit
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// result checks one run's convergence invariants and records its audit and
// the traffic summed over every live link and fault injector.
func (c *w8Mesh) result(topoName string, docs int, elapsed time.Duration, audit mesh.Audit) row {
	conflicts := 0
	for _, fp := range audit.Fingerprints {
		conflicts += fp.Conflicts
	}
	check(audit.Converged, "W8 %s: replicas failed to converge", topoName)
	check(conflicts == 0, "W8 %s: %d spurious conflicts", topoName, conflicts)
	var sum domino.MeshLinkStatus
	for _, m := range c.mesh {
		for _, st := range m.Status() {
			sum.Rounds += st.Rounds
			sum.Failures += st.Failures
			sum.NotesIn += st.NotesIn
			sum.NotesOut += st.NotesOut
			sum.BytesIn += st.BytesIn
			sum.BytesOut += st.BytesOut
		}
	}
	var drops, severs int64
	for _, fn := range c.nets {
		st := fn.Stats()
		drops, severs = drops+st.Drops, severs+st.Severs
	}
	return newRow(topoName, "servers", len(c.mates), "links", len(c.topo), "docs", docs,
		"converged", audit.Converged, "converge_ms", msf(elapsed), "spurious_conflicts", conflicts,
		"rounds", sum.Rounds, "link_failures", sum.Failures,
		"notes_in", sum.NotesIn, "notes_out", sum.NotesOut,
		"bytes_in", sum.BytesIn, "bytes_out", sum.BytesOut,
		"fault_drops", drops, "fault_severs", severs)
}

// w8Churn runs one topology through the churn schedule: writes under
// drops/severs with one node partitioned, a mate killed mid-churn and
// restarted, then a clean-network convergence measurement.
func w8Churn(topoName string, servers, docsPer int, quick bool) row {
	// Base churn: random connect drops, mid-stream severs, small delays.
	// m1 additionally sits behind a near-total inbound partition.
	base := faultnet.Plan{Seed: 11, DropProb: 0.05, SeverProb: 0.01,
		DelayProb: 0.05, MaxDelay: 2 * time.Millisecond}
	partitioned := base
	partitioned.DropProb = 0.85
	names := make([]string, servers)
	ms := make([]mate, servers)
	for i := range ms {
		names[i] = fmt.Sprintf("m%d", i)
		ms[i] = mate{name: names[i], plan: &base}
	}
	ms[1].plan = &partitioned

	template := domino.MeshLink{Glob: "apps/*.nsf", Class: mesh.Hot, Interval: 50 * time.Millisecond}
	var topo []domino.TopoLink
	switch topoName {
	case "ring":
		topo = mesh.Ring(names, template)
	case "hub-spoke":
		topo = mesh.HubSpoke(names[0], names[1:], template)
	default:
		log.Fatalf("w8: unknown topology %q", topoName)
	}
	c := newW8Mesh(ms, topo)
	defer c.close()
	c.churn(true)

	// First wave of writes on every server, under faults.
	for _, name := range names {
		c.write(name, docsPer/2)
	}
	settle := 300 * time.Millisecond
	if quick {
		settle = 150 * time.Millisecond
	}
	time.Sleep(settle)

	// Kill a mate mid-churn (never the partitioned node — its outage is the
	// partition's job; never the hub, which would disconnect a spoke mesh).
	victim := names[2]
	c.kill(victim)
	delete(c.mesh, victim)
	for _, name := range names {
		if name != victim {
			c.write(name, docsPer-docsPer/2)
		}
	}
	time.Sleep(settle)
	c.restart(victim)
	c.startMesh(victim)
	c.write(victim, docsPer-docsPer/2)

	// Heal the network and measure time to convergence.
	c.churn(false)
	elapsed, audit := c.waitConverged(90 * time.Second)
	return c.result(topoName, servers*docsPer, elapsed, audit)
}

// w8Selective runs the selection-stub phase: a two-server link whose
// selection formula excludes low-priority documents. A document edited out
// of the selection must land as a selection stub at the destination — not
// silently linger — and the fingerprints must still converge.
func w8Selective(docs int) row {
	link := domino.MeshLink{
		Name: "sel-link", Peer: "dst",
		Glob: "apps/*.nsf", Class: mesh.Hot, Interval: 50 * time.Millisecond,
		Formula: "Priority >= 2",
	}
	c := newW8Mesh(mates("src", "dst"), []domino.TopoLink{{Server: "src", Link: link}})
	defer c.close()

	sess := c.db("src", w8Path).Session("ada")
	var edited []*domino.Note
	for i := 0; i < docs; i++ {
		doc := domino.NewDocument()
		doc.SetText("Subject", fmt.Sprintf("sel doc %d", i))
		doc.SetNumber("Priority", 3)
		if err := sess.Create(doc); err != nil {
			log.Fatal(err)
		}
		if i%2 == 0 {
			edited = append(edited, doc)
		}
	}
	if _, audit := c.waitConverged(30 * time.Second); !audit.Converged {
		log.Fatal("w8 selective: initial convergence failed")
	}
	// Edit half the documents out of the selection.
	for _, doc := range edited {
		doc.SetNumber("Priority", 0)
		if err := sess.Update(doc); err != nil {
			log.Fatal(err)
		}
	}
	elapsed, audit := c.waitConverged(30 * time.Second)

	dstDB := c.db("dst", w8Path)
	stubs := 0
	for _, doc := range edited {
		if n, err := dstDB.RawGet(doc.OID.UNID); err == nil && n.IsSelStub() {
			stubs++
		}
	}
	r := c.result("selective", docs, elapsed, audit)
	r.M["sel_stubs"] = float64(stubs)
	return r
}

func runW8(quick bool) {
	failedBefore := len(violations)
	servers := pick(quick, 8, 4)
	docsPer := pick(quick, 12, 6)
	selDocs := pick(quick, 12, 6)
	rows := []row{
		w8Churn("ring", servers, docsPer, quick),
		w8Churn("hub-spoke", servers, docsPer, quick),
		w8Selective(selDocs),
	}
	tab := newTable("topology", "servers", "links", "docs", "converged", "converge ms",
		"conflicts", "rounds", "fail", "in", "out", "drops", "severs")
	for _, r := range rows {
		tab.add(r.Name, int(r.M["servers"]), int(r.M["links"]), int(r.M["docs"]), r.M["converged"] == 1,
			fmt.Sprintf("%.0f", r.M["converge_ms"]), int(r.M["spurious_conflicts"]),
			int(r.M["rounds"]), int(r.M["link_failures"]), int(r.M["notes_in"]), int(r.M["notes_out"]),
			int(r.M["fault_drops"]), int(r.M["fault_severs"]))
	}
	tab.print()
	fmt.Println("  (ring and hub-spoke kill m2 mid-churn and restart it on a new port)")
	stubs, deselected := int(rows[2].M["sel_stubs"]), (selDocs+1)/2
	check(stubs == deselected, "W8 selective: only %d/%d deselected docs observed as selection stubs", stubs, deselected)
	if len(violations) == failedBefore {
		fmt.Println("  (invariants: identical fingerprints on every replica, zero spurious conflicts,")
		fmt.Printf("   every deselected document observed as a selection stub — %d/%d)\n", stubs, deselected)
	}
	saveBaseline("W8", quick, rows)
}
