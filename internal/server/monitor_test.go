package server

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/nsf"
	"repro/internal/repl"
)

func TestMonitorCountsAndLogsThresholdEvents(t *testing.T) {
	tn := newTestNet(t)
	tn.hub.EnableMonitor(10)
	db, err := tn.hub.OpenDB("apps/watched.nsf", core.Options{Title: "watched"})
	if err != nil {
		t.Fatal(err)
	}
	sess := db.Session("admin")
	for i := 0; i < 25; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", fmt.Sprintf("doc %d", i))
		if err := sess.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	// The monitor consumes the changefeed asynchronously.
	db.Refresh()
	if got := tn.hub.ActivityCounts()["apps/watched.nsf"]; got != 25 {
		t.Errorf("activity count = %d, want 25", got)
	}
	// 25 changes at threshold 10 -> two threshold events in the log.
	logDB, ok := tn.hub.DB(LogPath)
	if !ok {
		t.Fatal("log.nsf missing")
	}
	waitFor(t, "monitor threshold events", func() bool {
		events := 0
		logDB.ScanAll(func(n *nsf.Note) bool {
			if n.Text("Kind") == LogMonitor {
				events++
			}
			return true
		})
		return events == 2
	})
	report := tn.hub.MonitorReport()
	found := false
	for _, line := range report {
		if strings.Contains(line, "apps/watched.nsf: 25 changes") && strings.Contains(line, "feed usn=") {
			found = true
		}
	}
	if !found {
		t.Errorf("monitor report = %q", report)
	}
}

// TestMonitorCountsReplicatedDocumentsOnly replicates documents into a
// monitored database: the activity count moves by exactly the documents
// applied, not by the replication history the session saves.
func TestMonitorCountsReplicatedDocumentsOnly(t *testing.T) {
	tn := newTestNet(t)
	tn.hub.EnableMonitor(1000)
	db, err := tn.hub.OpenDB("apps/watched.nsf", core.Options{Title: "watched"})
	if err != nil {
		t.Fatal(err)
	}
	src, err := core.Open(filepath.Join(t.TempDir(), "src.nsf"), core.Options{ReplicaID: db.ReplicaID()})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for i := 0; i < 7; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", fmt.Sprintf("doc %d", i))
		if err := src.Session("admin").Create(n); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := repl.Replicate(db, &repl.LocalPeer{DB: src}, repl.Options{PeerName: "src"})
	if err != nil {
		t.Fatal(err)
	}
	db.Refresh()
	if got := tn.hub.ActivityCounts()["apps/watched.nsf"]; stats.Pull.Added != 7 || got != 7 {
		t.Errorf("activity count = %d after a session applying %d documents, want 7", got, stats.Pull.Added)
	}
}

func TestMonitorSkipsServerPrivateDBs(t *testing.T) {
	tn := newTestNet(t)
	tn.hub.EnableMonitor(1)
	// Force log traffic; the monitor must not observe log.nsf (feedback loop).
	tn.hub.LogEvent(LogAdmin, "hello", nil)
	counts := tn.hub.ActivityCounts()
	for _, private := range []string{LogPath, CatalogPath, "mail.box"} {
		if _, ok := counts[private]; ok {
			t.Errorf("monitor hooked server-private database %s", private)
		}
	}
}

func TestCatalogCarriesFeedCounters(t *testing.T) {
	tn := newTestNet(t)
	db, err := tn.hub.OpenDB("apps/feedstats.nsf", core.Options{Title: "fs"})
	if err != nil {
		t.Fatal(err)
	}
	sess := db.Session("admin")
	for i := 0; i < 5; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.SetText("Subject", "x")
		if err := sess.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tn.hub.RefreshCatalog(); err != nil {
		t.Fatal(err)
	}
	cat, _ := tn.hub.DB(CatalogPath)
	var usn float64
	seen := false
	cat.ScanAll(func(n *nsf.Note) bool {
		if n.Text("Form") == "Catalog" && n.Text("Path") == "apps/feedstats.nsf" {
			usn = n.Number("ChangeUSN")
			seen = n.Has("ChangeMaxLag") && n.Has("ChangeResyncs") && n.Has("ChangeDroppedSubs")
		}
		return true
	})
	if !seen {
		t.Fatal("catalog doc missing feed counters")
	}
	if usn < 5 {
		t.Errorf("ChangeUSN = %v, want >= 5", usn)
	}
}
