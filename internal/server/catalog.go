package server

import (
	"crypto/sha256"
	"errors"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/nsf"
	"repro/internal/wire"
)

// The database catalog (catalog.nsf): one document per database on the
// server, refreshed by a server task, so users and administrators can
// browse what exists. Mirrors Domino's catalog task.

// CatalogPath is the catalog database's path in the data directory.
const CatalogPath = "catalog.nsf"

func catalogDocUNID(server, dbPath string) nsf.UNID {
	sum := sha256.Sum256([]byte("catalog:" + server + ":" + dbPath))
	var u nsf.UNID
	copy(u[:], sum[:16])
	return u
}

// RefreshCatalog (re)writes one catalog document per open database and
// removes entries for databases no longer present. It returns the number
// of entries written.
func (s *Server) RefreshCatalog() (int, error) {
	cat, err := s.OpenDB(CatalogPath, core.Options{Title: "Database Catalog"})
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	paths := make([]string, 0, len(s.dbs))
	dbs := make(map[string]*core.Database, len(s.dbs))
	for path, db := range s.dbs {
		if path == CatalogPath {
			continue
		}
		paths = append(paths, path)
		dbs[path] = db
	}
	s.mu.Unlock()
	sort.Strings(paths)

	valid := make(map[nsf.UNID]bool, len(paths))
	written := 0
	for _, path := range paths {
		db := dbs[path]
		unid := catalogDocUNID(s.opts.Name, path)
		valid[unid] = true
		n, err := cat.RawGet(unid)
		if errors.Is(err, core.ErrNotFound) {
			n = &nsf.Note{OID: nsf.OID{UNID: unid}, Class: nsf.ClassDocument, Created: s.clock.Now()}
			err = nil
		}
		if err != nil {
			return written, err
		}
		stats := db.Stats()
		n.SetWithFlags("Form", nsf.TextValue("Catalog"), nsf.FlagSummary)
		n.SetWithFlags("Server", nsf.TextValue(s.opts.Name), nsf.FlagSummary)
		n.SetWithFlags("Path", nsf.TextValue(path), nsf.FlagSummary)
		n.SetWithFlags("Title", nsf.TextValue(db.Title()), nsf.FlagSummary)
		n.SetWithFlags("ReplicaID", nsf.TextValue(db.ReplicaID().String()), nsf.FlagSummary)
		n.SetNumber("Notes", float64(stats.Notes))
		n.SetNumber("Pages", float64(stats.Pages))
		// Change-propagation health: the store's USN, how far the
		// maintainer lags it, and how many consumers were dropped.
		n.SetNumber("ChangeUSN", float64(stats.Feed.LastUSN))
		n.SetNumber("ChangeMaxLag", float64(stats.Feed.MaxLag))
		dropped := 0.0
		for _, sub := range stats.Feed.Subscribers {
			if sub.Dropped {
				dropped++
			}
		}
		n.SetNumber("ChangeDroppedSubs", dropped)
		// Placement: which mates home this database and at what generation.
		// "*" means unplaced — any mate serves it.
		if p, ok := s.opts.Directory.GetPlacement(path); ok {
			n.SetWithFlags("PlacementHome", nsf.TextValue(strings.Join(p.Home, ",")), nsf.FlagSummary)
			n.SetNumber("PlacementGen", float64(p.Generation))
			n.SetNumber("PlacementReplicas", float64(p.Replicas))
		} else {
			n.SetWithFlags("PlacementHome", nsf.TextValue("*"), nsf.FlagSummary)
			n.SetNumber("PlacementGen", 0)
			n.SetNumber("PlacementReplicas", 0)
		}
		// Backup health: the USN the newest image captured and how stale it
		// is. BackupAgeSecs is -1 for a database never backed up this run —
		// the monitorable "this database has no recent backup" signal.
		if bs, ok := s.LastBackup(path); ok {
			n.SetNumber("BackupUSN", float64(bs.USN))
			n.SetNumber("BackupAgeSecs", float64(s.clock.Now()-bs.At)/1e9)
		} else {
			n.SetNumber("BackupUSN", 0)
			n.SetNumber("BackupAgeSecs", -1)
		}
		n.OID.Seq++
		n.OID.SeqTime = s.clock.Now()
		n.Modified = s.clock.Now()
		if err := cat.RawPut(n); err != nil {
			return written, err
		}
		written++
	}
	// Cluster-mate health docs: how many USNs each mate's push trails, so
	// an administrator browsing the catalog sees which mate is behind.
	upsert := func(unid nsf.UNID, form string, set func(n *nsf.Note)) error {
		valid[unid] = true
		n, err := cat.RawGet(unid)
		if errors.Is(err, core.ErrNotFound) {
			n = &nsf.Note{OID: nsf.OID{UNID: unid}, Class: nsf.ClassDocument, Created: s.clock.Now()}
			err = nil
		}
		if err != nil {
			return err
		}
		n.SetWithFlags("Form", nsf.TextValue(form), nsf.FlagSummary)
		n.SetWithFlags("Server", nsf.TextValue(s.opts.Name), nsf.FlagSummary)
		set(n)
		n.OID.Seq++
		n.OID.SeqTime = s.clock.Now()
		n.Modified = s.clock.Now()
		return cat.RawPut(n)
	}
	for _, p := range s.pushers() {
		err := upsert(catalogDocUNID(s.opts.Name, "clustermate:"+p.mate), "ClusterMate", func(n *nsf.Note) {
			n.SetWithFlags("Mate", nsf.TextValue(p.mate), nsf.FlagSummary)
			n.SetText("Addr", p.addr)
			n.SetNumber("Behind", float64(p.lag()))
		})
		if err != nil {
			return written, err
		}
		written++
	}
	// Mesh link docs: one per configured replication link, carrying the
	// link's definition and live counters (rounds, failures, breaker state,
	// lag) so an administrator browsing the catalog sees the mesh's health.
	if m := s.Mesh(); m != nil {
		for _, st := range m.Status() {
			err := upsert(catalogDocUNID(s.opts.Name, "meshlink:"+st.Name), "MeshLink", func(n *nsf.Note) {
				n.SetWithFlags("Link", nsf.TextValue(st.Name), nsf.FlagSummary)
				n.SetWithFlags("Peer", nsf.TextValue(st.Peer), nsf.FlagSummary)
				n.SetText("Glob", st.Glob)
				n.SetText("Formula", st.Formula)
				n.SetText("Direction", st.Direction.String())
				n.SetText("Class", st.Class.String())
				n.SetNumber("Rounds", float64(st.Rounds))
				n.SetNumber("Failures", float64(st.Failures))
				breaker := 0.0
				if st.BreakerOpen {
					breaker = 1
				}
				n.SetNumber("BreakerOpen", breaker)
				n.SetNumber("SkippedDBs", float64(st.SkippedDBs))
				n.SetNumber("NotesIn", float64(st.NotesIn))
				n.SetNumber("NotesOut", float64(st.NotesOut))
				n.SetNumber("LagSecs", st.Lag.Seconds())
				n.SetText("Note", st.Note)
			})
			if err != nil {
				return written, err
			}
			written++
		}
	}
	// Server health doc: the availability index and admission counters —
	// the catalog entry a cluster-aware client or admin reads to decide
	// where work should go.
	h := s.Health()
	state := "OPEN"
	if h.State == wire.StateRestricted {
		state = "RESTRICTED"
	}
	err = upsert(catalogDocUNID(s.opts.Name, "health:server"), "ServerHealth", func(n *nsf.Note) {
		n.SetWithFlags("State", nsf.TextValue(state), nsf.FlagSummary)
		n.SetNumber("AvailabilityIndex", float64(h.Index))
		n.SetNumber("InFlight", float64(h.InFlight))
		n.SetNumber("Queued", float64(h.Queued))
		n.SetNumber("Sheds", float64(h.Sheds))
		n.SetNumber("PanicsRecovered", float64(h.Panics))
		n.SetNumber("LatencyUs", float64(h.Latency.Microseconds()))
		n.SetNumber("Dispatched", float64(h.Dispatched))
		n.SetNumber("DeadlineSheds", float64(h.DeadlineSheds))
		n.SetNumber("DeadlineAborts", float64(h.DeadlineAborts))
	})
	if err != nil {
		return written, err
	}
	written++

	// Drop catalog docs for databases (and mates) that disappeared.
	catalogForms := map[string]bool{"Catalog": true, "ClusterMate": true, "ServerHealth": true, "MeshLink": true}
	var stale []nsf.UNID
	err = cat.ScanAll(func(n *nsf.Note) bool {
		if n.Class == nsf.ClassDocument && !n.IsStub() &&
			catalogForms[n.Text("Form")] && !valid[n.OID.UNID] {
			stale = append(stale, n.OID.UNID)
		}
		return true
	})
	if err != nil {
		return written, err
	}
	for _, u := range stale {
		if err := cat.RawDelete(u); err != nil {
			return written, err
		}
	}
	return written, nil
}
