package server

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/nsf"
	"repro/internal/wire"
)

// TestResolvePlacementProbe: the unauthenticated OpResolve probe reports a
// placed database's generation and home set (with addresses), an unplaced
// database as generation 0 / no homes, and lists every record.
func TestResolvePlacementProbe(t *testing.T) {
	p := newFailoverPair(t)
	p.start(t)
	p.hub.SetPeers(map[string]string{"spoke": p.spokeAddr})

	info, err := wire.ResolvePlacement(p.hubAddr, "apps/db.nsf", nil, 0)
	if err != nil {
		t.Fatalf("resolve unplaced: %v", err)
	}
	if !info.Unplaced() {
		t.Fatalf("unplaced database resolved to %+v", info)
	}

	if _, err := p.dir.SetPlacement("apps/db.nsf", []string{"spoke", "hub"}, 2); err != nil {
		t.Fatal(err)
	}
	info, err = wire.ResolvePlacement(p.hubAddr, "apps/db.nsf", nil, 0)
	if err != nil {
		t.Fatalf("resolve placed: %v", err)
	}
	if info.Generation != 1 || len(info.Homes) != 2 {
		t.Fatalf("resolve = %+v", info)
	}
	byName := map[string]string{}
	for _, h := range info.Homes {
		byName[h.Name] = h.Addr
	}
	if byName["spoke"] != p.spokeAddr {
		t.Errorf("spoke addr = %q, want %q (peer map)", byName["spoke"], p.spokeAddr)
	}
	if byName["hub"] != p.hubAddr {
		t.Errorf("hub addr = %q, want %q (advertise)", byName["hub"], p.hubAddr)
	}

	all, err := wire.ListPlacements(p.hubAddr, nil, 0)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(all) != 1 || all[0].Path != "apps/db.nsf" {
		t.Fatalf("list = %+v", all)
	}

	// Resolution still answers while the mate drains.
	if err := p.hub.Quiesce(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ResolvePlacement(p.hubAddr, "apps/db.nsf", nil, 0); err != nil {
		t.Errorf("resolve while draining: %v", err)
	}
	p.hub.Resume()
}

// TestWrongMateSurfacedOnBareClient: a plain Client opening a database its
// mate does not home gets a WrongMateError carrying the home set — and the
// error is not retried (the mate would only redirect again).
func TestWrongMateSurfacedOnBareClient(t *testing.T) {
	p := newFailoverPair(t)
	p.start(t)
	p.hub.SetPeers(map[string]string{"spoke": p.spokeAddr})
	if _, err := p.dir.SetPlacement("apps/db.nsf", []string{"spoke"}, 1); err != nil {
		t.Fatal(err)
	}

	c, err := wire.DialOptions(p.hubAddr, "ada", "ada-pw", fastClientOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.OpenDB("apps/db.nsf")
	var wme *wire.WrongMateError
	if !errors.As(err, &wme) {
		t.Fatalf("open on non-home mate: %v, want WrongMateError", err)
	}
	if !errors.Is(err, wire.ErrWrongMate) {
		t.Error("errors.Is(err, ErrWrongMate) = false")
	}
	if wme.Generation != 1 || len(wme.Homes) != 1 || wme.Homes[0].Name != "spoke" || wme.Homes[0].Addr != p.spokeAddr {
		t.Errorf("redirect payload = %+v", wme)
	}
	if wire.Retryable(err) {
		t.Error("WrongMateError classified retryable")
	}
}

// TestFailoverClientRoutesToHomeMate: a FailoverClient configured with the
// non-home mate first still lands the open on the home mate, via the eager
// resolve (or the redirect), without surfacing any error.
func TestFailoverClientRoutesToHomeMate(t *testing.T) {
	p := newFailoverPair(t)
	p.start(t)
	p.hub.SetPeers(map[string]string{"spoke": p.spokeAddr})
	p.spoke.SetPeers(map[string]string{"hub": p.hubAddr})
	if _, err := p.dir.SetPlacement("apps/db.nsf", []string{"spoke"}, 1); err != nil {
		t.Fatal(err)
	}

	// Hub listed first: the client connects there, resolves, and must move.
	fc, err := wire.DialFailover([]string{p.hubAddr, p.spokeAddr}, "ada", "ada-pw",
		wire.FailoverOptions{Client: fastClientOpts(), Cooldown: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	db, err := fc.OpenDB("apps/db.nsf")
	if err != nil {
		t.Fatalf("open via non-home mate: %v", err)
	}
	if cur, _ := fc.Current(); cur != p.spokeAddr {
		t.Errorf("connected to %s, want home mate %s", cur, p.spokeAddr)
	}
	gen, homes, resolved := db.Placement()
	if !resolved || gen != 1 || len(homes) != 1 || homes[0].Name != "spoke" {
		t.Errorf("cached placement = gen %d homes %+v resolved %v", gen, homes, resolved)
	}
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Subject", "routed")
	if err := db.Create(n); err != nil {
		t.Fatalf("create after routing: %v", err)
	}
	if _, err := p.spokeDB.RawGet(n.OID.UNID); err != nil {
		t.Errorf("document not on home mate: %v", err)
	}
	st := fc.Stats()
	if st.Resolves == 0 {
		t.Error("no resolve issued")
	}
}

// TestPerOpRedirectAfterPlacementFlip: a client mid-session on the home mate
// keeps working transparently when placement flips to the other mate — the
// per-op check redirects, the client adopts the new home set, re-routes, and
// the op succeeds. The stale handle never costs the caller an error.
func TestPerOpRedirectAfterPlacementFlip(t *testing.T) {
	p := newFailoverPair(t)
	p.start(t)
	p.hub.SetPeers(map[string]string{"spoke": p.spokeAddr})
	p.spoke.SetPeers(map[string]string{"hub": p.hubAddr})
	if _, err := p.dir.SetPlacement("apps/db.nsf", []string{"hub"}, 1); err != nil {
		t.Fatal(err)
	}

	fc, err := wire.DialFailover([]string{p.hubAddr, p.spokeAddr}, "ada", "ada-pw",
		wire.FailoverOptions{Client: fastClientOpts(), Cooldown: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	db, err := fc.OpenDB("apps/db.nsf")
	if err != nil {
		t.Fatal(err)
	}
	n := nsf.NewNote(nsf.ClassDocument)
	n.SetText("Subject", "before flip")
	if err := db.Create(n); err != nil {
		t.Fatal(err)
	}
	if cur, _ := fc.Current(); cur != p.hubAddr {
		t.Fatalf("connected to %s, want %s before flip", cur, p.hubAddr)
	}

	// Flip placement hub -> spoke (generation 2). The client's cache is now
	// stale; its next op on the hub must redirect.
	if _, err := p.dir.UpdatePlacement("apps/db.nsf", 1, []string{"spoke"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get(n.OID.UNID); err == nil {
		// The doc only exists on the hub; after the flip the spoke serves
		// the path but lacks the data (no move ran). Either outcome —
		// not-found or success via replication — must come from the spoke.
	}
	if cur, _ := fc.Current(); cur != p.spokeAddr {
		t.Errorf("connected to %s after flip, want %s", cur, p.spokeAddr)
	}
	gen, homes, _ := db.Placement()
	if gen != 2 || len(homes) != 1 || homes[0].Name != "spoke" {
		t.Errorf("cache after flip = gen %d homes %+v", gen, homes)
	}
	st := fc.Stats()
	if st.WrongMateRedirects == 0 {
		t.Error("flip produced no WrongMate redirect")
	}

	// New writes land on the new home.
	n2 := nsf.NewNote(nsf.ClassDocument)
	n2.SetText("Subject", "after flip")
	if err := db.Create(n2); err != nil {
		t.Fatalf("create after flip: %v", err)
	}
	if _, err := p.spokeDB.RawGet(n2.OID.UNID); err != nil {
		t.Errorf("post-flip document not on new home: %v", err)
	}
}

// TestPlacementInCatalogAndMonitor: placement records show up in the catalog
// document fields and the monitor report.
func TestPlacementInCatalogAndMonitor(t *testing.T) {
	p := newFailoverPair(t)
	p.start(t)
	if _, err := p.dir.SetPlacement("apps/db.nsf", []string{"spoke"}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.hub.RefreshCatalog(); err != nil {
		t.Fatal(err)
	}
	cat, ok := p.hub.DB(CatalogPath)
	if !ok {
		t.Fatal("no catalog")
	}
	doc, err := cat.RawGet(catalogDocUNID("hub", "apps/db.nsf"))
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Text("PlacementHome"); got != "spoke" {
		t.Errorf("PlacementHome = %q", got)
	}
	if got := doc.Number("PlacementGen"); got != 1 {
		t.Errorf("PlacementGen = %v", got)
	}
	found := false
	for _, line := range p.hub.MonitorReport() {
		if strings.Contains(line, "placement apps/db.nsf") &&
			strings.Contains(line, "gen=1") && strings.Contains(line, "not homed here") {
			found = true
		}
	}
	if !found {
		t.Errorf("monitor report lacks placement line: %q", p.hub.MonitorReport())
	}
}
