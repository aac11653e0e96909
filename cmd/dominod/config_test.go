package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/mesh"
)

func writeConf(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "server.conf")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseConfigFull(t *testing.T) {
	path := writeConf(t, `
# a comment
name   hub
data   /tmp/data
listen 0.0.0.0:1352
secret s3cret
user   ada pw mail/ada.nsf
user   bob pw2 mail/bob.nsf spoke
user   hub hubsecret
group  team ada,bob
db     apps/app.nsf The App Title
ftindex apps/app.nsf
peer   spoke 10.0.0.2:1352
replicate spoke apps/app.nsf 30s
route  10s
cluster spoke
catalog 5m
fault  seed=7,sever=0.01,delay=0.1,maxdelay=5ms
`)
	cfg, err := parseConfig(path)
	if err != nil {
		t.Fatalf("parseConfig: %v", err)
	}
	if cfg.name != "hub" || cfg.data != "/tmp/data" || cfg.listen != "0.0.0.0:1352" || cfg.secret != "s3cret" {
		t.Errorf("basics wrong: %+v", cfg)
	}
	u, ok := cfg.directory.Lookup("bob")
	if !ok || u.MailServer != "spoke" || u.MailFile != "mail/bob.nsf" {
		t.Errorf("bob = %+v, %v", u, ok)
	}
	if groups := cfg.directory.GroupsOf("ada"); len(groups) != 1 || groups[0] != "team" {
		t.Errorf("ada groups = %v", groups)
	}
	if len(cfg.preopen) != 1 || cfg.preopen[0][0] != "apps/app.nsf" || cfg.preopen[0][1] != "The App Title" {
		t.Errorf("preopen = %v", cfg.preopen)
	}
	if len(cfg.ftindex) != 1 || cfg.ftindex[0] != "apps/app.nsf" {
		t.Errorf("ftindex = %v", cfg.ftindex)
	}
	if cfg.peers["spoke"] != "10.0.0.2:1352" {
		t.Errorf("peers = %v", cfg.peers)
	}
	if len(cfg.jobs) != 1 || cfg.jobs[0].interval != 30*time.Second {
		t.Errorf("jobs = %+v", cfg.jobs)
	}
	// A replicate directive runs as a hot two-way mesh link over exactly
	// its database; a cluster drop for that pair must find it by name.
	want := mesh.Link{Name: "replicate-spoke-apps/app.nsf", Peer: "spoke", Glob: "apps/app.nsf",
		Direction: mesh.Both, Class: mesh.Hot, Interval: 30 * time.Second, Debounce: 250 * time.Millisecond}
	if l := cfg.jobs[0].link(); l != want || l.Name != replicateLinkName("SPOKE", "apps/app.nsf") {
		t.Errorf("replicate link = %+v, want %+v", l, want)
	}
	if cfg.routeTick != 10*time.Second || cfg.catalogTick != 5*time.Minute {
		t.Errorf("ticks = %v %v", cfg.routeTick, cfg.catalogTick)
	}
	if len(cfg.clusterWith) != 1 || cfg.clusterWith[0] != "spoke" {
		t.Errorf("cluster = %v", cfg.clusterWith)
	}
	if cfg.faultSpec != "seed=7,sever=0.01,delay=0.1,maxdelay=5ms" {
		t.Errorf("faultSpec = %q", cfg.faultSpec)
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := []struct{ name, body string }{
		{"missing name", "data /tmp\n"},
		{"missing data", "name x\n"},
		{"bad directive", "name x\ndata /tmp\nbogus 1\n"},
		{"bad duration", "name x\ndata /tmp\nroute soon\n"},
		{"user too few", "name x\ndata /tmp\nuser onlyname\n"},
		{"group args", "name x\ndata /tmp\ngroup g\n"},
		{"replicate args", "name x\ndata /tmp\nreplicate spoke db.nsf\n"},
		{"dup user-group", "name x\ndata /tmp\nuser team pw\ngroup team a\n"},
		{"fault args", "name x\ndata /tmp\nfault\n"},
		{"fault bad prob", "name x\ndata /tmp\nfault sever=yes\n"},
		{"fault unknown key", "name x\ndata /tmp\nfault warp=0.5\n"},
	}
	for _, tc := range cases {
		path := writeConf(t, tc.body)
		if _, err := parseConfig(path); err == nil {
			t.Errorf("%s: config accepted", tc.name)
		}
	}
	if _, err := parseConfig(filepath.Join(t.TempDir(), "missing.conf")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestParseConfigPlacementDirectives(t *testing.T) {
	path := writeConf(t, `
name  hub
data  /tmp/data
db    apps/app.nsf App
advertise 10.0.0.1:1352
placement apps/app.nsf hub,spoke 2
placement auto 2
`)
	cfg, err := parseConfig(path)
	if err != nil {
		t.Fatalf("parseConfig: %v", err)
	}
	if cfg.advertise != "10.0.0.1:1352" {
		t.Errorf("advertise = %q", cfg.advertise)
	}
	if len(cfg.placements) != 1 {
		t.Fatalf("placements = %+v", cfg.placements)
	}
	decl := cfg.placements[0]
	if decl.path != "apps/app.nsf" || len(decl.home) != 2 || decl.home[0] != "hub" ||
		decl.home[1] != "spoke" || decl.replicas != 2 {
		t.Errorf("placement decl = %+v", decl)
	}
	if cfg.autoPlace != 2 {
		t.Errorf("autoPlace = %d", cfg.autoPlace)
	}
	for _, body := range []string{
		"name x\ndata /tmp\nadvertise\n",
		"name x\ndata /tmp\nplacement\n",
		"name x\ndata /tmp\nplacement db.nsf\n",
		"name x\ndata /tmp\nplacement db.nsf hub zero\n",
		"name x\ndata /tmp\nplacement db.nsf hub 0\n",
		"name x\ndata /tmp\nplacement auto\n",
		"name x\ndata /tmp\nplacement auto -1\n",
	} {
		if _, err := parseConfig(writeConf(t, body)); err == nil {
			t.Errorf("config accepted: %q", body)
		}
	}
}

func TestParseConfigBackupDirectives(t *testing.T) {
	path := writeConf(t, `
name  hub
data  /tmp/data
syncwal
archivelog /var/walog
backup /var/backup 6h 4
`)
	cfg, err := parseConfig(path)
	if err != nil {
		t.Fatalf("parseConfig: %v", err)
	}
	if !cfg.syncWAL {
		t.Error("syncwal directive ignored")
	}
	if cfg.archiveLog != "/var/walog" {
		t.Errorf("archivelog = %q", cfg.archiveLog)
	}
	if cfg.backupDir != "/var/backup" || cfg.backupTick != 6*time.Hour || cfg.backupFullN != 4 {
		t.Errorf("backup = %q %v %d", cfg.backupDir, cfg.backupTick, cfg.backupFullN)
	}
}

func TestParseConfigBackupDefaultsAndErrors(t *testing.T) {
	cfg, err := parseConfig(writeConf(t, "name x\ndata /tmp\nbackup /b 1h\n"))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.backupFullN != 0 {
		t.Errorf("default full cadence = %d, want 0 (always full)", cfg.backupFullN)
	}
	for _, body := range []string{
		"name x\ndata /tmp\nsyncwal on\n",
		"name x\ndata /tmp\narchivelog\n",
		"name x\ndata /tmp\nbackup /b\n",
		"name x\ndata /tmp\nbackup /b soon\n",
		"name x\ndata /tmp\nbackup /b 1h -2\n",
	} {
		if _, err := parseConfig(writeConf(t, body)); err == nil {
			t.Errorf("config accepted: %q", body)
		}
	}
}

func TestParseConfigMeshDirectives(t *testing.T) {
	path := writeConf(t, `
name  hub
data  /tmp/data
meshlink east spoke *.nsf hot 30s both
meshlink west rim disc.nsf cold 5m pull Priority >= 3
topology /var/domino/mesh.topo
`)
	cfg, err := parseConfig(path)
	if err != nil {
		t.Fatalf("parseConfig: %v", err)
	}
	if len(cfg.meshLinks) != 2 {
		t.Fatalf("meshLinks = %+v", cfg.meshLinks)
	}
	east := cfg.meshLinks[0]
	if east.Name != "east" || east.Peer != "spoke" || east.Glob != "*.nsf" ||
		east.Class != mesh.Hot || east.Interval != 30*time.Second ||
		east.Direction != mesh.Both || east.Formula != "" {
		t.Errorf("east = %+v", east)
	}
	west := cfg.meshLinks[1]
	if west.Class != mesh.Cold || west.Direction != mesh.Pull ||
		west.Formula != "Priority >= 3" || west.Interval != 5*time.Minute {
		t.Errorf("west = %+v", west)
	}
	if cfg.topoPath != "/var/domino/mesh.topo" {
		t.Errorf("topoPath = %q", cfg.topoPath)
	}
	for _, body := range []string{
		"name x\ndata /tmp\nmeshlink short spoke\n",
		"name x\ndata /tmp\nmeshlink l spoke * warm 30s both\n",
		"name x\ndata /tmp\nmeshlink l spoke * hot soon both\n",
		"name x\ndata /tmp\nmeshlink l spoke * hot 30s sideways\n",
		"name x\ndata /tmp\ntopology\n",
	} {
		if _, err := parseConfig(writeConf(t, body)); err == nil {
			t.Errorf("config accepted: %q", body)
		}
	}
}

// TestDebugServesAllocsProfile: -debug serves net/http/pprof, and the
// allocation profile a perf change starts from answers.
func TestDebugServesAllocsProfile(t *testing.T) {
	ln, err := serveDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/debug/pprof/allocs?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "heap profile") {
		t.Fatalf("/debug/pprof/allocs: status %d, body %.80q", resp.StatusCode, body)
	}
}
