// Command dominod runs a Domino-style server: it serves a data directory of
// NSF databases over the wire protocol and runs the router and replicator
// background tasks described by its configuration file.
//
// Usage:
//
//	dominod -config server.conf
//
// Configuration file format (one directive per line, '#' comments):
//
//	name   hub                              # server name (must be a user)
//	data   /var/domino/data                 # data directory
//	listen 0.0.0.0:1352                     # bind address
//	secret srv-secret                       # this server's peer secret
//	user   ada pw-ada mail/ada.nsf          # name secret [mailfile [server]]
//	user   bob pw-bob mail/bob.nsf spoke
//	group  supporters ada,bob
//	db     apps/tickets.nsf Helpdesk        # pre-open path [title]
//	ftindex apps/tickets.nsf                # full-text index this db at boot
//	peer   spoke 10.0.0.2:1352              # peer name and address
//	replicate spoke apps/tickets.nsf 30s    # replicate one db with a peer: a hot
//	                                        # two-way mesh link, 30s catch-up floor
//	route  10s                              # router interval
//	cluster spoke                           # event-driven push to this peer
//	catalog 5m                              # catalog refresh interval
//	monitor 100                             # log an event every N changes per db
//	agent  apps/tickets.nsf escalate 1m     # run a stored agent on a schedule
//	fault  seed=7,sever=0.01,delay=0.1,maxdelay=5ms   # inject network faults
//	syncwal                                 # fsync the WAL on every operation
//	archivelog /var/domino/walog            # archive sealed WAL segments here
//	backup /var/domino/backup 6h 4          # scheduled backups: root, interval,
//	                                        # and (optionally) a full image every
//	                                        # Nth run (incrementals between;
//	                                        # 0 = always full)
//	maxinflight 256                         # admission control: in-flight cap
//	admitwait 100ms                         # max queue wait before shedding busy
//	drain 15s                               # graceful-drain timeout on shutdown
//	advertise 10.0.0.1:1352                 # address redirects report for this
//	                                        # mate (when listen is a wildcard)
//	placement apps/tickets.nsf hub,spoke 2  # pin a database's home mates
//	                                        # [replica factor]
//	placement auto 2                        # rendezvous-assign every unpinned
//	                                        # pre-opened db across the cluster
//	meshlink east spoke *.nsf hot 30s both  # epidemic mesh link: name, peer,
//	                                        # glob, hot|cold, interval,
//	                                        # pull|push|both, then optionally
//	                                        # a selection formula verbatim
//	topology /var/domino/mesh.topo          # shared topology file; this server
//	                                        # takes the links it is the source of
//
// Mesh links (meshlink directives plus this server's lines of the topology
// file) start the mesh scheduler: hot links replicate off the changefeed
// (debounced), cold links run jittered anti-entropy rounds, and links to
// unreachable peers back off behind a circuit breaker. Links can also be
// added and removed at runtime with nsfadmin mesh.
//
// The fault directive (or the -fault flag, which overrides it) wraps the
// listener in a seeded fault injector — connections randomly dropped,
// delayed, truncated, or severed — for soak-testing replication and
// client retry behavior against an unreliable network.
//
// Cluster mates can also be named on the command line with repeatable
// -cluster name=addr flags (added to any config "cluster" directives; the
// address registers the peer too, so no separate "peer" line is needed).
//
// Runtime quiesce/resume directives are delivered as signals: SIGUSR1
// puts the server in RESTRICTED drain mode (new sessions refused, probes
// answer RESTRICTED, in-flight work finishes, cluster pushers flush) and
// SIGUSR2 resumes service. SIGTERM/SIGINT gracefully drain (bounded by
// the drain timeout) before closing, so a planned restart shifts clients
// to their failover mates instead of stranding them mid-request.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	domino "repro"
	"repro/internal/faultnet"
	"repro/internal/mesh"
)

type replicaJob struct {
	peer     string
	dbPath   string
	interval time.Duration
}

// replicateLinkName names the mesh link of a replicate directive.
func replicateLinkName(peer, dbPath string) string {
	return "replicate-" + strings.ToLower(peer) + "-" + dbPath
}

// link is the mesh link a replicate directive stands for: hot, both
// directions, covering exactly the one database.
func (j replicaJob) link() mesh.Link {
	return mesh.Link{
		Name:      replicateLinkName(j.peer, j.dbPath),
		Peer:      j.peer,
		Glob:      j.dbPath,
		Direction: mesh.Both,
		Class:     mesh.Hot,
		Interval:  j.interval,
		Debounce:  250 * time.Millisecond,
	}
}

type config struct {
	name        string
	data        string
	listen      string
	secret      string
	directory   *domino.Directory
	peers       map[string]string
	preopen     [][2]string // path, title
	ftindex     []string    // databases to full-text index at boot
	jobs        []replicaJob
	routeTick   time.Duration
	clusterWith []string
	catalogTick time.Duration
	monitorN    int
	agents      []agentJob
	faultSpec   string
	syncWAL     bool
	archiveLog  string
	backupDir   string
	backupTick  time.Duration
	backupFullN int // a full image every Nth backup run (0 = every run)
	maxInFlight int
	admitWait   time.Duration
	peerBudget  time.Duration // deadline budget for ops to peers (0 = none)
	drain       time.Duration // graceful-drain timeout on shutdown
	advertise   string
	placements  []placementDecl
	autoPlace   int // rendezvous-assign unpinned dbs at this replica factor
	meshLinks   []mesh.Link
	topoPath    string // shared topology file; resolved against cfg.name
}

type placementDecl struct {
	path     string
	home     []string
	replicas int
}

type agentJob struct {
	dbPath   string
	name     string
	interval time.Duration
}

func parseConfig(path string) (*config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cfg := &config{
		directory: domino.NewDirectory(),
		peers:     make(map[string]string),
		listen:    "127.0.0.1:1352",
		routeTick: 15 * time.Second,
	}
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		bad := func(why string) error {
			return fmt.Errorf("%s:%d: %s: %q", path, lineNo, why, line)
		}
		switch fields[0] {
		case "name":
			if len(fields) != 2 {
				return nil, bad("name wants 1 argument")
			}
			cfg.name = fields[1]
		case "data":
			if len(fields) != 2 {
				return nil, bad("data wants 1 argument")
			}
			cfg.data = fields[1]
		case "listen":
			if len(fields) != 2 {
				return nil, bad("listen wants 1 argument")
			}
			cfg.listen = fields[1]
		case "secret":
			if len(fields) != 2 {
				return nil, bad("secret wants 1 argument")
			}
			cfg.secret = fields[1]
		case "user":
			if len(fields) < 3 || len(fields) > 5 {
				return nil, bad("user wants 2-4 arguments")
			}
			u := domino.User{Name: fields[1], Secret: fields[2]}
			if len(fields) > 3 {
				u.MailFile = fields[3]
			}
			if len(fields) > 4 {
				u.MailServer = fields[4]
			}
			if err := cfg.directory.AddUser(u); err != nil {
				return nil, bad(err.Error())
			}
		case "group":
			if len(fields) != 3 {
				return nil, bad("group wants 2 arguments")
			}
			if err := cfg.directory.AddGroup(fields[1], strings.Split(fields[2], ",")...); err != nil {
				return nil, bad(err.Error())
			}
		case "db":
			if len(fields) < 2 {
				return nil, bad("db wants at least 1 argument")
			}
			title := fields[1]
			if len(fields) > 2 {
				title = strings.Join(fields[2:], " ")
			}
			cfg.preopen = append(cfg.preopen, [2]string{fields[1], title})
		case "ftindex":
			if len(fields) != 2 {
				return nil, bad("ftindex wants 1 argument")
			}
			cfg.ftindex = append(cfg.ftindex, fields[1])
		case "peer":
			if len(fields) != 3 {
				return nil, bad("peer wants 2 arguments")
			}
			cfg.peers[strings.ToLower(fields[1])] = fields[2]
		case "replicate":
			if len(fields) != 4 {
				return nil, bad("replicate wants 3 arguments")
			}
			d, err := time.ParseDuration(fields[3])
			if err != nil {
				return nil, bad(err.Error())
			}
			cfg.jobs = append(cfg.jobs, replicaJob{peer: fields[1], dbPath: fields[2], interval: d})
		case "route":
			if len(fields) != 2 {
				return nil, bad("route wants 1 argument")
			}
			d, err := time.ParseDuration(fields[1])
			if err != nil {
				return nil, bad(err.Error())
			}
			cfg.routeTick = d
		case "cluster":
			if len(fields) != 2 {
				return nil, bad("cluster wants 1 argument")
			}
			cfg.clusterWith = append(cfg.clusterWith, fields[1])
		case "catalog":
			if len(fields) != 2 {
				return nil, bad("catalog wants 1 argument")
			}
			d, err := time.ParseDuration(fields[1])
			if err != nil {
				return nil, bad(err.Error())
			}
			cfg.catalogTick = d
		case "monitor":
			if len(fields) != 2 {
				return nil, bad("monitor wants 1 argument")
			}
			if _, err := fmt.Sscanf(fields[1], "%d", &cfg.monitorN); err != nil || cfg.monitorN <= 0 {
				return nil, bad("monitor wants a positive change threshold")
			}
		case "fault":
			if len(fields) != 2 {
				return nil, bad("fault wants 1 argument")
			}
			if _, err := faultnet.ParsePlan(fields[1]); err != nil {
				return nil, bad(err.Error())
			}
			cfg.faultSpec = fields[1]
		case "syncwal":
			if len(fields) != 1 {
				return nil, bad("syncwal wants no arguments")
			}
			cfg.syncWAL = true
		case "archivelog":
			if len(fields) != 2 {
				return nil, bad("archivelog wants 1 argument")
			}
			cfg.archiveLog = fields[1]
		case "backup":
			if len(fields) < 3 || len(fields) > 4 {
				return nil, bad("backup wants 2-3 arguments")
			}
			d, err := time.ParseDuration(fields[2])
			if err != nil {
				return nil, bad(err.Error())
			}
			cfg.backupDir = fields[1]
			cfg.backupTick = d
			if len(fields) == 4 {
				if _, err := fmt.Sscanf(fields[3], "%d", &cfg.backupFullN); err != nil || cfg.backupFullN < 0 {
					return nil, bad("backup wants a non-negative full-image cadence")
				}
			}
		case "maxinflight":
			if len(fields) != 2 {
				return nil, bad("maxinflight wants 1 argument")
			}
			if _, err := fmt.Sscanf(fields[1], "%d", &cfg.maxInFlight); err != nil || cfg.maxInFlight == 0 {
				return nil, bad("maxinflight wants a non-zero request cap (negative disables admission)")
			}
		case "admitwait":
			if len(fields) != 2 {
				return nil, bad("admitwait wants 1 argument")
			}
			d, err := time.ParseDuration(fields[1])
			if err != nil {
				return nil, bad(err.Error())
			}
			cfg.admitWait = d
		case "peerbudget":
			if len(fields) != 2 {
				return nil, bad("peerbudget wants 1 argument")
			}
			d, err := time.ParseDuration(fields[1])
			if err != nil {
				return nil, bad(err.Error())
			}
			cfg.peerBudget = d
		case "drain":
			if len(fields) != 2 {
				return nil, bad("drain wants 1 argument")
			}
			d, err := time.ParseDuration(fields[1])
			if err != nil {
				return nil, bad(err.Error())
			}
			cfg.drain = d
		case "advertise":
			if len(fields) != 2 {
				return nil, bad("advertise wants 1 argument")
			}
			cfg.advertise = fields[1]
		case "placement":
			if len(fields) >= 2 && fields[1] == "auto" {
				if len(fields) != 3 {
					return nil, bad("placement auto wants a replica factor")
				}
				if _, err := fmt.Sscanf(fields[2], "%d", &cfg.autoPlace); err != nil || cfg.autoPlace <= 0 {
					return nil, bad("placement auto wants a positive replica factor")
				}
				break
			}
			if len(fields) < 3 || len(fields) > 4 {
				return nil, bad("placement wants path, home mates, and optionally a replica factor")
			}
			decl := placementDecl{path: fields[1], home: strings.Split(fields[2], ",")}
			if len(fields) == 4 {
				if _, err := fmt.Sscanf(fields[3], "%d", &decl.replicas); err != nil || decl.replicas <= 0 {
					return nil, bad("placement wants a positive replica factor")
				}
			}
			cfg.placements = append(cfg.placements, decl)
		case "meshlink":
			l, err := mesh.ParseLink(fields[1:])
			if err != nil {
				return nil, bad(err.Error())
			}
			cfg.meshLinks = append(cfg.meshLinks, l)
		case "topology":
			if len(fields) != 2 {
				return nil, bad("topology wants 1 argument")
			}
			cfg.topoPath = fields[1]
		case "agent":
			if len(fields) != 4 {
				return nil, bad("agent wants 3 arguments")
			}
			d, err := time.ParseDuration(fields[3])
			if err != nil {
				return nil, bad(err.Error())
			}
			cfg.agents = append(cfg.agents, agentJob{dbPath: fields[1], name: fields[2], interval: d})
		default:
			return nil, bad("unknown directive")
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cfg.name == "" || cfg.data == "" {
		return nil, fmt.Errorf("%s: 'name' and 'data' are required", path)
	}
	return cfg, nil
}

// clusterFlag collects repeatable -cluster name=addr mate declarations.
type clusterFlag []string

func (c *clusterFlag) String() string { return strings.Join(*c, ",") }
func (c *clusterFlag) Set(v string) error {
	if _, _, ok := strings.Cut(v, "="); !ok {
		return fmt.Errorf("want name=addr, got %q", v)
	}
	*c = append(*c, v)
	return nil
}

func main() {
	configPath := flag.String("config", "server.conf", "configuration file")
	faultSpec := flag.String("fault", "",
		"network fault plan, e.g. seed=7,sever=0.01,delay=0.1,maxdelay=5ms (overrides config)")
	syncWAL := flag.Bool("syncwal", false, "fsync the WAL on every operation (overrides config)")
	groupCommit := flag.Duration("groupcommit", 0,
		"how long a lone -syncwal commit waits for company before forcing the WAL (e.g. 200us); concurrent writers always share one force")
	var clusterMates clusterFlag
	flag.Var(&clusterMates, "cluster",
		"cluster mate as name=addr (repeatable; adds to config cluster/peer directives)")
	flag.Parse()
	cfg, err := parseConfig(*configPath)
	if err != nil {
		log.Fatalf("dominod: %v", err)
	}
	if *syncWAL {
		cfg.syncWAL = true
	}
	for _, m := range clusterMates {
		name, addr, _ := strings.Cut(m, "=")
		cfg.peers[strings.ToLower(name)] = addr
		cfg.clusterWith = append(cfg.clusterWith, name)
	}
	srv, err := domino.NewServer(domino.ServerOptions{
		Name:              cfg.name,
		DataDir:           cfg.data,
		Directory:         cfg.directory,
		Peers:             cfg.peers,
		PeerSecret:        cfg.secret,
		SyncWAL:           cfg.syncWAL,
		GroupCommitWindow: *groupCommit,
		ArchiveLogDir:     cfg.archiveLog,
		MaxInFlight:       cfg.maxInFlight,
		AdmitWait:         cfg.admitWait,
		PeerOpBudget:      cfg.peerBudget,
		AdvertiseAddr:     cfg.advertise,
	})
	if err != nil {
		log.Fatalf("dominod: %v", err)
	}
	for _, pre := range cfg.preopen {
		if _, err := srv.OpenDB(pre[0], domino.Options{Title: pre[1]}); err != nil {
			log.Fatalf("dominod: open %s: %v", pre[0], err)
		}
		log.Printf("opened database %s", pre[0])
	}
	for _, path := range cfg.ftindex {
		db, err := srv.OpenDB(path, domino.Options{})
		if err != nil {
			log.Fatalf("dominod: ftindex %s: %v", path, err)
		}
		if err := db.EnableFullText(); err != nil {
			log.Fatalf("dominod: ftindex %s: %v", path, err)
		}
		log.Printf("full-text index enabled on %s", path)
	}
	spec := cfg.faultSpec
	if *faultSpec != "" {
		spec = *faultSpec
	}
	var addr string
	if spec != "" {
		plan, err := faultnet.ParsePlan(spec)
		if err != nil {
			log.Fatalf("dominod: fault plan: %v", err)
		}
		ln, err := net.Listen("tcp", cfg.listen)
		if err != nil {
			log.Fatalf("dominod: listen: %v", err)
		}
		addr = srv.Serve(faultnet.New(plan).Listener(ln))
		log.Printf("FAULT INJECTION ACTIVE: %s", spec)
	} else {
		addr, err = srv.Start(cfg.listen)
		if err != nil {
			log.Fatalf("dominod: listen: %v", err)
		}
	}
	log.Printf("server %q serving %s on %s", cfg.name, cfg.data, addr)
	if len(cfg.clusterWith) > 0 {
		mates := make(map[string]string, len(cfg.clusterWith))
		for _, name := range cfg.clusterWith {
			peerAddr, ok := cfg.peers[strings.ToLower(name)]
			if !ok {
				log.Fatalf("dominod: cluster mate %q has no peer address", name)
			}
			mates[name] = peerAddr
		}
		srv.EnableClustering(mates)
		log.Printf("cluster push enabled to %v", cfg.clusterWith)
	}
	if cfg.monitorN > 0 {
		srv.EnableMonitor(cfg.monitorN)
		log.Printf("event monitor enabled (threshold %d changes)", cfg.monitorN)
	}
	// Replication mesh: links from meshlink directives, this server's lines
	// of the shared topology file, and one hot two-way link per replicate
	// directive (local writes trigger a debounced round; the interval is the
	// catch-up floor for remote changes). A bad link (unknown peer is fine —
	// the breaker handles that — but a bad formula or glob is not) is a
	// startup error.
	meshLinks := append([]mesh.Link(nil), cfg.meshLinks...)
	if cfg.topoPath != "" {
		tf, err := os.Open(cfg.topoPath)
		if err != nil {
			log.Fatalf("dominod: topology: %v", err)
		}
		topo, err := mesh.ParseTopology(tf)
		tf.Close()
		if err != nil {
			log.Fatalf("dominod: topology: %v", err)
		}
		meshLinks = append(meshLinks, mesh.LinksFor(topo, cfg.name)...)
	}
	for _, job := range cfg.jobs {
		// The mesh covers open databases only.
		if _, err := srv.OpenDB(job.dbPath, domino.Options{}); err != nil {
			log.Fatalf("dominod: replication db %s: %v", job.dbPath, err)
		}
		meshLinks = append(meshLinks, job.link())
	}
	if len(meshLinks) > 0 {
		m, err := srv.EnableMesh(domino.MeshOptions{})
		if err != nil {
			log.Fatalf("dominod: mesh: %v", err)
		}
		for _, l := range meshLinks {
			if err := m.Add(l); err != nil {
				log.Fatalf("dominod: mesh: %v", err)
			}
			log.Printf("mesh link %s -> %s (glob %q %s %s every %s)",
				l.Name, l.Peer, l.Glob, l.Class, l.Direction, l.Interval)
		}
		// When a cluster pusher drops an event (mate down, queue overflow),
		// run the replicate link for that mate and database now, so catch-up
		// starts immediately instead of waiting out the interval. RunNow
		// errors only for a pair no replicate directive names.
		srv.OnClusterDrop(func(mate, dbPath string) {
			_ = m.RunNow(replicateLinkName(mate, dbPath))
		})
	}
	// Placement records: pins first (a pin wins over auto-assignment), then
	// rendezvous-assign the remaining pre-opened databases across this mate
	// and its cluster mates.
	for _, decl := range cfg.placements {
		p, err := cfg.directory.SetPlacement(decl.path, decl.home, decl.replicas)
		if err != nil {
			log.Fatalf("dominod: placement %s: %v", decl.path, err)
		}
		log.Printf("placement %s pinned to %s (gen %d)", p.Path, strings.Join(p.Home, ","), p.Generation)
	}
	if cfg.autoPlace > 0 {
		mates := append([]string{cfg.name}, cfg.clusterWith...)
		for _, pre := range cfg.preopen {
			p, err := cfg.directory.AssignPlacement(pre[0], mates, cfg.autoPlace)
			if err != nil {
				log.Fatalf("dominod: placement auto %s: %v", pre[0], err)
			}
			log.Printf("placement %s assigned to %s (gen %d)", p.Path, strings.Join(p.Home, ","), p.Generation)
		}
	}

	stop := make(chan struct{})
	// Router task.
	go func() {
		t := time.NewTicker(cfg.routeTick)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				st, err := srv.Router().RouteOnce()
				if err != nil {
					log.Printf("router: %v", err)
					continue
				}
				if st.Delivered+st.Forwarded+st.DeadLetter > 0 {
					log.Printf("router: delivered=%d forwarded=%d dead=%d",
						st.Delivered, st.Forwarded, st.DeadLetter)
				}
			}
		}
	}()
	// Agent scheduler: one manager per database (save triggers hook once),
	// named agents run on their configured intervals.
	managers := make(map[string]*domino.AgentManager)
	for _, job := range cfg.agents {
		job := job
		mgr, ok := managers[job.dbPath]
		if !ok {
			db, err := srv.OpenDB(job.dbPath, domino.Options{})
			if err != nil {
				log.Fatalf("dominod: agent db %s: %v", job.dbPath, err)
			}
			mgr, err = domino.NewAgentManager(db)
			if err != nil {
				log.Fatalf("dominod: agents in %s: %v", job.dbPath, err)
			}
			managers[job.dbPath] = mgr
		}
		go func() {
			t := time.NewTicker(job.interval)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					stats, err := mgr.Run(job.name)
					if err != nil {
						log.Printf("agent %s in %s: %v", job.name, job.dbPath, err)
						continue
					}
					if stats.Modified > 0 {
						log.Printf("agent %s in %s: examined=%d selected=%d modified=%d",
							job.name, job.dbPath, stats.Examined, stats.Selected, stats.Modified)
					}
				}
			}
		}()
	}

	// Scheduled backup task: sweep every open database into the backup
	// root. The first run (and every Nth after it, per the cadence) cuts a
	// full image; the runs between append incrementals chained on the USN
	// cursor, so between fulls only the delta is copied.
	if cfg.backupTick > 0 {
		go func() {
			t := time.NewTicker(cfg.backupTick)
			defer t.Stop()
			run := 0
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					full := cfg.backupFullN == 0 || run%cfg.backupFullN == 0
					run++
					n, err := srv.BackupAll(cfg.backupDir, full)
					kind := "incremental"
					if full {
						kind = "full"
					}
					if err != nil {
						log.Printf("backup: %d databases (%s), first error: %v", n, kind, err)
						continue
					}
					log.Printf("backup: %d databases (%s) into %s", n, kind, cfg.backupDir)
				}
			}
		}()
	}

	// Catalog task.
	if cfg.catalogTick > 0 {
		go func() {
			t := time.NewTicker(cfg.catalogTick)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					if n, err := srv.RefreshCatalog(); err != nil {
						log.Printf("catalog: %v", err)
					} else {
						log.Printf("catalog: %d entries", n)
					}
				}
			}
		}()
	}

	drainTimeout := cfg.drain
	if drainTimeout <= 0 {
		drainTimeout = 15 * time.Second
	}
	sig := make(chan os.Signal, 4)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1, syscall.SIGUSR2)
	for s := range sig {
		switch s {
		case syscall.SIGUSR1:
			// Quiesce blocks until drained (or timeout); run it off the signal
			// loop so a SIGUSR2 or SIGTERM during the drain is still handled.
			log.Printf("quiesce requested (draining up to %s)", drainTimeout)
			go func() {
				if err := srv.Quiesce(drainTimeout); err != nil {
					log.Printf("quiesce: %v", err)
				} else {
					log.Print("server RESTRICTED (drained)")
				}
			}()
		case syscall.SIGUSR2:
			srv.Resume()
			log.Print("server resumed (OPEN)")
		default:
			log.Printf("shutting down (draining up to %s)", drainTimeout)
			close(stop)
			if err := srv.Quiesce(drainTimeout); err != nil {
				log.Printf("drain: %v", err)
			}
			if err := srv.Close(); err != nil {
				log.Printf("close: %v", err)
			}
			return
		}
	}
}
