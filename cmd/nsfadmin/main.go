// Command nsfadmin administers local NSF database files: inspect
// statistics, compact, purge deletion stubs, list views, and dump notes —
// the jobs a Domino administrator ran as server console commands.
//
// Usage:
//
//	nsfadmin stats   DB.nsf
//	nsfadmin compact DB.nsf
//	nsfadmin purge   DB.nsf -cutoff 720h
//	nsfadmin views   DB.nsf
//	nsfadmin dump    DB.nsf [-class document|view|acl|agent|all] [-stubs]
//	nsfadmin acl     DB.nsf
//	nsfadmin verify  DB.nsf
//	nsfadmin archive DB.nsf ARCHIVE.nsf [-cutoff 2160h]
//	nsfadmin backup  DB.nsf SETDIR [-incremental]
//	nsfadmin restore SETDIR TARGET.nsf [-usn N] [-archive DIR]
//	nsfadmin verifybackup SETDIR [-archive DIR]
//	nsfadmin placement list HOST:PORT
//	nsfadmin placement resolve HOST:PORT DB.nsf
//	nsfadmin placement move SRC.nsf TARGET.nsf [-root DIR]
//	nsfadmin mesh list   HOST:PORT [-user U -secret S]
//	nsfadmin mesh status HOST:PORT [-user U -secret S]
//	nsfadmin mesh add    HOST:PORT [-user U -secret S] NAME PEER GLOB hot|cold INTERVAL pull|push|both [FORMULA...]
//	nsfadmin mesh rm     HOST:PORT [-user U -secret S] NAME
//	nsfadmin export HOST:PORT DB.nsf [-user U -secret S] [-formula F] [-columns A,B]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	domino "repro"
	"repro/internal/mesh"
)

func main() {
	if len(os.Args) < 3 {
		fmt.Fprintln(os.Stderr, "usage: nsfadmin <stats|compact|purge|views|dump|acl|verify|archive|backup|restore|verifybackup|placement|mesh> DB.nsf [flags]")
		os.Exit(2)
	}
	cmd, path, rest := os.Args[1], os.Args[2], os.Args[3:]
	// restore and verifybackup operate on a backup set, not an open
	// database (restore's target must not even exist yet).
	switch cmd {
	case "restore":
		if err := cmdRestore(path, rest); err != nil {
			log.Fatalf("nsfadmin: %v", err)
		}
		return
	case "verifybackup":
		if err := cmdVerifyBackup(path, rest); err != nil {
			log.Fatalf("nsfadmin: %v", err)
		}
		return
	case "placement":
		if err := cmdPlacement(path, rest); err != nil {
			log.Fatalf("nsfadmin: %v", err)
		}
		return
	case "mesh":
		if err := cmdMesh(path, rest); err != nil {
			log.Fatalf("nsfadmin: %v", err)
		}
		return
	case "export":
		if err := cmdExport(path, rest); err != nil {
			log.Fatalf("nsfadmin: %v", err)
		}
		return
	}
	if _, err := os.Stat(path); err != nil {
		log.Fatalf("nsfadmin: %v", err)
	}
	db, err := domino.Open(path, domino.Options{})
	if err != nil {
		log.Fatalf("nsfadmin: %v", err)
	}
	defer db.Close()

	switch cmd {
	case "stats":
		err = cmdStats(db)
	case "compact":
		err = cmdCompact(db)
	case "purge":
		err = cmdPurge(db, rest)
	case "views":
		err = cmdViews(db)
	case "dump":
		err = cmdDump(db, rest)
	case "acl":
		err = cmdACL(db)
	case "verify":
		err = cmdVerify(db)
	case "archive":
		err = cmdArchive(db, rest)
	case "backup":
		err = cmdBackup(db, rest)
	default:
		err = fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		log.Fatalf("nsfadmin: %v", err)
	}
}

func cmdStats(db *domino.Database) error {
	st := db.Stats()
	counts := make(map[string]int)
	stubs := 0
	db.ScanAll(func(n *domino.Note) bool {
		if n.IsStub() {
			stubs++
		} else {
			counts[n.Class.String()]++
		}
		return true
	})
	fmt.Printf("title:       %s\n", db.Title())
	fmt.Printf("replica id:  %s\n", db.ReplicaID())
	fmt.Printf("notes:       %d (%d stubs)\n", st.Notes, stubs)
	for class, n := range counts {
		fmt.Printf("  %-10s %d\n", class, n)
	}
	fmt.Printf("pages:       %d (%d KiB file)\n", st.Pages, st.Pages*4)
	fmt.Printf("dirty pages: %d\n", st.DirtyPages)
	fmt.Printf("wal bytes:   %d\n", st.WALBytes)
	fmt.Printf("views:       %v\n", db.ViewNames())
	return nil
}

func cmdCompact(db *domino.Database) error {
	before := db.Stats().Pages
	freed, err := db.Compact()
	if err != nil {
		return err
	}
	fmt.Printf("compacted: %d pages -> %d pages (%d reclaimed, %d KiB)\n",
		before, db.Stats().Pages, freed, freed*4)
	return nil
}

func cmdPurge(db *domino.Database, args []string) error {
	fs := flag.NewFlagSet("purge", flag.ExitOnError)
	cutoff := fs.Duration("cutoff", 90*24*time.Hour, "purge stubs older than this")
	fs.Parse(args)
	limit := domino.Timestamp(time.Now().Add(-*cutoff).UnixNano())
	purged, err := db.PurgeStubs(limit)
	if err != nil {
		return err
	}
	fmt.Printf("purged %d deletion stubs older than %s\n", purged, cutoff)
	return nil
}

func cmdViews(db *domino.Database) error {
	for _, name := range db.ViewNames() {
		ix, _ := db.View(name)
		def := ix.Definition()
		fmt.Printf("%s  (%d entries)\n", name, ix.Len())
		fmt.Printf("  selection: %s\n", def.Selection.Source())
		for _, c := range def.Columns {
			kind := "item " + c.ItemName
			if c.ItemName == "" {
				kind = "formula " + c.Formula.Source()
			}
			attrs := ""
			if c.Sorted {
				attrs += " sorted"
			}
			if c.Descending {
				attrs += " desc"
			}
			if c.Categorized {
				attrs += " categorized"
			}
			fmt.Printf("  column %-16q %s%s\n", c.Title, kind, attrs)
		}
	}
	return nil
}

func cmdDump(db *domino.Database, args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	class := fs.String("class", "document", "note class filter (document|view|acl|agent|all)")
	stubs := fs.Bool("stubs", false, "include deletion stubs")
	fs.Parse(args)
	count := 0
	err := db.ScanAll(func(n *domino.Note) bool {
		if n.IsStub() && !*stubs {
			return true
		}
		if *class != "all" && n.Class.String() != *class {
			return true
		}
		count++
		marker := ""
		if n.IsSelStub() {
			marker = " [SELSTUB]"
		} else if n.IsStub() {
			marker = " [STUB]"
		}
		if n.IsConflict() {
			marker += " [CONFLICT]"
		}
		fmt.Printf("note %d  unid %s  seq %d @ %s%s\n",
			n.ID, n.OID.UNID, n.OID.Seq, n.OID.SeqTime, marker)
		for _, it := range n.Items {
			fmt.Printf("  %-20s (%s) = %s\n", it.Name, it.Value.Type, it.Value.String())
		}
		return true
	})
	fmt.Printf("%d notes\n", count)
	return err
}

func cmdVerify(db *domino.Database) error {
	problems := db.Verify()
	if len(problems) == 0 {
		fmt.Println("database is consistent")
		return nil
	}
	for _, p := range problems {
		fmt.Println("PROBLEM:", p)
	}
	return fmt.Errorf("%d problems found", len(problems))
}

func cmdArchive(db *domino.Database, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("archive: destination database path required")
	}
	dstPath, rest := args[0], args[1:]
	fs := flag.NewFlagSet("archive", flag.ExitOnError)
	cutoff := fs.Duration("cutoff", 90*24*time.Hour, "archive documents older than this")
	fs.Parse(rest)
	dst, err := domino.Open(dstPath, domino.Options{Title: db.Title() + " (archive)"})
	if err != nil {
		return err
	}
	defer dst.Close()
	limit := domino.Timestamp(time.Now().Add(-*cutoff).UnixNano())
	stats, err := db.ArchiveTo(dst, limit)
	if err != nil {
		return err
	}
	fmt.Printf("archived %d documents (%d already present) older than %s into %s\n",
		stats.Moved, stats.Skipped, cutoff, dstPath)
	return nil
}

func cmdBackup(db *domino.Database, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("backup: backup set directory required")
	}
	setDir, rest := args[0], args[1:]
	fs := flag.NewFlagSet("backup", flag.ExitOnError)
	incremental := fs.Bool("incremental", false,
		"append an incremental image (changes since the set's newest image) instead of a full one")
	fs.Parse(rest)
	var (
		img domino.BackupImage
		err error
	)
	if *incremental {
		img, err = db.BackupIncremental(setDir)
	} else {
		img, err = db.Backup(setDir)
	}
	if err != nil {
		return err
	}
	kind := "full"
	if img.Kind == domino.BackupKindIncremental {
		kind = "incremental"
	}
	fmt.Printf("%s image seq %d: USN %d..%d, %d bytes -> %s\n",
		kind, img.Seq, img.BaseUSN, img.EndUSN, img.Size, img.Path)
	return nil
}

func cmdRestore(setDir string, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("restore: target database path required")
	}
	target, rest := args[0], args[1:]
	fs := flag.NewFlagSet("restore", flag.ExitOnError)
	usn := fs.Uint64("usn", 0, "point-in-time recovery target USN (0 = everything available)")
	archive := fs.String("archive", "", "archived WAL segment directory for roll-forward")
	fs.Parse(rest)
	db, info, err := domino.RestoreDatabase(setDir, target,
		domino.RestoreOptions{TargetUSN: *usn, ArchiveDir: *archive}, domino.Options{})
	if err != nil {
		return err
	}
	defer db.Close()
	fmt.Printf("restored %s through USN %d (%d images, %d notes from incrementals, %d archived records)\n",
		target, info.ReachedUSN, info.Images, info.Notes, info.ArchiveRecords)
	fmt.Printf("title: %s  replica id: %s  notes: %d\n", db.Title(), db.ReplicaID(), db.Count())
	return nil
}

func cmdVerifyBackup(setDir string, args []string) error {
	fs := flag.NewFlagSet("verifybackup", flag.ExitOnError)
	archive := fs.String("archive", "", "also verify this archived WAL segment directory")
	fs.Parse(args)
	r, err := domino.VerifyBackupSet(setDir, *archive)
	if err != nil {
		return err
	}
	fmt.Printf("checked %d images (%d incremental notes), %d archive segments (%d records)\n",
		r.Images, r.Notes, r.Segments, r.ArchiveRecords)
	if r.OK() {
		fmt.Println("backup set is sound")
		return nil
	}
	for _, p := range r.Problems {
		fmt.Println("PROBLEM:", p)
	}
	return fmt.Errorf("%d problems found", len(r.Problems))
}

// cmdPlacement administers the partitioned namespace. list and resolve use
// the unauthenticated resolve probe against a running mate (answered even
// while it drains); move is the offline image move — snapshot a source file
// into a backup set and materialize it at the target path — for relocating
// a database between data directories when the servers are down. Live moves
// belong to the running cluster (dominod's rebalancer / MoveDatabase).
func cmdPlacement(sub string, args []string) error {
	switch sub {
	case "list":
		if len(args) < 1 {
			return fmt.Errorf("placement list: server address required")
		}
		records, err := domino.ListPlacements(args[0], 5*time.Second)
		if err != nil {
			return err
		}
		if len(records) == 0 {
			fmt.Println("no placement records (all databases served by every mate)")
			return nil
		}
		for _, rec := range records {
			fmt.Println(formatPlacement(rec))
		}
		return nil
	case "resolve":
		if len(args) < 2 {
			return fmt.Errorf("placement resolve: server address and database path required")
		}
		rec, err := domino.ResolvePlacement(args[0], args[1], 5*time.Second)
		if err != nil {
			return err
		}
		if rec.Unplaced() {
			fmt.Printf("%-24s unplaced (served by every mate)\n", args[1])
			return nil
		}
		fmt.Println(formatPlacement(rec))
		return nil
	case "move":
		if len(args) < 2 {
			return fmt.Errorf("placement move: source and target database paths required")
		}
		src, target, rest := args[0], args[1], args[2:]
		fs := flag.NewFlagSet("placement move", flag.ExitOnError)
		root := fs.String("root", "", "backup-set directory to stage the image in (default: alongside the target)")
		fs.Parse(rest)
		setDir := *root
		if setDir == "" {
			setDir = target + ".move.bak"
		}
		db, err := domino.Open(src, domino.Options{})
		if err != nil {
			return err
		}
		img, err := db.Backup(setDir)
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		moved, info, err := domino.RestoreDatabase(setDir, target, domino.RestoreOptions{}, domino.Options{})
		if err != nil {
			return err
		}
		defer moved.Close()
		fmt.Printf("imaged %s (USN %d, %d bytes) -> %s (%d notes through USN %d)\n",
			src, img.EndUSN, img.Size, target, moved.Count(), info.ReachedUSN)
		fmt.Println("source left in place; update the directory placement record before serving the copy")
		return nil
	default:
		return fmt.Errorf("unknown placement subcommand %q (want list, resolve, or move)", sub)
	}
}

// cmdMesh administers a running server's replication mesh over the wire:
// list/status read the link table with live counters, add validates and
// starts a new link (the server compiles its selection formula before
// accepting it), rm stops one. Mesh changes need an authenticated session,
// so these take -user/-secret (before the positional link arguments).
func cmdMesh(sub string, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("mesh %s: server address required", sub)
	}
	addr, rest := args[0], args[1:]
	fs := flag.NewFlagSet("mesh "+sub, flag.ExitOnError)
	user := fs.String("user", "admin", "user to authenticate as")
	secret := fs.String("secret", "", "the user's secret")
	budget := fs.Duration("budget", 0, "per-operation deadline budget (0 = none)")
	fs.Parse(rest)
	c, err := domino.DialOptions(addr, *user, *secret, domino.ClientOptions{OpBudget: *budget})
	if err != nil {
		return err
	}
	defer c.Close()
	switch sub {
	case "list", "status":
		sts, err := c.MeshStatus()
		if err != nil {
			return err
		}
		if len(sts) == 0 {
			fmt.Println("no mesh links configured")
			return nil
		}
		for _, st := range sts {
			if sub == "list" {
				fmt.Println(formatMeshLink(st.Link))
				continue
			}
			line := fmt.Sprintf("%s rounds=%d fail=%d skipped=%d in=%d out=%d lag=%s",
				formatMeshLink(st.Link), st.Rounds, st.Failures, st.SkippedDBs,
				st.NotesIn, st.NotesOut, st.Lag.Round(time.Millisecond))
			if st.BreakerOpen {
				line += " BREAKER-OPEN"
			}
			if st.Note != "" {
				line += " (" + st.Note + ")"
			}
			fmt.Println(line)
		}
		return nil
	case "add":
		l, err := mesh.ParseLink(fs.Args())
		if err != nil {
			return fmt.Errorf("mesh add: %w", err)
		}
		if err := c.MeshAdd(l); err != nil {
			return err
		}
		fmt.Printf("added %s\n", formatMeshLink(l))
		return nil
	case "rm":
		pos := fs.Args()
		if len(pos) != 1 {
			return fmt.Errorf("mesh rm: want exactly one link name")
		}
		if err := c.MeshRemove(pos[0]); err != nil {
			return err
		}
		fmt.Printf("removed %s\n", pos[0])
		return nil
	default:
		return fmt.Errorf("unknown mesh subcommand %q (want list, status, add, or rm)", sub)
	}
}

func formatMeshLink(l domino.MeshLink) string {
	s := fmt.Sprintf("%-12s -> %-10s %s %s glob=%q every %s",
		l.Name, l.Peer, l.Class, l.Direction, l.Glob, l.Interval)
	if l.Formula != "" {
		s += fmt.Sprintf(" select %q", l.Formula)
	}
	return s
}

func formatPlacement(rec domino.ResolveInfo) string {
	homes := make([]string, 0, len(rec.Homes))
	for _, h := range rec.Homes {
		if h.Addr != "" {
			homes = append(homes, h.Name+"="+h.Addr)
		} else {
			homes = append(homes, h.Name)
		}
	}
	return fmt.Sprintf("%-24s gen=%-4d replicas=%d home=%s",
		rec.Path, rec.Generation, rec.Replicas, strings.Join(homes, ","))
}

func cmdACL(db *domino.Database) error {
	a := db.ACL()
	fmt.Printf("default: %s\n", a.Default())
	for _, e := range a.Entries() {
		fmt.Printf("%-24s %-10s %v\n", e.Name, e.Level, e.Roles)
	}
	return nil
}

// cmdExport streams a remote database over the paginated bulk scan: every
// document the user may read (optionally formula-filtered), one line per
// document with the projected items. Paging keeps every response frame
// bounded, so exporting works on databases of any size.
func cmdExport(addr string, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("export: database path required")
	}
	dbPath, rest := args[0], args[1:]
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	user := fs.String("user", "admin", "user to authenticate as")
	secret := fs.String("secret", "", "the user's secret")
	formulaSrc := fs.String("formula", "", "selection formula (empty exports all)")
	columns := fs.String("columns", "", "comma-separated items to project")
	budget := fs.Duration("budget", 0, "per-page deadline budget (0 = none)")
	fs.Parse(rest)
	c, err := domino.DialOptions(addr, *user, *secret, domino.ClientOptions{OpBudget: *budget})
	if err != nil {
		return err
	}
	defer c.Close()
	db, err := c.OpenDB(dbPath)
	if err != nil {
		return err
	}
	opts := domino.ScanOptions{Formula: *formulaSrc}
	if *columns != "" {
		opts.Columns = strings.Split(*columns, ",")
	}
	count := 0
	err = db.Scan(opts, func(row domino.ScanRow) bool {
		fmt.Printf("%s", row.UNID)
		for i, v := range row.Values {
			if v.Type == 0 {
				continue
			}
			fmt.Printf("\t%s=%s", opts.Columns[i], v.String())
		}
		fmt.Println()
		count++
		return true
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "exported %d documents\n", count)
	return nil
}
