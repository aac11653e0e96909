package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/bench/kit"
	"repro/internal/core"
	"repro/internal/ft"
	"repro/internal/mesh"
	"repro/internal/nsf"
)

// notes returns the last acked version of every live document.
func (e *env) notes() []*nsf.Note {
	var out []*nsf.Note
	seen := map[*model]bool{}
	for _, c := range e.clients {
		if seen[c.own] {
			continue
		}
		seen[c.own] = true
		for _, d := range c.own.docs {
			out = append(out, d.note)
		}
	}
	return out
}

// waitConverged waits until b holds exactly a's documents at a's versions.
func waitConverged(a, b *node) error {
	for deadline := time.Now().Add(30 * time.Second); ; {
		fa, err := mesh.FingerprintDB(a.db)
		if err != nil {
			return err
		}
		fb, err := mesh.FingerprintDB(b.db)
		if err != nil {
			return err
		}
		if fa.Digest == fb.Digest {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s (%d notes) and %s (%d notes) did not converge", a.name, fa.Notes, b.name, fb.Notes)
		}
		runtime.Gosched()
	}
}

// verifySearches holds one search in a hundred against ft.ScanSearch over
// the model: once the system is quiet, the incrementally maintained index
// must select exactly what a linear scan of the acked documents selects. A
// scan of the corpus is slow, so the checks stop after two seconds.
func (e *env) verifySearches() {
	searches := merged(e.clients, kit.Search).Count()
	notes := e.notes()
	c := e.clients[0]
	stop := time.Now().Add(2 * time.Second)
	for i := 0; i < (searches+99)/100 && time.Now().Before(stop); i++ {
		q := c.queries[(i*37+int(e.cfg.seed))%len(c.queries)]
		got, err := c.db.Search(q)
		if err == nil {
			var want []ft.Result
			want, err = ft.ScanSearch(q, func(fn func(*nsf.Note) bool) error {
				for _, n := range notes {
					if !fn(n) {
						break
					}
				}
				return nil
			})
			if err == nil && !sameDocs(got, want) {
				err = fmt.Errorf("search %q: the index finds %d documents, a scan of the corpus %d", q, len(got), len(want))
			}
		}
		e.check(err)
	}
}

func sameDocs(a, b []ft.Result) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[nsf.UNID]bool, len(a))
	for _, r := range a {
		in[r.UNID] = true
	}
	for _, r := range b {
		if !in[r.UNID] {
			return false
		}
		delete(in, r.UNID)
	}
	return true
}

// verifyDurable is the durability check: it copies the page file, the WAL
// and the sidecar as they lie on disk, without closing the database, opens
// the copy and requires every acked document at its acked version or later
// and every acked deletion as a stub. What was only in the process's
// memory is not in the copy.
func (e *env) verifyDurable() error {
	copyDir := filepath.Join(e.dir, "copy")
	if err := os.Mkdir(copyDir, 0o755); err != nil {
		return err
	}
	files, err := filepath.Glob(filepath.Join(e.home.opts.DataDir, dbPath+"*"))
	if err != nil {
		return err
	}
	for _, f := range files {
		if err := copyFile(f, filepath.Join(copyDir, filepath.Base(f))); err != nil {
			return err
		}
	}
	db, err := core.Open(filepath.Join(copyDir, dbPath), core.Options{})
	if err != nil {
		return fmt.Errorf("opening the copy: %w", err)
	}
	defer db.Close()
	for _, c := range e.clients {
		for _, d := range c.own.docs {
			n, err := db.RawGet(d.unid())
			if err != nil || n.IsStub() || n.OID.Seq < d.seq {
				return fmt.Errorf("acked document %s (seq %d) is not in the copy: %v", d.unid(), d.seq, err)
			}
		}
		for _, u := range c.ackedDeletes {
			if n, err := db.RawGet(u); err != nil || !n.IsStub() {
				return fmt.Errorf("acked deletion of %s is not a stub in the copy: %v", u, err)
			}
		}
	}
	return nil
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}

// reopen restarts the server that holds the data, before the measured
// window so that every run restarts the same database, and times each
// restart from server.New to the first view page served: three times, and
// up to five while that costs under two seconds, best of all. What
// disturbs a restart (the collector's phase, the disk, a neighbour on the
// host) only ever slows it. The clients reconnect afterwards.
func (e *env) reopen(layer metrics) error {
	for _, c := range e.clients {
		c.fc.Close()
	}
	n := e.target()
	var times []float64
	for total := 0.0; len(times) < 3 || (len(times) < 5 && total < 2000); {
		if err := n.srv.Close(); err != nil {
			return err
		}
		// Every restart begins with the closed server's memory collected,
		// not with whatever share of it the collector has got to.
		runtime.GC()
		t0 := time.Now()
		if err := n.open(nsf.ReplicaID{}); err != nil {
			return err
		}
		if err := n.serve(); err != nil {
			return err
		}
		fc, db, err := dialFailover([]string{n.addr}, nil)
		if err != nil {
			return err
		}
		p, err := db.ViewPage(sortedView, 0, pageRows)
		ms := time.Since(t0).Seconds() * 1e3
		times = append(times, ms)
		total += ms
		fc.Close()
		if err != nil {
			return err
		}
		if len(p.Rows) == 0 {
			return errors.New("the first view page after a restart is empty")
		}
	}
	layer.set("server.reopen_ms", slices.Min(times), len(times))
	return e.connect()
}

// storedRatio closes the server that holds the data and holds what the
// database occupies on disk against the bytes its users have stored in it.
func (e *env) storedRatio(e2e metrics) error {
	n := e.target()
	if err := n.srv.Close(); err != nil {
		return err
	}
	stored, err := n.storedBytes()
	if err != nil {
		return err
	}
	var user int64
	for _, note := range e.notes() {
		user += userBytes(note)
	}
	e2e.set("bytes_per_user_byte", float64(stored)/float64(user), 0)
	return nil
}
