// Package check states the system's replication promises once, as code
// over *core.Database, so that tests, experiments and the benchmark all
// ask the same question the same way:
//
//   - Replicas that share a replica ID converge: after quiescence they hold
//     the same replicated notes at the same versions with the same content
//     (Fingerprint, Converged, WaitConverged; Identical for full replicas).
//   - An acknowledged write survives, an acknowledged deletion is a stub, a
//     create re-issued after an ambiguous failure lands once, and an
//     operation refused before execution leaves no trace (Model.Durable).
//
// The package imports only core and nsf, so every package above core —
// mesh included, from its own tests — can use it. Deciding whether a wire
// error means acked, ambiguous or refused is the caller's job.
package check

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/nsf"
)

// Print is one replica's convergence fingerprint.
type Print struct {
	// Digest is the hex SHA-256 over the sorted (UNID, Seq, SeqTime,
	// deleted) tuples of every replicated note. A selection stub counts as
	// the live version whose OID it carries, so a selective replica and a
	// full one digest alike.
	Digest string
	// Notes is the number of notes digested, Live those that are not
	// stubs, Conflicts the conflict documents among them, and SelStubs the
	// selection stubs.
	Notes, Live, Conflicts, SelStubs int

	notes map[nsf.UNID]entry
}

// entry is what convergence compares of one note.
type entry struct {
	oid     nsf.OID
	deleted bool     // a deletion stub (a selection stub is not one)
	live    bool     // not a stub of either kind: content is comparable
	content [32]byte // canonical content digest, when live
}

func (e entry) String() string {
	return fmt.Sprintf("seq %d time %d deleted=%v live=%v", e.oid.Seq, e.oid.SeqTime, e.deleted, e.live)
}

// Fingerprint reads every replicated note of db: every class but
// ClassReplFormula, whose notes (replication cursors, unread tables) are
// local bookkeeping and never replicate.
func Fingerprint(db *core.Database) (Print, error) {
	p := Print{notes: map[nsf.UNID]entry{}}
	err := db.ScanAll(func(n *nsf.Note) bool {
		if n.Class == nsf.ClassReplFormula {
			return true
		}
		e := entry{oid: n.OID, deleted: n.IsStub() && !n.IsSelStub(), live: !n.IsStub()}
		if e.live {
			e.content = n.CanonicalDigest()
			p.Live++
		}
		if n.IsConflict() {
			p.Conflicts++
		}
		if n.IsSelStub() {
			p.SelStubs++
		}
		p.notes[n.OID.UNID] = e
		return true
	})
	if err != nil {
		return p, err
	}
	h := sha256.New()
	for _, u := range sortedUNIDs(p.notes) {
		e := p.notes[u]
		var t [29]byte
		copy(t[:16], u[:])
		binary.BigEndian.PutUint32(t[16:], e.oid.Seq)
		binary.BigEndian.PutUint64(t[20:], uint64(e.oid.SeqTime))
		if e.deleted {
			t[28] = 1
		}
		h.Write(t[:])
	}
	p.Notes = len(p.notes)
	p.Digest = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// Converged returns nil when every database holds the same replicated
// state: the same notes, each at the same (Seq, SeqTime) with the same
// deletion flag, and the same content wherever both copies are live. A
// selection stub matches the live copy it withholds. Otherwise the error
// names the first difference found.
func Converged(dbs ...*core.Database) error { return compare(false, dbs) }

// Identical is Converged for replicas that replicate in full, where a
// selection stub is always a fault: it also fails if any replica holds one.
func Identical(dbs ...*core.Database) error { return compare(true, dbs) }

func compare(full bool, dbs []*core.Database) error {
	var first Print
	for i, db := range dbs {
		p, err := Fingerprint(db)
		if err != nil {
			return err
		}
		if full && p.SelStubs > 0 {
			return fmt.Errorf("check: replica %d holds %d selection stubs", i, p.SelStubs)
		}
		if i == 0 {
			first = p
		} else if err := differ(first, p); err != nil {
			return fmt.Errorf("check: replicas 0 and %d diverge: %w", i, err)
		}
	}
	return nil
}

// differ names the first difference between two fingerprints, in UNID
// order so that the message is stable.
func differ(a, b Print) error {
	for _, u := range sortedUNIDs(a.notes, b.notes) {
		ea, inA := a.notes[u]
		eb, inB := b.notes[u]
		switch {
		case !inA:
			return fmt.Errorf("note %s only in the second (%s)", u, eb)
		case !inB:
			return fmt.Errorf("note %s only in the first (%s)", u, ea)
		case ea.oid != eb.oid || ea.deleted != eb.deleted:
			return fmt.Errorf("note %s: %s against %s", u, ea, eb)
		case ea.live && eb.live && ea.content != eb.content:
			return fmt.Errorf("note %s: equal versions (%s) with different content", u, ea)
		}
	}
	return nil
}

// sortedUNIDs returns the keys of every map, once each, in order.
func sortedUNIDs[V any](maps ...map[nsf.UNID]V) []nsf.UNID {
	var unids []nsf.UNID
	seen := map[nsf.UNID]bool{}
	for _, m := range maps {
		for u := range m {
			if !seen[u] {
				seen[u] = true
				unids = append(unids, u)
			}
		}
	}
	sort.Slice(unids, func(i, j int) bool { return bytes.Compare(unids[i][:], unids[j][:]) < 0 })
	return unids
}

// WaitConverged polls Converged until it holds or within has passed. It
// returns how long it waited and the last verdict.
func WaitConverged(within time.Duration, dbs ...*core.Database) (time.Duration, error) {
	start := time.Now()
	for {
		err := Converged(dbs...)
		if err == nil || time.Since(start) > within {
			return time.Since(start), err
		}
		time.Sleep(5 * time.Millisecond)
	}
}
