package repl

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	gosync "sync" // the test package declares a helper named sync

	"repro/internal/core"
	"repro/internal/formula"
	"repro/internal/nsf"
	"repro/internal/store"
)

// Options configure one replication session.
type Options struct {
	// PeerName identifies the remote instance for history bookkeeping
	// (e.g. a server name or file path). Required for incremental
	// replication; when empty, every session starts from USN zero and
	// records no history: a full exchange.
	PeerName string
	// Apply tunes local conflict handling.
	Apply ApplyOptions
	// Formula is a selective-replication formula source applied in both
	// directions (evaluated on whichever side holds the notes). Empty
	// replicates everything. Documents outside the selection travel as
	// selection stubs (identity only), never silently — see the package
	// comment. Call Prepare to compile and validate it once up front;
	// otherwise Replicate compiles it (cached) at session start and
	// returns a typed *FormulaError on a bad source.
	Formula string
	// compiled is the Prepare-validated form of Formula.
	compiled *formula.Formula
	// PullOnly disables the push phase.
	PullOnly bool
	// PushOnly disables the pull phase.
	PushOnly bool
	// BatchSize bounds how many notes travel in one Fetch or Apply round
	// trip (default 128). Smaller batches bound frame sizes and shrink the
	// work lost when a flaky link severs mid-transfer: applied batches are
	// durable, and a retried session skips them via the OID rules.
	BatchSize int
}

// defaultBatchSize is the Fetch/Apply batch bound when Options.BatchSize
// is unset.
const defaultBatchSize = 128

func (o Options) batchSize() int {
	if o.BatchSize > 0 {
		return o.BatchSize
	}
	return defaultBatchSize
}

// history tracks the cursors of past sessions with a peer. It lives in a
// note of class ClassReplFormula, which never replicates (cursors are
// meaningful only to this instance).
type history struct {
	LastPull store.Cursor // peer's scan cursor after the last pull
	LastPush store.Cursor // local scan cursor after the last push
}

// cursorValue stores a cursor as 16 raw bytes: incarnation, then USN.
func cursorValue(c store.Cursor) nsf.Value {
	b := binary.LittleEndian.AppendUint64(make([]byte, 0, 16), c.Incarnation)
	return nsf.RawValue(binary.LittleEndian.AppendUint64(b, c.USN))
}

// cursorOf reads a cursorValue back; a missing item is the zero cursor.
func cursorOf(v nsf.Value) store.Cursor {
	if len(v.Raw) != 16 {
		return store.Cursor{}
	}
	return store.Cursor{
		Incarnation: binary.LittleEndian.Uint64(v.Raw),
		USN:         binary.LittleEndian.Uint64(v.Raw[8:]),
	}
}

func historyUNID(peerName string) nsf.UNID {
	sum := sha256.Sum256([]byte("replhistory:" + peerName))
	var u nsf.UNID
	copy(u[:], sum[:16])
	return u
}

func loadHistory(db *core.Database, peerName string) (history, error) {
	if peerName == "" {
		return history{}, nil
	}
	n, err := db.RawGet(historyUNID(peerName))
	if errors.Is(err, core.ErrNotFound) {
		return history{}, nil
	}
	if err != nil {
		return history{}, err
	}
	return history{
		LastPull: cursorOf(n.Get("LastPull")),
		LastPush: cursorOf(n.Get("LastPush")),
	}, nil
}

// histLocks serializes history read-modify-writes per (replica, peer).
// Overlapping sessions against the same peer are normal — a scheduled
// round and a manual one can both run — and without serialization both would read
// the history note at Seq=N and hand-stamp Seq=N+1, writing duplicate
// sequence numbers into the note's version chain. Locks are striped by
// hash: a collision only over-serializes two unrelated saves, never
// under-serializes one.
var histLocks [64]gosync.Mutex

func histLock(db *core.Database, peerName string) *gosync.Mutex {
	hsh := fnv.New32a()
	r := db.ReplicaID()
	hsh.Write(r[:])
	hsh.Write([]byte(peerName))
	return &histLocks[hsh.Sum32()%uint32(len(histLocks))]
}

func saveHistory(db *core.Database, peerName string, h history) error {
	if peerName == "" {
		return nil
	}
	mu := histLock(db, peerName)
	mu.Lock()
	defer mu.Unlock()
	unid := historyUNID(peerName)
	n, err := db.RawGet(unid)
	if errors.Is(err, core.ErrNotFound) {
		n = &nsf.Note{
			OID:   nsf.OID{UNID: unid, Seq: 1, SeqTime: db.Clock().Now()},
			Class: nsf.ClassReplFormula,
		}
		err = nil
	}
	if err != nil {
		return err
	}
	n.SetText("Peer", peerName)
	n.Set("LastPull", cursorValue(h.LastPull))
	n.Set("LastPush", cursorValue(h.LastPush))
	n.OID.Seq++
	n.OID.SeqTime = db.Clock().Now()
	return db.RawPut(n)
}

// Replicate runs one replication session between the local database and a
// peer: pull remote changes, then push local ones. It returns transfer and
// outcome statistics.
//
// Sessions are resumable: a cursor only advances after its phase has been
// fully applied, and it is persisted the moment it advances — so a session
// severed mid-pull restarts from the old cursor, a session severed during
// push keeps its pull progress, and re-applying whatever did land before
// the sever is a no-op under the OID rules. Re-running a severed session
// therefore converges to exactly the state an unfailed session reaches.
func Replicate(local *core.Database, peer Peer, opts Options) (Stats, error) {
	var stats Stats
	// Validate the selection formula before any wire work: a bad formula is
	// a configuration error and surfaces as a typed *FormulaError here, at
	// session start, not mid-round. The compiled form is cached (or already
	// pinned by Prepare), so sessions never recompile it.
	if _, err := opts.selection(); err != nil {
		return stats, err
	}
	remoteReplica, err := peer.ReplicaID()
	if err != nil {
		return stats, err
	}
	if remoteReplica != local.ReplicaID() {
		return stats, fmt.Errorf("repl: replica ID mismatch: local %s, peer %s",
			local.ReplicaID(), remoteReplica)
	}
	h, err := loadHistory(local, opts.PeerName)
	if err != nil {
		return stats, err
	}
	if !opts.PushOnly {
		peerNext, err := pull(local, peer, &stats, h.LastPull, opts)
		if err != nil {
			return stats, err
		}
		h.LastPull = peerNext
		// Persist the pull cursor now: a failure in the push phase must
		// not force the next session to re-pull everything.
		if err := saveHistory(local, opts.PeerName, h); err != nil {
			return stats, err
		}
	}
	if !opts.PullOnly {
		localNext, err := Push(local, peer, &stats, h.LastPush, opts)
		if err != nil {
			return stats, err
		}
		h.LastPush = localNext
		if err := saveHistory(local, opts.PeerName, h); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// pull fetches remote changes since the cursor and applies them locally,
// in batches so a severed link loses at most one unapplied batch of
// transfer work. Stubs — real deletion stubs and selection stubs alike —
// are materialized from their summaries without a fetch round trip: a
// stub has no content beyond its identity, and a selection stub has no
// stored note on the source at all (the source holds the live version the
// link withholds).
func pull(local *core.Database, peer Peer, stats *Stats, since store.Cursor, opts Options) (store.Cursor, error) {
	sums, peerNext, err := peer.Summaries(since, opts.Formula)
	if err != nil {
		return since, err
	}
	stats.SummariesIn += len(sums)
	stats.BytesIn += int64(len(sums)) * summaryWireBytes
	applyStub := func(s Summary) error {
		st, err := ApplyNote(local, StubFromSummary(s), opts.Apply)
		if err != nil {
			return err
		}
		stats.Pull.Add(st)
		return nil
	}
	var need []nsf.UNID
	// The version check reads stored headers only: a summary that ends up
	// skipped costs no note decode.
	for _, s := range sums {
		cur, err := local.RawHeader(s.UNID)
		switch {
		case err != nil && !errors.Is(err, core.ErrNotFound):
			return since, err
		case s.Deleted && (err != nil || cur.OID != s.OID()):
			// A stub needs no fetch, and ApplyNote's rules decide it:
			// a deletion wins over a live copy whatever its sequence
			// number, which the comparisons below cannot tell.
			if err := applyStub(s); err != nil {
				return since, err
			}
		case err != nil:
			need = append(need, s.UNID)
		case cur.OID == s.OID():
			if cur.IsSelStub() && !s.Deleted {
				// Same version, but the local copy is a selection stub and
				// the peer now advertises it live (the link's formula was
				// widened): fetch the content back.
				need = append(need, s.UNID)
			} else {
				stats.Pull.Skipped++
			}
		case s.OID().Newer(cur.OID) || s.Seq == cur.OID.Seq:
			// Either the remote wins, or it is a potential conflict that
			// needs the full note to resolve.
			need = append(need, s.UNID)
		default:
			stats.Pull.Skipped++
		}
	}
	batchSize := opts.batchSize()
	for len(need) > 0 {
		batch := need
		if len(batch) > batchSize {
			batch = batch[:batchSize]
		}
		need = need[len(batch):]
		notes, err := peer.Fetch(batch)
		if err != nil {
			return since, err
		}
		stats.NotesFetched += len(notes)
		stats.BytesIn += encodedBytes(notes)
		for _, n := range notes {
			st, err := ApplyNote(local, n, opts.Apply)
			if err != nil {
				return since, err
			}
			stats.Pull.Add(st)
		}
	}
	return peerNext, nil
}

// Push sends local changes since the cursor for the peer to apply: the push
// phase of Replicate and of a cluster push. Documents outside the selection
// formula travel as selection stubs (identity only), so an edit that moves a
// document out of the selection deletes it at the peer, not leaves it frozen.
func Push(local *core.Database, peer Peer, stats *Stats, since store.Cursor, opts Options) (store.Cursor, error) {
	sel, err := opts.selection()
	if err != nil {
		return since, err
	}
	var batch []*nsf.Note
	next, err := scanSelected(context.Background(), local, since, sel, nil, func(n *nsf.Note) { batch = append(batch, n) })
	if err != nil {
		return since, err
	}
	stats.BytesOut += encodedBytes(batch)
	stats.NotesSent += len(batch)
	// Ship in bounded batches: each applied batch is durable at the peer,
	// and a batch whose acknowledgment was lost re-applies as skips.
	batchSize := opts.batchSize()
	for len(batch) > 0 {
		chunk := batch
		if len(chunk) > batchSize {
			chunk = chunk[:batchSize]
		}
		batch = batch[len(chunk):]
		st, err := peer.Apply(chunk)
		if err != nil {
			return since, err
		}
		stats.Push.Add(st)
	}
	return next, nil
}

// encodedBytes sums the encoded sizes of notes.
func encodedBytes(notes []*nsf.Note) (total int64) {
	for _, n := range notes {
		total += int64(nsf.EncodedLen(n))
	}
	return total
}

// FullCopy is the naive baseline: it transfers the peer's complete note
// inventory and applies it blindly (no summary phase, no OID pre-filtering
// beyond the receiver's apply rules), then does the same in reverse.
func FullCopy(local *core.Database, peer Peer) (Stats, error) {
	var stats Stats
	remoteReplica, err := peer.ReplicaID()
	if err != nil {
		return stats, err
	}
	if remoteReplica != local.ReplicaID() {
		return stats, fmt.Errorf("repl: replica ID mismatch")
	}
	// Pull everything.
	sums, _, err := peer.Summaries(store.Cursor{}, "")
	if err != nil {
		return stats, err
	}
	unids := make([]nsf.UNID, len(sums))
	for i, s := range sums {
		unids[i] = s.UNID
	}
	notes, err := peer.Fetch(unids)
	if err != nil {
		return stats, err
	}
	stats.NotesFetched = len(notes)
	stats.BytesIn += encodedBytes(notes)
	for _, n := range notes {
		st, err := ApplyNote(local, n, ApplyOptions{})
		if err != nil {
			return stats, err
		}
		stats.Pull.Add(st)
	}
	// Push everything.
	var batch []*nsf.Note
	err = local.ScanAll(func(n *nsf.Note) bool {
		if n.Class != nsf.ClassReplFormula {
			batch = append(batch, n)
		}
		return true
	})
	if err != nil {
		return stats, err
	}
	stats.NotesSent = len(batch)
	stats.BytesOut += encodedBytes(batch)
	if len(batch) > 0 {
		st, err := peer.Apply(batch)
		if err != nil {
			return stats, err
		}
		stats.Push.Add(st)
	}
	return stats, nil
}
