package check

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/nsf"
)

// Outcome is what a client learned of one write it issued.
type Outcome uint8

const (
	// Acked: a server confirmed the write.
	Acked Outcome = iota + 1
	// Ambiguous: the write was sent and never confirmed (a lost ack, a
	// severed connection, an expiry after send), so it may have landed.
	Ambiguous
	// Refused: the write was provably never applied — an expiry before
	// send (Ambiguous:false), a shed, an error the server answered with.
	Refused
)

// Client is what the safe-retry create needs (wire.RemoteDB, FailoverDB).
type Client interface {
	Create(n *nsf.Note) error
	Get(unid nsf.UNID) (*nsf.Note, error)
}

// Model is the reference model of acknowledged outcomes: what a database
// must show after the writes a client recorded in it. It is safe for
// concurrent use.
type Model struct {
	mu   sync.Mutex
	docs map[nsf.UNID]*doc
}

// doc is the model of one document, written in order by one client: a
// create, updates, at most one delete that was not refused.
type doc struct {
	created   Outcome  // the best outcome of any create of it
	content   [32]byte // contentOf the created note, to recognise it landing twice
	acked     bool     // a create or update was acked: it must be there
	seq       uint32   // the highest Seq an acked create or update stored
	deleted   Outcome  // the best outcome of a delete (0: none issued)
	refusedTo [][32]byte
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{docs: map[nsf.UNID]*doc{}} }

func (m *Model) doc(u nsf.UNID) *doc {
	if m.docs[u] == nil {
		m.docs[u] = &doc{}
	}
	return m.docs[u]
}

// best keeps the outcome that promises most: acked, ambiguous, refused.
func best(have, got Outcome) Outcome {
	if have == 0 || got < have {
		return got
	}
	return have
}

// Created records a create of n. An acked n carries the stored OID.
func (m *Model) Created(n *nsf.Note, o Outcome) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.doc(n.OID.UNID)
	if d.created == 0 {
		d.content = contentOf(n)
	}
	d.created = best(d.created, o)
	if o == Acked {
		d.acked, d.seq = true, max(d.seq, n.OID.Seq)
	}
}

// Updated records an update of n. An acked n carries the stored OID; a
// refused one's content must never be what the database holds.
func (m *Model) Updated(n *nsf.Note, o Outcome) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.doc(n.OID.UNID)
	switch o {
	case Acked:
		d.acked, d.seq = true, max(d.seq, n.OID.Seq)
	case Refused:
		d.refusedTo = append(d.refusedTo, n.CanonicalDigest())
	}
}

// Deleted records a delete of u.
func (m *Model) Deleted(u nsf.UNID, o Outcome) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.doc(u)
	d.deleted = best(d.deleted, o)
}

// Create issues n through c under the one safe-retry protocol and records
// what came of it. A failed attempt may have landed, so c reads n's UNID
// back and re-issues n only while it is absent, and only once settle has
// passed — the window in which a cluster push may still surface a create
// that a failed mate applied. retried reports that the first attempt
// failed; the outcome is Ambiguous if no attempt was confirmed within five
// seconds.
func (m *Model) Create(c Client, n *nsf.Note, settle time.Duration) (o Outcome, retried bool) {
	sent := n.Clone()
	if c.Create(n) == nil {
		m.Created(n, Acked)
		return Acked, false
	}
	m.Created(sent, Ambiguous)
	for start := time.Now(); time.Since(start) < 5*time.Second; time.Sleep(2 * time.Millisecond) {
		if got, err := c.Get(n.OID.UNID); err == nil {
			m.Created(got, Acked)
			return Acked, true
		}
		if time.Since(start) >= settle && c.Create(n) == nil {
			m.Created(n, Acked)
			return Acked, true
		}
	}
	return Ambiguous, true
}

// Report is what Durable found.
type Report struct {
	// Lost counts acknowledged outcomes the database does not show: an
	// acked create or update absent or below its Seq, an acked delete that
	// is not a deletion stub.
	Lost int
	// Duplicated counts creates that landed twice: another live note —
	// a plain document or a conflict document — holding the created
	// content. (Two landings under one UNID are one document: replication
	// merges identical versions.)
	Duplicated int
	// Applied counts refused writes the database shows anyway.
	Applied int
	// Problems describes each violation, in UNID order.
	Problems []string
}

// Err is nil when the report found nothing, or else lists what it found.
func (r Report) Err() error {
	if len(r.Problems) == 0 {
		return nil
	}
	return fmt.Errorf("check: %d lost, %d duplicated, %d refused but applied: %v", r.Lost, r.Duplicated, r.Applied, r.Problems)
}

// contentOf digests a note's items without its identity, so that a create
// landing again under another UNID, or as a conflict document, matches.
func contentOf(n *nsf.Note) [32]byte {
	twin := *n
	twin.OID.UNID = nsf.UNID{}
	return twin.CanonicalDigest("$Conflict", "$Ref")
}

// Durable audits db against everything recorded.
func (m *Model) Durable(db *core.Database) Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	var r Report
	bad := func(count *int, u nsf.UNID, format string, args ...any) {
		*count++
		r.Problems = append(r.Problems, fmt.Sprintf("%s: ", u)+fmt.Sprintf(format, args...))
	}
	for _, u := range sortedUNIDs(m.docs) {
		d := m.docs[u]
		n, err := db.RawGet(u) // unreadable counts as absent
		found, stub := err == nil, err == nil && n.IsStub()
		switch {
		case d.deleted == Acked && !stub:
			bad(&r.Lost, u, "acked delete is not a stub (found=%v)", found)
		case d.deleted == Refused && stub:
			bad(&r.Applied, u, "a refused delete left a stub")
		case d.acked && !found:
			bad(&r.Lost, u, "acked write at seq %d is absent", d.seq)
		case d.acked && stub && d.deleted == 0:
			bad(&r.Lost, u, "acked write at seq %d is a stub nobody deleted", d.seq)
		case d.acked && !stub && n.OID.Seq < d.seq:
			bad(&r.Lost, u, "holds seq %d, below the acked seq %d", n.OID.Seq, d.seq)
		case d.created == Refused && found:
			bad(&r.Applied, u, "a refused create is present")
		}
		if found && !stub {
			content := n.CanonicalDigest()
			for _, c := range d.refusedTo {
				if c == content {
					bad(&r.Applied, u, "holds the content of a refused update")
				}
			}
		}
	}
	creators := map[[32]byte][]nsf.UNID{}
	for u, d := range m.docs {
		if d.created != 0 {
			creators[d.content] = append(creators[d.content], u)
		}
	}
	err := db.ScanAll(func(n *nsf.Note) bool {
		if n.IsStub() {
			return true
		}
		if owners := creators[contentOf(n)]; len(owners) > 0 && !slices.Contains(owners, n.OID.UNID) {
			bad(&r.Duplicated, owners[0], "the create landed twice, again as %s", n.OID.UNID)
		}
		return true
	})
	if err != nil {
		r.Problems = append(r.Problems, fmt.Sprintf("scan: %v", err))
	}
	return r
}
