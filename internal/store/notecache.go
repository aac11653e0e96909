package store

import (
	"sync"

	"repro/internal/nsf"
)

// noteCacheCap bounds the decoded-note cache in entries. At a few hundred
// bytes per typical summary note this is a couple of MB — small next to the
// page pool, large enough to keep a working set of hot documents decoded.
const noteCacheCap = 4096

// noteCache caches decoded notes keyed by their heap RecordID, with a
// UNID → RecordID hint so the hottest read (GetByUNID) can skip both
// B+tree descents and the DecodeNote on a hit.
//
// Correctness contract:
//   - A RecordID names immutable bytes for as long as the record is live:
//     updates delete the old record and insert a new one. Every path that
//     frees a record (applyPutEncoded replacing a prior version,
//     applyDelete) must call invalidate with the freed RecordID before the
//     heap slot can be reused; Compact and restore-style file swaps must
//     call clear because they recycle the whole RecordID space.
//   - The cache owns its notes. Lookups return shared clones
//     (nsf.Note.CloneShared): the Items slice is the caller's to mutate,
//     the Value backing arrays are shared and must be treated as immutable
//     — the repo-wide contract is that stored values are replaced via the
//     Set* mutators, never written in place.
type noteCache struct {
	mu     sync.Mutex
	notes  map[RecordID]*nsf.Note
	byUNID map[nsf.UNID]RecordID
	hits   uint64
	misses uint64
}

func newNoteCache() *noteCache {
	return &noteCache{
		notes:  make(map[RecordID]*nsf.Note),
		byUNID: make(map[nsf.UNID]RecordID),
	}
}

// get returns a copy of the cached note at rid.
func (c *noteCache) get(rid RecordID) (*nsf.Note, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.notes[rid]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	return n.CloneShared(), true
}

// getByUNID returns a copy of the cached note for unid, using the hint map
// to skip the index descent entirely.
func (c *noteCache) getByUNID(unid nsf.UNID) (*nsf.Note, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rid, ok := c.byUNID[unid]
	if !ok {
		c.misses++
		return nil, false
	}
	n, ok := c.notes[rid]
	if !ok {
		// byUNID entries are only written alongside notes entries and both
		// are removed together, so this cannot happen; heal defensively.
		delete(c.byUNID, unid)
		c.misses++
		return nil, false
	}
	c.hits++
	return n.CloneShared(), true
}

// add stores n (the cache takes ownership) and returns a copy for the
// caller to hand out.
func (c *noteCache) add(rid RecordID, n *nsf.Note) *nsf.Note {
	c.mu.Lock()
	defer c.mu.Unlock()
	for evictRID, evictN := range c.notes {
		if len(c.notes) < noteCacheCap {
			break
		}
		delete(c.notes, evictRID)
		if c.byUNID[evictN.OID.UNID] == evictRID {
			delete(c.byUNID, evictN.OID.UNID)
		}
	}
	c.notes[rid] = n
	c.byUNID[n.OID.UNID] = rid
	return n.CloneShared()
}

// invalidate drops the entry for a freed RecordID (no-op when absent).
func (c *noteCache) invalidate(rid RecordID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.notes[rid]; ok {
		delete(c.notes, rid)
		if c.byUNID[n.OID.UNID] == rid {
			delete(c.byUNID, n.OID.UNID)
		}
	}
}

// clear empties the cache — required whenever the RecordID space is
// recycled wholesale (Compact's file swap, restore).
func (c *noteCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.notes = make(map[RecordID]*nsf.Note)
	c.byUNID = make(map[nsf.UNID]RecordID)
}

// stats reports entry count and hit/miss counters.
func (c *noteCache) stats() (entries int, hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.notes), c.hits, c.misses
}
