package store

import (
	"encoding/binary"
	"fmt"

	"repro/internal/nsf"
)

// Verify checks the cross-consistency of the storage structures — the
// byID, byUNID, and byUSN B+trees and the record heap — and returns a
// description of every problem found (empty means healthy). It is the
// equivalent of Domino's "fixup" in detect-only mode.
func (s *Store) Verify() []string {
	// A read latch suffices: Verify only reads, and holding it for the full
	// check keeps the three passes mutually consistent (writers are held
	// off; other readers proceed).
	s.mu.RLock()
	defer s.mu.RUnlock()
	var problems []string
	report := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// Pass 1: every byID entry resolves to a decodable heap record whose
	// note agrees on the NoteID, and whose UNID maps back to it.
	type noteInfo struct {
		unid nsf.UNID
		usn  uint64
	}
	byID := make(map[nsf.NoteID]noteInfo)
	err := s.byID.Ascend(nil, func(k, v []byte) bool {
		id := nsf.NoteID(binary.BigEndian.Uint32(k))
		rid, usn := location(v)
		enc, err := s.heap.view(rid, nil)
		if err != nil {
			report("note %d: heap record %x unreadable: %v", id, rid, err)
			return true
		}
		n, err := nsf.DecodeNote(enc)
		if err != nil {
			report("note %d: record does not decode: %v", id, err)
			return true
		}
		if n.ID != id {
			report("note %d: record carries NoteID %d", id, n.ID)
		}
		byID[id] = noteInfo{unid: n.OID.UNID, usn: usn}
		return true
	})
	if err != nil {
		report("byID scan failed: %v", err)
	}
	if len(byID) != s.count {
		report("note count %d disagrees with byID entries %d", s.count, len(byID))
	}

	// Pass 2: byUNID is a bijection onto byID.
	unidSeen := 0
	err = s.byUNID.Ascend(nil, func(k, v []byte) bool {
		unidSeen++
		var unid nsf.UNID
		copy(unid[:], k)
		id := nsf.NoteID(binary.BigEndian.Uint32(v))
		info, ok := byID[id]
		if !ok {
			report("UNID %s maps to missing NoteID %d", unid, id)
			return true
		}
		if info.unid != unid {
			report("UNID %s maps to NoteID %d whose note has UNID %s", unid, id, info.unid)
		}
		return true
	})
	if err != nil {
		report("byUNID scan failed: %v", err)
	}
	if unidSeen != len(byID) {
		report("byUNID has %d entries, byID has %d", unidSeen, len(byID))
	}

	// Pass 3: byUSN covers every note exactly once, under the USN its byID
	// entry carries, and no entry is newer than the store's USN.
	usnSeen := make(map[nsf.NoteID]bool, len(byID))
	err = s.byUSN.Ascend(nil, func(k, v []byte) bool {
		usn := binary.BigEndian.Uint64(k)
		id := nsf.NoteID(binary.BigEndian.Uint32(v))
		info, ok := byID[id]
		switch {
		case !ok:
			report("byUSN entry %d references missing note %d", usn, id)
		case info.usn != usn:
			report("byUSN entry %d for note %d, whose byID entry says USN %d", usn, id, info.usn)
		case usn > s.usn:
			report("byUSN entry %d for note %d is past the store's USN %d", usn, id, s.usn)
		}
		usnSeen[id] = true
		return true
	})
	if err != nil {
		report("byUSN scan failed: %v", err)
	}
	for id := range byID {
		if !usnSeen[id] {
			report("note %d missing from byUSN", id)
		}
	}
	return problems
}
