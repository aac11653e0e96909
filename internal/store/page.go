// Package store implements the persistent storage engine backing an NSF
// database: a page file with a buffer pool, a write-ahead log with logical
// redo recovery, a slotted-page heap for note records, and persistent
// B+trees indexing notes by NoteID, by UNID, and by USN.
//
// Durability model: the WAL logs note-level operations. Dirty pages are
// written back only at checkpoints (no-steal), so the page file is always
// consistent as of the last checkpoint and recovery is a simple forward
// replay of the WAL through the ordinary update paths.
package store

// PageSize is the fixed size of every page in the database file.
const PageSize = 4096

// PageID identifies a page by its index in the database file. Page 0 is the
// header page and is never allocated to data.
type PageID uint32

// nilPage marks the absence of a page reference.
const nilPage PageID = 0

// Page types, stored in the first byte of every non-header page.
const (
	pageFree   = 0
	pageLeaf   = 1
	pageBranch = 2
	pageHeap   = 3
)

// page is a buffer-pool frame.
type page struct {
	id    PageID
	data  [PageSize]byte
	dirty bool
	// lruElem links clean pages into the eviction list; nil while dirty.
}
