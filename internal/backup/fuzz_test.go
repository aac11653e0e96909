package backup

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/nsf"
	"repro/internal/store"
)

// incrementalImage builds a store of notes documents, takes a full image,
// updates changed of them and returns the incremental image that follows.
func incrementalImage(t testing.TB, dir string, notes, changed int) (string, ImageInfo) {
	t.Helper()
	st, err := store.Open(filepath.Join(dir, "src.nsf"), store.Options{CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	setDir := filepath.Join(dir, "bak")
	ts := nsf.Timestamp(0)
	var docs []*nsf.Note
	for i := 0; i < notes; i++ {
		ts++
		n := testDoc(i, ts)
		n.SetText("Body", "b")
		if err := st.Put(n); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, n)
	}
	if _, err := Full(st, setDir, ts); err != nil {
		t.Fatal(err)
	}
	for _, n := range docs[:changed] {
		ts++
		n.OID.Seq++
		n.Modified = ts
		if err := st.Put(n); err != nil {
			t.Fatal(err)
		}
	}
	img, err := Incremental(st, setDir, ts)
	if err != nil {
		t.Fatal(err)
	}
	return setDir, img
}

// TestCraftedManifestCountRejected rewrites an incremental image's manifest
// count to 0xFFFFFFFF and recomputes its digest, as anyone who can write
// the image can. Verify and Restore must refuse it with ErrCorruptImage,
// and the reader must allocate less than the image holds.
func TestCraftedManifestCountRejected(t *testing.T) {
	setDir, img := incrementalImage(t, t.TempDir(), 100, 1)
	raw, err := os.ReadFile(img.Path)
	if err != nil {
		t.Fatal(err)
	}
	off := imageHdrSize
	for i := uint32(0); i < img.Notes; i++ {
		off += 8 + int(binary.LittleEndian.Uint32(raw[off:]))
	}
	binary.LittleEndian.PutUint32(raw[off:], 0xFFFFFFFF)
	digest := sha256.Sum256(raw[:len(raw)-digestSize])
	copy(raw[len(raw)-digestSize:], digest[:])
	if err := os.WriteFile(img.Path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := VerifySet(setDir, "")
	if err != nil || r.OK() {
		t.Fatalf("verify passed a crafted manifest count: err=%v problems=%v", err, r.Problems)
	}
	if _, err := Restore(setDir, filepath.Join(t.TempDir(), "r.nsf"), RestoreOptions{}, nil); !errors.Is(err, ErrCorruptImage) {
		t.Fatalf("restore through crafted image: %v, want ErrCorruptImage", err)
	}
	info, err := readImageInfo(img.Path)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = readIncremental(info, func([]byte) error { return nil })
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorruptImage) {
		t.Fatalf("readIncremental: %v, want ErrCorruptImage", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(info.Size) {
		t.Fatalf("reading a %d-byte image allocated %d bytes", info.Size, alloc)
	}
}

// FuzzReadIncremental throws arbitrary bodies and note counts at the
// incremental-image reader, seeded from a real incremental body. Images
// reach it from disk with a digest anyone can recompute, so it must never
// panic, never hand out more note bytes or accept a larger manifest than the
// body holds, and reject malformed input only with ErrCorruptImage.
func FuzzReadIncremental(f *testing.F) {
	_, img := incrementalImage(f, f.TempDir(), 8, 3)
	raw, err := os.ReadFile(img.Path)
	if err != nil {
		f.Fatal(err)
	}
	seed := raw[imageHdrSize : len(raw)-digestSize]
	f.Add(seed, img.Notes)
	f.Add(seed, img.Notes+1)
	f.Add(seed[:len(seed)/2], img.Notes)
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}, uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, notes uint32) {
		var delivered int
		manifest, err := decodeIncremental("fuzz", io.NewSectionReader(bytes.NewReader(data), 0, int64(len(data))), notes,
			func(enc []byte) error {
				delivered += len(enc)
				return nil
			})
		if delivered > len(data) {
			t.Fatalf("delivered %d note bytes from a %d-byte body", delivered, len(data))
		}
		if err != nil {
			if !errors.Is(err, ErrCorruptImage) {
				t.Fatalf("rejected with %v, want ErrCorruptImage", err)
			}
			return
		}
		if 16*len(manifest) > len(data) {
			t.Fatalf("manifest of %d UNIDs from a %d-byte body", len(manifest), len(data))
		}
	})
}
