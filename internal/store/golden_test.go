package store

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/nsf"
	"repro/internal/vfs"
)

// seqUNID returns the UNID whose bytes count up from first.
func seqUNID(first byte) nsf.UNID {
	var u nsf.UNID
	for i := range u {
		u[i] = first + byte(i)
	}
	return u
}

// TestGoldenWAL pins the on-disk WAL frame format byte for byte: a lone put
// frame, a delete frame and a two-record walBatch frame, first as the log
// writes them and then as the store's commit path leaves them in the file.
// Live WALs, hot-backup WAL tails and archived segments all hold these
// bytes, so any change here breaks recovery and point-in-time restore of
// existing databases.
func TestGoldenWAL(t *testing.T) {
	u0, u1, u2 := seqUNID(0x00), seqUNID(0x10), seqUNID(0x20)
	golden := func(t *testing.T, what string, got []byte, wantHex string) {
		t.Helper()
		want, err := hex.DecodeString(wantHex)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s frame:\n got %x\nwant %x", what, got, want)
		}
	}

	t.Run("log", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "golden.wal")
		w, err := openWAL(vfs.OS, path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.append(walPut, 1, []byte("note"), false); err != nil {
			t.Fatal(err)
		}
		if err := w.append(walDelete, 2, u0[:], false); err != nil {
			t.Fatal(err)
		}
		var sub []byte
		sub = appendSubRecord(sub, walPut, 3, []byte("abc"))
		sub = appendSubRecord(sub, walDelete, 4, u0[:])
		if err := w.appendBatch(sub, 2, 4, false); err != nil {
			t.Fatal(err)
		}
		// A one-record batch is written as the plain frame.
		if err := w.appendBatch(appendSubRecord(nil, walPut, 1, []byte("note")), 1, 1, false); err != nil {
			t.Fatal(err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		const put = "0d0000000d601e3c0101000000000000006e6f7465"
		golden(t, "put", raw[:21], put)
		golden(t, "delete", raw[21:54], "19000000564912ab020200000000000000000102030405060708090a0b0c0d0e0f")
		golden(t, "batch", raw[54:116], "3600000034dc9e270304000000000000000103000000000000000300000061626302"+
			"040000000000000010000000000102030405060708090a0b0c0d0e0f")
		golden(t, "lone batch", raw[116:], put)
	})

	t.Run("store", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "golden.nsf")
		s, err := Open(path, Options{GroupCommitWindow: time.Millisecond, CheckpointEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, u := range []nsf.UNID{u0, u1, u2} {
			n := gcNote(1, "golden")
			n.OID.UNID = u
			if err := s.Put(n); err != nil {
				t.Fatal(err)
			}
		}
		tail := func(from int64) []byte {
			raw, err := os.ReadFile(path + ".wal")
			if err != nil {
				t.Fatal(err)
			}
			return raw[from:]
		}
		mark := s.wal.size.Load()
		if err := s.Delete(u2); err != nil {
			t.Fatal(err)
		}
		golden(t, "lone delete", tail(mark), "1900000061f80ac5020400000000000000202122232425262728292a2b2c2d2e2f")
		// Two commits enqueued before either waits share one batch frame.
		mark = s.wal.size.Load()
		if _, err := s.DeleteAsync(u0); err != nil {
			t.Fatal(err)
		}
		c, err := s.DeleteAsync(u1)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
		golden(t, "batched deletes", tail(mark), "430000007fd1919a0306000000000000000205000000000000001000000000010203"+
			"0405060708090a0b0c0d0e0f02060000000000000010000000101112131415161718191a1b1c1d1e1f")
	})
}
