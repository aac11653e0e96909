package store

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/clock"

	"repro/internal/nsf"
)

// F5: B+tree point and range operations vs a heap scan, across tree sizes.

func benchTree(b *testing.B, n int) *btree {
	b.Helper()
	p, err := openPager(filepath.Join(b.TempDir(), "bench.nsf"), nsf.NewReplicaID(), "b", 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { p.close() })
	tr := &btree{pg: p, slot: rootSlotByID}
	var key [8]byte
	var val [8]byte
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(key[:], uint64(i))
		binary.BigEndian.PutUint64(val[:], uint64(i*7))
		if err := tr.Put(key[:], val[:]); err != nil {
			b.Fatal(err)
		}
	}
	return tr
}

func BenchmarkF5BtreeInsert(b *testing.B) {
	p, err := openPager(filepath.Join(b.TempDir(), "bench.nsf"), nsf.NewReplicaID(), "b", 0)
	if err != nil {
		b.Fatal(err)
	}
	defer p.close()
	tr := &btree{pg: p, slot: rootSlotByID}
	rng := rand.New(rand.NewSource(1))
	var key [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(key[:], rng.Uint64())
		if err := tr.Put(key[:], key[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF5BtreeGet(b *testing.B) {
	for _, n := range []int{10000, 100000, 1000000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			tr := benchTree(b, n)
			rng := rand.New(rand.NewSource(2))
			var key [8]byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binary.BigEndian.PutUint64(key[:], uint64(rng.Intn(n)))
				if _, ok, err := tr.Get(key[:]); err != nil || !ok {
					b.Fatalf("Get: %v %v", ok, err)
				}
			}
		})
	}
}

func BenchmarkF5BtreeRangeScan100(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			tr := benchTree(b, n)
			rng := rand.New(rand.NewSource(3))
			var from [8]byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binary.BigEndian.PutUint64(from[:], uint64(rng.Intn(n-200)))
				seen := 0
				err := tr.Ascend(from[:], func(_, _ []byte) bool {
					seen++
					return seen < 100
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF5HeapScanBaseline measures finding one key by scanning the whole
// tree, the no-index baseline the B+tree is compared against.
func BenchmarkF5HeapScanBaseline(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			tr := benchTree(b, n)
			rng := rand.New(rand.NewSource(4))
			var want [8]byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binary.BigEndian.PutUint64(want[:], uint64(rng.Intn(n)))
				found := false
				err := tr.Ascend(nil, func(k, _ []byte) bool {
					if string(k) == string(want[:]) {
						found = true
						return false
					}
					return true
				})
				if err != nil || !found {
					b.Fatalf("scan: %v %v", found, err)
				}
			}
		})
	}
}

func BenchmarkStorePut(b *testing.B) {
	s, _ := openTestStoreB(b)
	g := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := nsf.NewNote(nsf.ClassDocument)
		n.OID.Seq = 1
		n.OID.SeqTime = nsf.Timestamp(i + 1)
		n.Modified = nsf.Timestamp(i + 1)
		n.SetText("Subject", fmt.Sprintf("doc %d", g))
		g++
		if err := s.Put(n); err != nil {
			b.Fatal(err)
		}
	}
}

func openTestStoreB(b *testing.B) (*Store, string) {
	b.Helper()
	path := filepath.Join(b.TempDir(), "db.nsf")
	s, err := Open(path, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s, path
}

// --- W4: point-read cost by latching discipline and cache state ---

// benchReadStore seeds a store for read benchmarks.
func benchReadStore(b *testing.B, opts Options, docs int) (*Store, []nsf.UNID) {
	b.Helper()
	s, err := Open(filepath.Join(b.TempDir(), "bench.nsf"), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	c := clock.New()
	unids := make([]nsf.UNID, docs)
	for i := 0; i < docs; i++ {
		n := makeNote(c, fmt.Sprintf("doc-%d", i))
		n.SetText("Body", fmt.Sprintf("body of document %d", i))
		if err := s.Put(n); err != nil {
			b.Fatal(err)
		}
		unids[i] = n.OID.UNID
	}
	return s, unids
}

// BenchmarkW4GetByUNID measures point reads under the RW latch with the
// decoded-note cache (the seed discipline it replaced — exclusive latch, no
// cache — measured 1,115 ns here; see EXPERIMENTS.md W4).
func BenchmarkW4GetByUNID(b *testing.B) {
	s, unids := benchReadStore(b, Options{}, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.GetByUNID(unids[i%len(unids)]); err != nil {
			b.Fatal(err)
		}
	}
}
