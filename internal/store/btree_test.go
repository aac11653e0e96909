package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/nsf"
)

func testPager(t *testing.T) *pager {
	t.Helper()
	dir := t.TempDir()
	p, err := openPager(filepath.Join(dir, "test.nsf"), nsf.NewReplicaID(), "t", 0)
	if err != nil {
		t.Fatalf("openPager: %v", err)
	}
	t.Cleanup(func() { p.close() })
	return p
}

func testTree(t *testing.T) *btree {
	return &btree{pg: testPager(t), slot: rootSlotByID}
}

func TestBtreeBasic(t *testing.T) {
	tr := testTree(t)
	if _, ok, err := tr.Get([]byte("missing")); err != nil || ok {
		t.Fatalf("Get on empty tree = %v, %v", ok, err)
	}
	if err := tr.Put([]byte("alpha"), []byte("1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := tr.Put([]byte("beta"), []byte("2")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, ok, err := tr.Get([]byte("alpha"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get alpha = %q, %v, %v", v, ok, err)
	}
	// Overwrite.
	if err := tr.Put([]byte("alpha"), []byte("one")); err != nil {
		t.Fatalf("Put overwrite: %v", err)
	}
	v, _, _ = tr.Get([]byte("alpha"))
	if string(v) != "one" {
		t.Fatalf("after overwrite Get = %q", v)
	}
	if n, _ := tr.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	found, err := tr.Delete([]byte("alpha"))
	if err != nil || !found {
		t.Fatalf("Delete = %v, %v", found, err)
	}
	if _, ok, _ := tr.Get([]byte("alpha")); ok {
		t.Fatal("deleted key still present")
	}
	if found, _ := tr.Delete([]byte("alpha")); found {
		t.Fatal("double delete reported found")
	}
}

func TestBtreeKeyLimits(t *testing.T) {
	tr := testTree(t)
	if err := tr.Put(nil, []byte("x")); err == nil {
		t.Error("empty key accepted")
	}
	if err := tr.Put(bytes.Repeat([]byte("k"), MaxKeyLen+1), nil); err == nil {
		t.Error("oversized key accepted")
	}
	if err := tr.Put([]byte("k"), bytes.Repeat([]byte("v"), MaxValueLen+1)); err == nil {
		t.Error("oversized value accepted")
	}
	if err := tr.Put(bytes.Repeat([]byte("k"), MaxKeyLen), bytes.Repeat([]byte("v"), MaxValueLen)); err != nil {
		t.Errorf("max-size entry rejected: %v", err)
	}
}

func TestBtreeSplitsAndOrder(t *testing.T) {
	tr := testTree(t)
	const n = 5000
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, i := range perm {
		key := []byte(fmt.Sprintf("key-%06d", i))
		val := []byte(fmt.Sprintf("val-%d", i))
		if err := tr.Put(key, val); err != nil {
			t.Fatalf("Put %s: %v", key, err)
		}
	}
	var got []string
	err := tr.Ascend(nil, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatalf("Ascend: %v", err)
	}
	if len(got) != n {
		t.Fatalf("Ascend yielded %d keys, want %d", len(got), n)
	}
	if !sort.StringsAreSorted(got) {
		t.Fatal("Ascend output not sorted")
	}
	// Range scan from the middle.
	var fromMid []string
	err = tr.Ascend([]byte("key-002500"), func(k, _ []byte) bool {
		fromMid = append(fromMid, string(k))
		return len(fromMid) < 10
	})
	if err != nil {
		t.Fatalf("Ascend from mid: %v", err)
	}
	if fromMid[0] != "key-002500" || len(fromMid) != 10 {
		t.Fatalf("range scan start = %v", fromMid)
	}
}

// TestBtreeRandomOpsAgainstModel drives random puts/deletes/gets and checks
// the tree against a map reference model, including full-order scans.
func TestBtreeRandomOpsAgainstModel(t *testing.T) {
	tr := testTree(t)
	model := make(map[string]string)
	rng := rand.New(rand.NewSource(42))
	keyOf := func() string {
		return fmt.Sprintf("k%05d", rng.Intn(3000))
	}
	for op := 0; op < 30000; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // put
			k := keyOf()
			v := fmt.Sprintf("v%d-%d", op, rng.Intn(1000))
			if rng.Intn(5) == 0 {
				v = string(bytes.Repeat([]byte("x"), rng.Intn(MaxValueLen)))
			}
			if err := tr.Put([]byte(k), []byte(v)); err != nil {
				t.Fatalf("op %d Put: %v", op, err)
			}
			model[k] = v
		case 5, 6, 7: // delete
			k := keyOf()
			found, err := tr.Delete([]byte(k))
			if err != nil {
				t.Fatalf("op %d Delete: %v", op, err)
			}
			_, want := model[k]
			if found != want {
				t.Fatalf("op %d Delete %s found=%v want=%v", op, k, found, want)
			}
			delete(model, k)
		default: // get
			k := keyOf()
			v, ok, err := tr.Get([]byte(k))
			if err != nil {
				t.Fatalf("op %d Get: %v", op, err)
			}
			want, wantOK := model[k]
			if ok != wantOK || (ok && string(v) != want) {
				t.Fatalf("op %d Get %s = %q,%v want %q,%v", op, k, v, ok, want, wantOK)
			}
		}
	}
	// Final full-scan comparison.
	var keys []string
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	err := tr.Ascend(nil, func(k, v []byte) bool {
		if i >= len(keys) {
			t.Fatalf("scan yielded extra key %q", k)
		}
		if string(k) != keys[i] || string(v) != model[keys[i]] {
			t.Fatalf("scan[%d] = %q,%q want %q,%q", i, k, v, keys[i], model[keys[i]])
		}
		i++
		return true
	})
	if err != nil {
		t.Fatalf("Ascend: %v", err)
	}
	if i != len(keys) {
		t.Fatalf("scan yielded %d keys, want %d", i, len(keys))
	}
}

// TestBtreeDrainToEmpty inserts many keys then deletes them all, verifying
// free-at-empty collapse leaves a usable tree and recycles pages.
func TestBtreeDrainToEmpty(t *testing.T) {
	tr := testTree(t)
	const n = 3000
	for i := 0; i < n; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	grown := tr.pg.pageCount
	for i := 0; i < n; i++ {
		found, err := tr.Delete([]byte(fmt.Sprintf("key-%06d", i)))
		if err != nil || !found {
			t.Fatalf("Delete %d: %v %v", i, found, err)
		}
	}
	if cnt, _ := tr.Len(); cnt != 0 {
		t.Fatalf("tree not empty after drain: %d", cnt)
	}
	// Reinsert: pages should come from the free list, not file growth.
	for i := 0; i < n; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("key-%06d", i)), []byte("v")); err != nil {
			t.Fatalf("reinsert Put: %v", err)
		}
	}
	if tr.pg.pageCount > grown+2 {
		t.Errorf("file grew from %d to %d pages; free list not reused", grown, tr.pg.pageCount)
	}
}

// TestBtreeMonotonicChurn mimics the byUSN index pattern: monotonically
// increasing keys inserted while old ones are deleted. Empty leaves must be
// reclaimed rather than leaking.
func TestBtreeMonotonicChurn(t *testing.T) {
	tr := testTree(t)
	key := func(i int) []byte {
		var k [8]byte
		binary.BigEndian.PutUint64(k[:], uint64(i))
		return k[:]
	}
	const window = 500
	for i := 0; i < 20000; i++ {
		if err := tr.Put(key(i), nil); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		if i >= window {
			if found, err := tr.Delete(key(i - window)); err != nil || !found {
				t.Fatalf("Delete %d: %v %v", i-window, found, err)
			}
		}
	}
	if n, _ := tr.Len(); n != window {
		t.Fatalf("Len = %d, want %d", n, window)
	}
	// The file should stay small: the working set is `window` tiny keys.
	if tr.pg.pageCount > 200 {
		t.Errorf("page count %d after churn; empty leaves are leaking", tr.pg.pageCount)
	}
}

func TestBtreePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.nsf")
	p, err := openPager(path, nsf.NewReplicaID(), "t", 0)
	if err != nil {
		t.Fatalf("openPager: %v", err)
	}
	tr := &btree{pg: p, slot: rootSlotByID}
	for i := 0; i < 1000; i++ {
		if err := tr.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprint(i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := p.flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := p.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	p2, err := openPager(path, nsf.ReplicaID{}, "", 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.close()
	tr2 := &btree{pg: p2, slot: rootSlotByID}
	for i := 0; i < 1000; i += 97 {
		v, ok, err := tr2.Get([]byte(fmt.Sprintf("key-%04d", i)))
		if err != nil || !ok || string(v) != fmt.Sprint(i) {
			t.Fatalf("after reopen Get %d = %q,%v,%v", i, v, ok, err)
		}
	}
	if n, _ := tr2.Len(); n != 1000 {
		t.Fatalf("Len after reopen = %d", n)
	}
}
