package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/nsf"
	"repro/internal/vfs"
)

func testPager(t *testing.T) *pager {
	t.Helper()
	dir := t.TempDir()
	p, _, err := openPager(vfs.OS, filepath.Join(dir, "test.nsf"), nsf.NewReplicaID(), "t", 0)
	if err != nil {
		t.Fatalf("openPager: %v", err)
	}
	t.Cleanup(func() { p.close() })
	return p
}

func testTree(t *testing.T) *btree {
	return &btree{pg: testPager(t), slot: rootSlotByID}
}

// TestBtreeWarmReplaceAllocatesNothing: on a tree whose pages are cached,
// replacing a key's value keeps its descent path on the stack and compacts
// leaves in place, and a Get copies into the caller's buffer: none of them
// allocates, at 5,000 keys or at 100,000. A cold Get reads one page per
// level, and 20 times the keys add at most one level.
func TestBtreeWarmReplaceAllocatesNothing(t *testing.T) {
	var coldPages []int64
	for _, keys := range []int{5000, 100000} {
		fs := faultfs.New(1)
		path := filepath.Join(t.TempDir(), "test.nsf")
		p, _, err := openPager(fs, path, nsf.NewReplicaID(), "t", 0)
		if err != nil {
			t.Fatal(err)
		}
		tr := &btree{pg: p, slot: rootSlotByID}
		var key, val [8]byte
		for i := 0; i < keys; i++ {
			binary.BigEndian.PutUint64(key[:], uint64(i))
			if err := tr.Put(key[:], key[:]); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		if allocs := testing.AllocsPerRun(2000, func() {
			binary.BigEndian.PutUint64(key[:], uint64(i*7919%keys))
			binary.BigEndian.PutUint64(val[:], uint64(i))
			if err := tr.Put(key[:], val[:]); err != nil {
				t.Fatal(err)
			}
			i++
		}); allocs != 0 {
			t.Errorf("%d keys: replacing a key allocates %v times", keys, allocs)
		}
		var buf [8]byte
		if allocs := testing.AllocsPerRun(1000, func() {
			binary.BigEndian.PutUint64(key[:], uint64(i%keys))
			if v, ok, err := tr.Get(key[:], buf[:0]); err != nil || !ok || len(v) != 8 {
				t.Fatalf("Get = %x, %v, %v", v, ok, err)
			}
			i++
		}); allocs != 0 {
			t.Errorf("%d keys: Get into a buffer allocates %v times", keys, allocs)
		}
		if err := p.flush(); err != nil {
			t.Fatal(err)
		}
		p.close()
		// A fresh pager caches no page: the Get reads each page it visits.
		cold, _, err := openPager(fs, path, nsf.ReplicaID{}, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		var read atomic.Int64
		fs.Inject(func(op faultfs.Op) error {
			if op.Kind == faultfs.OpRead {
				read.Add(op.Len)
			}
			return nil
		})
		binary.BigEndian.PutUint64(key[:], uint64(keys/2))
		_, ok, err := (&btree{pg: cold, slot: rootSlotByID}).Get(key[:], nil)
		fs.Inject(nil)
		cold.close()
		if err != nil || !ok {
			t.Fatalf("%d keys: cold Get = %v, %v", keys, ok, err)
		}
		t.Logf("%d keys: a cold Get reads %d pages", keys, read.Load()/PageSize)
		coldPages = append(coldPages, read.Load()/PageSize)
	}
	if coldPages[0] == 0 || coldPages[1] > coldPages[0]+1 {
		t.Errorf("a cold Get reads %d pages at 5,000 keys and %d at 100,000, want at most one more", coldPages[0], coldPages[1])
	}
}

func TestBtreeBasic(t *testing.T) {
	tr := testTree(t)
	if _, ok, err := tr.Get([]byte("missing"), nil); err != nil || ok {
		t.Fatalf("Get on empty tree = %v, %v", ok, err)
	}
	if err := tr.Put([]byte("alpha"), []byte("1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := tr.Put([]byte("beta"), []byte("2")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, ok, err := tr.Get([]byte("alpha"), nil)
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get alpha = %q, %v, %v", v, ok, err)
	}
	// Overwrite.
	if err := tr.Put([]byte("alpha"), []byte("one")); err != nil {
		t.Fatalf("Put overwrite: %v", err)
	}
	v, _, _ = tr.Get([]byte("alpha"), nil)
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
	if _, ok, _ := tr.Get([]byte("alpha"), nil); ok {
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
			v, ok, err := tr.Get([]byte(k), nil)
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
	p, _, err := openPager(vfs.OS, path, nsf.NewReplicaID(), "t", 0)
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
	p2, _, err := openPager(vfs.OS, path, nsf.ReplicaID{}, "", 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer p2.close()
	tr2 := &btree{pg: p2, slot: rootSlotByID}
	for i := 0; i < 1000; i += 97 {
		v, ok, err := tr2.Get([]byte(fmt.Sprintf("key-%04d", i)), nil)
		if err != nil || !ok || string(v) != fmt.Sprint(i) {
			t.Fatalf("after reopen Get %d = %q,%v,%v", i, v, ok, err)
		}
	}
	if n, _ := tr2.Len(); n != 1000 {
		t.Fatalf("Len after reopen = %d", n)
	}
}

// TestBtreeDeepModel grows a tree of keys near MaxKeyLen — about fifteen to
// a page, so a few hundred keys make three levels and branches split — then
// interleaves puts and deletes against a map down to empty, reopening the
// store midway. Get, Ascend order and Len match the map throughout, and
// the drained tree takes keys again.
func TestBtreeDeepModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deep.nsf")
	var tr *btree
	open := func() {
		p, _, err := openPager(vfs.OS, path, nsf.NewReplicaID(), "t", 0)
		if err != nil {
			t.Fatalf("openPager: %v", err)
		}
		tr = &btree{pg: p, slot: rootSlotByID}
	}
	open()
	t.Cleanup(func() { tr.pg.close() })
	rng := rand.New(rand.NewSource(49))
	key := func(i int) string {
		k := fmt.Sprintf("%06d-", i)
		return k + string(bytes.Repeat([]byte("k"), MaxKeyLen-len(k)-i%5))
	}
	model := map[string]string{}
	put := func(i int) {
		k, v := key(i), fmt.Sprintf("v%d", rng.Intn(1<<20))
		if err := tr.Put([]byte(k), []byte(v)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		model[k] = v
	}
	del := func(i int) {
		k := key(i)
		found, err := tr.Delete([]byte(k))
		_, want := model[k]
		if err != nil || found != want {
			t.Fatalf("Delete %d = %v, %v; want found=%v", i, found, err, want)
		}
		delete(model, k)
	}
	get := func(i int) {
		k := key(i)
		v, ok, err := tr.Get([]byte(k), nil)
		want, wantOK := model[k]
		if err != nil || ok != wantOK || string(v) != want {
			t.Fatalf("Get %d = %q, %v, %v; want %q, %v", i, v, ok, err, want, wantOK)
		}
	}
	check := func(when string) {
		keys := make([]string, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		i := 0
		if err := tr.Ascend(nil, func(k, v []byte) bool {
			if i >= len(keys) || string(k) != keys[i] || string(v) != model[keys[i]] {
				t.Fatalf("%s: Ascend entry %d is %.12q, out of step with the model", when, i, k)
			}
			i++
			return true
		}); err != nil || i != len(keys) {
			t.Fatalf("%s: Ascend yielded %d of %d keys (%v)", when, i, len(keys), err)
		}
		if n, err := tr.Len(); err != nil || n != len(keys) {
			t.Fatalf("%s: Len = %d (%v), want %d", when, n, err, len(keys))
		}
	}
	depth := func() int {
		d := 0
		for id := tr.root(); id != nilPage; d++ {
			pg, err := tr.pg.get(id)
			if err != nil {
				t.Fatal(err)
			}
			if nodeType(pg) == pageLeaf {
				return d + 1
			}
			id = tr.childAt(pg, 0, false)
		}
		return d
	}

	const ids = 1000
	for _, i := range rng.Perm(ids)[:600] {
		put(i)
	}
	check("grown")
	if d := depth(); d < 3 {
		t.Fatalf("600 long keys make a tree of depth %d, want at least 3", d)
	}
	const churn = 4000
	for op := 0; op < churn; op++ {
		i := rng.Intn(ids)
		if rng.Intn(2) == 0 {
			put(i)
		} else {
			del(i)
		}
		get(rng.Intn(ids))
		if op%250 == 0 {
			check(fmt.Sprintf("churn op %d", op))
		}
		if op == churn/2 {
			if err := tr.pg.flush(); err != nil {
				t.Fatal(err)
			}
			if err := tr.pg.close(); err != nil {
				t.Fatal(err)
			}
			open()
			check("reopened")
		}
	}
	for n, i := range rng.Perm(ids) {
		del(i)
		if n%100 == 0 {
			check(fmt.Sprintf("drain step %d", n))
		}
	}
	check("drained")
	if tr.root() != nilPage && depth() != 1 {
		t.Errorf("a drained tree has depth %d", depth())
	}
	for i := 0; i < 50; i++ {
		put(i)
	}
	check("refilled")
}
