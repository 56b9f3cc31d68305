package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"anywheredb/internal/buffer"
	"anywheredb/internal/store"
)

func newTree(t *testing.T, frames int) (*Tree, *buffer.Pool, *store.Store) {
	t.Helper()
	st, err := store.Open(store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	pool := buffer.New(st, 4, frames, frames)
	tr, err := Create(pool, st, store.MainFile, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tr, pool, st
}

func k(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func v(i int) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

func TestInsertSearchSmall(t *testing.T) {
	tr, _, _ := newTree(t, 64)
	for i := 0; i < 50; i++ {
		if err := tr.Insert(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		got, ok, err := tr.Search(k(i))
		if err != nil || !ok {
			t.Fatalf("search %d: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(got, v(i)) {
			t.Fatalf("value mismatch for %d", i)
		}
	}
	if _, ok, _ := tr.Search([]byte("missing")); ok {
		t.Fatal("found a missing key")
	}
}

func TestSplitsAndOrder(t *testing.T) {
	tr, _, _ := newTree(t, 256)
	// Insert shuffled keys to force many splits at several levels.
	n := 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		if err := tr.Insert(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Stats.Height.Load() < 2 {
		t.Fatalf("height %d, expected splits", tr.Stats.Height.Load())
	}
	// Full scan returns every key in order.
	it, err := tr.First()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var prev []byte
	count := 0
	for ; it.Valid(); it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) > 0 {
			t.Fatal("scan out of order")
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if count != n {
		t.Fatalf("scan saw %d entries, want %d", count, n)
	}
	if got := tr.Stats.Entries.Load(); got != int64(n) {
		t.Fatalf("Stats.Entries %d, want %d", got, n)
	}
}

func TestSeekRange(t *testing.T) {
	tr, _, _ := newTree(t, 128)
	for i := 0; i < 1000; i += 2 { // even keys only
		tr.Insert(k(i), v(i))
	}
	// Seek to an absent odd key: lands on the next even key.
	it, err := tr.Seek(k(501))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if !it.Valid() || !bytes.Equal(it.Key(), k(502)) {
		t.Fatalf("seek landed on %q", it.Key())
	}
	// Range scan [502, 520): 9 entries.
	count := 0
	for ; it.Valid() && bytes.Compare(it.Key(), k(520)) < 0; it.Next() {
		count++
	}
	if count != 9 {
		t.Fatalf("range count %d, want 9", count)
	}
}

func TestSeekPastEnd(t *testing.T) {
	tr, _, _ := newTree(t, 64)
	tr.Insert(k(1), v(1))
	it, err := tr.Seek([]byte("zzzz"))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if it.Valid() {
		t.Fatal("seek past end should be invalid")
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr, _, _ := newTree(t, 128)
	for i := 0; i < 10; i++ {
		tr.Insert([]byte("dup"), v(i))
	}
	tr.Insert([]byte("eee"), v(99))
	it, _ := tr.Seek([]byte("dup"))
	defer it.Close()
	count := 0
	for ; it.Valid() && bytes.Equal(it.Key(), []byte("dup")); it.Next() {
		count++
	}
	if count != 10 {
		t.Fatalf("duplicate count %d, want 10", count)
	}
	if got := tr.Stats.Distinct.Load(); got != 2 {
		t.Fatalf("distinct %d, want 2", got)
	}
}

func TestDelete(t *testing.T) {
	tr, _, _ := newTree(t, 128)
	for i := 0; i < 500; i++ {
		tr.Insert(k(i), v(i))
	}
	for i := 0; i < 500; i += 2 {
		ok, err := tr.Delete(k(i), nil)
		if err != nil || !ok {
			t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
		}
	}
	// Deleted keys gone, survivors intact.
	for i := 0; i < 500; i++ {
		_, ok, _ := tr.Search(k(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("key %d present=%v, want %v", i, ok, want)
		}
	}
	if got := tr.Stats.Entries.Load(); got != 250 {
		t.Fatalf("entries after deletes %d, want 250", got)
	}
	// Delete by key+value: only the matching pair goes.
	tr.Insert([]byte("dv"), v(1))
	tr.Insert([]byte("dv"), v(2))
	ok, _ := tr.Delete([]byte("dv"), v(1))
	if !ok {
		t.Fatal("delete by value failed")
	}
	got, ok, _ := tr.Search([]byte("dv"))
	if !ok || !bytes.Equal(got, v(2)) {
		t.Fatal("wrong duplicate deleted")
	}
	if ok, _ := tr.Delete([]byte("absent"), nil); ok {
		t.Fatal("delete of absent key reported success")
	}
}

func TestScanAcrossEmptiedLeaves(t *testing.T) {
	tr, _, _ := newTree(t, 256)
	for i := 0; i < 2000; i++ {
		tr.Insert(k(i), v(i))
	}
	// Empty out a middle stretch entirely.
	for i := 500; i < 1500; i++ {
		tr.Delete(k(i), nil)
	}
	it, _ := tr.Seek(k(400))
	defer it.Close()
	count := 0
	for ; it.Valid(); it.Next() {
		count++
	}
	if count != 100+500 {
		t.Fatalf("scan across emptied leaves saw %d, want 600", count)
	}
}

func TestEntryTooLarge(t *testing.T) {
	tr, _, _ := newTree(t, 64)
	if err := tr.Insert(make([]byte, 4096), nil); err == nil {
		t.Fatal("oversized entry should be rejected")
	}
}

func TestClusteringStat(t *testing.T) {
	tr, _, _ := newTree(t, 128)
	// RIDs on the same "page" (same high bits): clustered.
	for i := 0; i < 100; i++ {
		var rid [12]byte
		binary.LittleEndian.PutUint64(rid[:], uint64(i/50)<<8) // 2 pages
		tr.Insert(k(i), rid[:])
	}
	if c := tr.Stats.Clustering(); c < 0.9 {
		t.Fatalf("clustering %g, want ~1 for sequential rids", c)
	}

	tr2, _, _ := newTree(t, 128)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		var rid [12]byte
		binary.LittleEndian.PutUint64(rid[:], uint64(rng.Intn(100))<<8)
		tr2.Insert(k(i), rid[:])
	}
	if c := tr2.Stats.Clustering(); c > 0.5 {
		t.Fatalf("clustering %g for random rids, want low", c)
	}
}

func TestAttachRebuildsStats(t *testing.T) {
	tr, pool, st := newTree(t, 256)
	for i := 0; i < 1000; i++ {
		tr.Insert(k(i), v(i))
	}
	root := tr.Root()
	at := Attach(pool, st, root, 1)
	if at.Stats.Entries.Load() != 1000 {
		t.Fatalf("attached entries %d", at.Stats.Entries.Load())
	}
	if at.Stats.Distinct.Load() != 1000 {
		t.Fatalf("attached distinct %d", at.Stats.Distinct.Load())
	}
	if at.Stats.Height.Load() != tr.Stats.Height.Load() {
		t.Fatalf("attached height %d, want %d", at.Stats.Height.Load(), tr.Stats.Height.Load())
	}
	got, ok, err := at.Search(k(512))
	if err != nil || !ok || !bytes.Equal(got, v(512)) {
		t.Fatal("attached tree search failed")
	}
}

func TestLeafPageStat(t *testing.T) {
	tr, _, _ := newTree(t, 256)
	for i := 0; i < 3000; i++ {
		tr.Insert(k(i), v(i))
	}
	if lp := tr.Stats.LeafPages.Load(); lp < 10 {
		t.Fatalf("leaf pages %d, expected many after 3000 inserts", lp)
	}
}

// Property test: a random mix of inserts and deletes always matches a
// reference map.
func TestQuickAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		st, _ := store.Open(store.Options{})
		defer st.Close()
		pool := buffer.New(st, 4, 128, 128)
		tr, err := Create(pool, st, store.MainFile, 1)
		if err != nil {
			return false
		}
		ref := map[string]string{}
		for op := 0; op < 400; op++ {
			key := fmt.Sprintf("k%04d", rng.Intn(200))
			if rng.Intn(3) != 0 {
				val := fmt.Sprintf("v%d", rng.Intn(1000))
				if old, ok := ref[key]; ok {
					tr.Delete([]byte(key), []byte(old))
				}
				ref[key] = val
				if err := tr.Insert([]byte(key), []byte(val)); err != nil {
					return false
				}
			} else {
				if old, ok := ref[key]; ok {
					ok2, _ := tr.Delete([]byte(key), []byte(old))
					if !ok2 {
						return false
					}
					delete(ref, key)
				}
			}
		}
		// Verify contents and order.
		var keys []string
		for kk := range ref {
			keys = append(keys, kk)
		}
		sort.Strings(keys)
		it, err := tr.First()
		if err != nil {
			return false
		}
		defer it.Close()
		for _, kk := range keys {
			if !it.Valid() {
				return false
			}
			if string(it.Key()) != kk || string(it.Value()) != ref[kk] {
				return false
			}
			it.Next()
		}
		return !it.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// kv is one entry of the sorted reference model.
type kv struct{ key, val []byte }

// leafKeys walks the leaf chain from the leftmost leaf and returns, for
// every non-empty leaf, its first and last key, plus the number of empty
// leaves passed on the way.
func leafKeys(t *testing.T, tr *Tree) (bounds [][]byte, empty int) {
	t.Helper()
	id := tr.Root()
	for {
		f, err := tr.pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		leaf, next := isLeaf(f.Data), store.PageID(f.Data.Next())
		tr.pool.Unpin(f, false)
		if leaf {
			break
		}
		id = next
	}
	for id != 0 {
		f, err := tr.pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if n := f.Data.NumSlots(); n == 0 {
			empty++
		} else {
			bounds = append(bounds,
				append([]byte(nil), cellKey(f.Data, 0)...),
				append([]byte(nil), cellKey(f.Data, n-1)...))
		}
		id = store.PageID(f.Data.Next())
		tr.pool.Unpin(f, false)
	}
	return bounds, empty
}

// TestSeekAgainstModel drives seeded trees of height ≥ 3 through inserts
// with runs of duplicate keys long enough to span leaves, and deletes that
// empty whole leaves. Every Seek must land where a linear lower bound over
// a sorted model lands, and a full scan must return the model's order
// (duplicates in insertion order).
func TestSeekAgainstModel(t *testing.T) {
	// Wide keys lower the fanout, so a few thousand entries make three
	// levels.
	pad := bytes.Repeat([]byte{'p'}, 80)
	wide := func(i int) []byte { return append([]byte(fmt.Sprintf("key-%06d-", i)), pad...) }
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tr, _, _ := newTree(t, 1024)
			var model []kv
			lowerBound := func(key []byte) int {
				i := 0
				for i < len(model) && bytes.Compare(model[i].key, key) < 0 {
					i++
				}
				return i
			}
			seq := 0
			insert := func(key []byte) {
				seq++
				e := kv{key, v(seq)}
				if err := tr.Insert(e.key, e.val); err != nil {
					t.Fatal(err)
				}
				i := lowerBound(key)
				for i < len(model) && bytes.Equal(model[i].key, key) {
					i++
				}
				model = append(model, kv{})
				copy(model[i+1:], model[i:])
				model[i] = e
			}
			remove := func(i int, byValue bool) {
				var val []byte
				if byValue {
					val = model[i].val
				}
				ok, err := tr.Delete(model[i].key, val)
				if err != nil || !ok {
					t.Fatalf("delete %q: ok=%v err=%v", model[i].key, ok, err)
				}
				model = append(model[:i], model[i+1:]...)
			}

			for n := 0; n < 3000; n++ {
				switch r := rng.Intn(10); {
				case r < 2:
					insert(wide(300)) // one hot key: hundreds of duplicates
				default:
					insert(wide(rng.Intn(600)))
				}
			}
			if h := tr.Stats.Height.Load(); h < 3 {
				t.Fatalf("height %d, want ≥ 3", h)
			}
			// Empty a stretch of leaves, then delete at random: by key and
			// value, and by key alone (the first duplicate goes).
			for i := lowerBound(wide(100)); i < len(model) && bytes.Compare(model[i].key, wide(250)) < 0; {
				remove(rng.Intn(lowerBound(wide(250))-i)+i, true)
			}
			for n := 0; n < 400; n++ {
				i := rng.Intn(len(model))
				if rng.Intn(2) == 0 {
					i = lowerBound(model[i].key)
					remove(i, false)
				} else {
					remove(i, true)
				}
			}
			bounds, empty := leafKeys(t, tr)
			if empty == 0 {
				t.Fatal("no leaf was emptied")
			}
			if got := tr.Stats.Entries.Load(); got != int64(len(model)) {
				t.Fatalf("entries stat %d, model %d", got, len(model))
			}

			// Full scan against the model.
			it, err := tr.First()
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range model {
				if !it.Valid() || !bytes.Equal(it.Key(), e.key) || !bytes.Equal(it.Value(), e.val) {
					t.Fatalf("scan entry %d differs from the model", i)
				}
				it.Next()
			}
			if it.Valid() {
				t.Fatal("scan runs past the model")
			}
			it.Close()

			// Seeks: before the first key, after the last, on and between
			// every key present and deleted, and on and just past each
			// leaf's first and last key.
			probes := [][]byte{nil, []byte("a"), []byte("zzz")}
			for i := 0; i < 620; i++ {
				probes = append(probes, wide(i), append(wide(i), 0))
			}
			for _, b := range bounds {
				probes = append(probes, b, append(append([]byte(nil), b...), 0))
			}
			for _, p := range probes {
				it, err := tr.Seek(p)
				if err != nil {
					t.Fatal(err)
				}
				for i := lowerBound(p); i < len(model) && i < lowerBound(p)+20; i++ {
					if !it.Valid() || !bytes.Equal(it.Key(), model[i].key) || !bytes.Equal(it.Value(), model[i].val) {
						t.Fatalf("seek %q: entry %d differs from the model", p, i)
					}
					it.Next()
				}
				if lowerBound(p) == len(model) && it.Valid() {
					t.Fatalf("seek %q past the last key is valid", p)
				}
				it.Close()
			}
		})
	}
}

// BenchmarkBTreeSeek times one point seek into a 5,000-entry tree of
// 9-byte keys (an encoded INT) and 8-byte values (a RID), the shape of a
// unique index probe, including the copy of the rest of the leaf.
func BenchmarkBTreeSeek(b *testing.B) {
	st, err := store.Open(store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	pool := buffer.New(st, 4, 256, 256)
	tr, err := Create(pool, st, store.MainFile, 1)
	if err != nil {
		b.Fatal(err)
	}
	key := func(i int) []byte {
		var k [9]byte
		k[0] = 1
		binary.BigEndian.PutUint64(k[1:], uint64(i))
		return k[:]
	}
	const n = 5000
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		if err := tr.Insert(key(i), v(i)); err != nil {
			b.Fatal(err)
		}
	}
	probes := rand.New(rand.NewSource(2)).Perm(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := tr.Seek(key(probes[i%n]))
		if err != nil || !it.Valid() {
			b.Fatalf("seek %d: err=%v", probes[i%n], err)
		}
		it.Close()
	}
}
