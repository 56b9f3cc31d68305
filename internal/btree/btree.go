// Package btree implements B+-trees over the buffer pool, used for table
// indexes and for the low-memory fallback structures of §4.3.
//
// Index statistics — number of distinct values, number of leaf pages, and
// a clustering statistic — are maintained in real time during operation
// (§3.2) and feed the optimizer's cost model directly; there is no
// UPDATE STATISTICS step to schedule.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"anywheredb/internal/buffer"
	"anywheredb/internal/page"
	"anywheredb/internal/store"
)

// Stats are the real-time index statistics of §3.2.
type Stats struct {
	Entries   atomic.Int64
	LeafPages atomic.Int64
	Height    atomic.Int64
	// Distinct approximates the number of distinct keys; maintained
	// incrementally by comparing each inserted key with its neighbour.
	Distinct atomic.Int64
	// ClusteredPairs / TotalPairs estimate how well index order matches
	// table order: a pair is clustered when adjacent index entries point
	// into the same table page.
	ClusteredPairs atomic.Int64
	TotalPairs     atomic.Int64
}

// Clustering returns the fraction of adjacent entries pointing to the same
// table page (1.0 for a fully clustered index).
func (s *Stats) Clustering() float64 {
	tp := s.TotalPairs.Load()
	if tp == 0 {
		return 1
	}
	return float64(s.ClusteredPairs.Load()) / float64(tp)
}

// Tree is a B+-tree. Keys and values are byte strings; keys compare
// bytewise (use val.EncodeKey for typed keys). Non-unique trees may hold
// duplicate keys. A Tree is safe for concurrent use via a coarse latch.
type Tree struct {
	pool  *buffer.Pool
	st    *store.Store
	file  store.FileID
	objID uint64

	mu   sync.RWMutex
	root store.PageID

	Stats Stats
}

const (
	flagLeaf = 1 << 0
	// maxCell keeps any two cells insertable into an empty page, so a split
	// always succeeds.
	maxCell = (page.Size - page.HeaderSize - 16) / 2
)

// entry is a decoded cell.
type entry struct {
	key []byte
	val []byte
}

func encodeEntry(e entry) []byte {
	b := binary.AppendUvarint(nil, uint64(len(e.key)))
	b = append(b, e.key...)
	b = binary.AppendUvarint(b, uint64(len(e.val)))
	b = append(b, e.val...)
	return b
}

func decodeEntry(c []byte) entry {
	kl, n := binary.Uvarint(c)
	c = c[n:]
	key := c[:kl]
	c = c[kl:]
	vl, n := binary.Uvarint(c)
	c = c[n:]
	return entry{key: key, val: c[:vl]}
}

// Create allocates an empty tree (a single leaf root) in the given file.
func Create(pool *buffer.Pool, st *store.Store, file store.FileID, objID uint64) (*Tree, error) {
	t := &Tree{pool: pool, st: st, file: file, objID: objID}
	f, err := pool.NewPage(file, page.TypeIndex)
	if err != nil {
		return nil, err
	}
	f.Data.SetOwner(objID)
	setFlags(f.Data, flagLeaf)
	t.root = f.ID
	pool.Unpin(f, true)
	t.Stats.LeafPages.Store(1)
	t.Stats.Height.Store(1)
	return t, nil
}

// Attach opens an existing tree rooted at root.
func Attach(pool *buffer.Pool, st *store.Store, root store.PageID, objID uint64) *Tree {
	t := &Tree{pool: pool, st: st, file: root.File(), objID: objID, root: root}
	t.rebuildStats()
	return t
}

// Root reports the current root page (persist it in the catalog).
func (t *Tree) Root() store.PageID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.root
}

func setFlags(p page.Buf, f byte) { p[1] = f }
func flags(p page.Buf) byte       { return p[1] }
func isLeaf(p page.Buf) bool      { return flags(p)&flagLeaf != 0 }

// readEntries decodes a node's cells in slot order (slot order is key
// order by construction). Entries are copied out of the page: callers
// rewrite the page (which zeroes it) while still holding them.
func readEntries(p page.Buf) []entry { return entriesFrom(p, 0) }

// entriesFrom copies the cells of slots from..n-1 out of the page into one
// backing buffer.
func entriesFrom(p page.Buf, from int) []entry {
	n := p.NumSlots()
	if from >= n {
		return nil
	}
	size := 0
	for i := from; i < n; i++ {
		size += len(p.Cell(i))
	}
	buf := make([]byte, 0, size)
	es := make([]entry, n-from)
	for i := range es {
		e := decodeEntry(p.Cell(from + i))
		k := len(buf)
		buf = append(buf, e.key...)
		v := len(buf)
		buf = append(buf, e.val...)
		es[i] = entry{key: buf[k:v:v], val: buf[v:len(buf):len(buf)]}
	}
	return es
}

// cellKey returns slot i's key in place (no copy).
func cellKey(p page.Buf, i int) []byte {
	c := p.Cell(i)
	kl, n := binary.Uvarint(c)
	return c[n : n+int(kl)]
}

// search binary-searches a node's cells in place. Slots are dense and in
// key order because every write goes through writeEntries. It returns the
// first slot whose key is ≥ k, or > k when upper is set.
func search(p page.Buf, k []byte, upper bool) int {
	lo, hi := 0, p.NumSlots()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c := bytes.Compare(cellKey(p, mid), k); c < 0 || (upper && c == 0) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childAt returns the child page of an internal node that covers k. A
// separator is the first key of its right subtree, but duplicates of it may
// also end the left one: a lower-bound descent (upper unset) therefore
// follows the last separator < k, an insert (upper set) the last one ≤ k.
func childAt(p page.Buf, k []byte, upper bool) store.PageID {
	i := search(p, k, upper)
	if i == 0 {
		return store.PageID(p.Next())
	}
	return pageIDFromBytes(decodeEntry(p.Cell(i - 1)).val)
}

// writeEntries rewrites a node with the given entries in order, preserving
// type, flags, next pointer, and owner.
func writeEntries(p page.Buf, es []entry) error {
	fl := flags(p)
	next := p.Next()
	owner := p.Owner()
	p.Init(page.TypeIndex)
	setFlags(p, fl)
	p.SetNext(next)
	p.SetOwner(owner)
	for _, e := range es {
		if p.Insert(encodeEntry(e)) < 0 {
			return fmt.Errorf("btree: node overflow writing %d entries", len(es))
		}
	}
	return nil
}

func nodeBytes(es []entry) int {
	n := 0
	for _, e := range es {
		n += len(encodeEntry(e)) + 4
	}
	return n
}

// Insert adds a (key, value) pair. Duplicate keys are permitted.
func (t *Tree) Insert(key, value []byte) error {
	if len(key)+len(value) > maxCell {
		return fmt.Errorf("btree: entry too large (%d bytes)", len(key)+len(value))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	split, err := t.insertAt(t.root, key, value)
	if err != nil {
		return err
	}
	if split != nil {
		// Root split: new internal root with the old root as leftmost child.
		f, err := t.pool.NewPage(t.file, page.TypeIndex)
		if err != nil {
			return err
		}
		f.Data.SetOwner(t.objID)
		setFlags(f.Data, 0)
		f.Data.SetNext(uint64(t.root)) // leftmost child
		if f.Data.Insert(encodeEntry(entry{key: split.sepKey, val: pageIDBytes(split.right)})) < 0 {
			t.pool.Unpin(f, true)
			return fmt.Errorf("btree: root split insert failed")
		}
		t.root = f.ID
		t.pool.Unpin(f, true)
		t.Stats.Height.Add(1)
	}
	return nil
}

type splitResult struct {
	sepKey []byte
	right  store.PageID
}

func pageIDBytes(id store.PageID) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(id))
	return b[:]
}

func pageIDFromBytes(b []byte) store.PageID {
	return store.PageID(binary.LittleEndian.Uint64(b))
}

func (t *Tree) insertAt(id store.PageID, key, value []byte) (*splitResult, error) {
	f, err := t.pool.Get(id)
	if err != nil {
		return nil, err
	}
	f.Lock()
	leaf := isLeaf(f.Data)
	if !leaf {
		child := childAt(f.Data, key, true)
		f.Unlock()
		t.pool.Unpin(f, false)
		split, err := t.insertAt(child, key, value)
		if err != nil || split == nil {
			return nil, err
		}
		// Insert separator into this node.
		f, err = t.pool.Get(id)
		if err != nil {
			return nil, err
		}
		f.Lock()
		es := readEntries(f.Data)
		sep := entry{key: split.sepKey, val: pageIDBytes(split.right)}
		es = insertSorted(es, sep)
		res, err := t.writeMaybeSplit(f, es, false)
		f.Unlock()
		t.pool.Unpin(f, true)
		return res, err
	}

	// Leaf insert.
	es := readEntries(f.Data)
	e := entry{key: key, val: value}
	pos := insertPos(es, key)
	// Real-time statistics: distinct keys and clustering.
	t.noteInsert(es, pos, e)
	es = append(es, entry{})
	copy(es[pos+1:], es[pos:])
	es[pos] = e
	res, err := t.writeMaybeSplit(f, es, true)
	f.Unlock()
	t.pool.Unpin(f, true)
	if err == nil {
		t.Stats.Entries.Add(1)
	}
	return res, err
}

// insertPos returns the position of the first entry with key > k (upper
// bound), so duplicates append after existing equals.
func insertPos(es []entry, k []byte) int {
	lo, hi := 0, len(es)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(es[mid].key, k) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func insertSorted(es []entry, e entry) []entry {
	pos := insertPos(es, e.key)
	es = append(es, entry{})
	copy(es[pos+1:], es[pos:])
	es[pos] = e
	return es
}

func (t *Tree) noteInsert(es []entry, pos int, e entry) {
	distinct := true
	if pos > 0 && bytes.Equal(es[pos-1].key, e.key) {
		distinct = false
	}
	if pos < len(es) && bytes.Equal(es[pos].key, e.key) {
		distinct = false
	}
	if distinct {
		t.Stats.Distinct.Add(1)
	}
	// Clustering: compare the table page of the new entry's RID with its
	// predecessor's. Values that are not RIDs simply skew toward clustered.
	if pos > 0 {
		t.Stats.TotalPairs.Add(1)
		if ridPage(es[pos-1].val) == ridPage(e.val) {
			t.Stats.ClusteredPairs.Add(1)
		}
	}
}

func ridPage(v []byte) uint64 {
	if len(v) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(v) >> 8 // ignore slot byte-ish low bits
}

// writeMaybeSplit writes entries back, splitting the node if they do not
// fit. The caller holds the frame latch and unpins afterwards.
func (t *Tree) writeMaybeSplit(f *buffer.Frame, es []entry, leaf bool) (*splitResult, error) {
	if nodeBytes(es) <= page.Size-page.HeaderSize-8 {
		return nil, writeEntries(f.Data, es)
	}
	// Split: left keeps the first half, right gets the rest.
	mid := len(es) / 2
	leftEs, rightEs := es[:mid], es[mid:]

	rf, err := t.pool.NewPage(t.file, page.TypeIndex)
	if err != nil {
		return nil, err
	}
	rf.Data.SetOwner(t.objID)
	var sepKey []byte
	if leaf {
		setFlags(rf.Data, flagLeaf)
		// Maintain the leaf sibling chain.
		rf.Data.SetNext(f.Data.Next())
		sepKey = append([]byte(nil), rightEs[0].key...)
		if err := writeEntries(rf.Data, rightEs); err != nil {
			t.pool.Unpin(rf, true)
			return nil, err
		}
		if err := writeEntries(f.Data, leftEs); err != nil {
			t.pool.Unpin(rf, true)
			return nil, err
		}
		f.Data.SetNext(uint64(rf.ID))
		t.Stats.LeafPages.Add(1)
	} else {
		setFlags(rf.Data, 0)
		// The middle entry's key moves up; its child becomes the right
		// node's leftmost child.
		sepKey = append([]byte(nil), rightEs[0].key...)
		rf.Data.SetNext(uint64(pageIDFromBytes(rightEs[0].val)))
		if err := writeEntries(rf.Data, rightEs[1:]); err != nil {
			t.pool.Unpin(rf, true)
			return nil, err
		}
		if err := writeEntries(f.Data, leftEs); err != nil {
			t.pool.Unpin(rf, true)
			return nil, err
		}
	}
	right := rf.ID
	t.pool.Unpin(rf, true)
	return &splitResult{sepKey: sepKey, right: right}, nil
}

// Delete removes one entry matching key and (if value is non-nil) value.
// It reports whether an entry was removed. Nodes are allowed to underflow;
// empty leaves stay in the chain until the tree is rebuilt.
func (t *Tree) Delete(key, value []byte) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.root
	for id != 0 {
		f, err := t.pool.Get(id)
		if err != nil {
			return false, err
		}
		f.Lock()
		if !isLeaf(f.Data) {
			id = childAt(f.Data, key, false)
			f.Unlock()
			t.pool.Unpin(f, false)
			continue
		}
		// Duplicates of key may run on into the next leaves: walk the
		// chain until the value matches or the key changes.
		n := f.Data.NumSlots()
		for i := search(f.Data, key, false); i < n; i++ {
			e := decodeEntry(f.Data.Cell(i))
			if !bytes.Equal(e.key, key) {
				f.Unlock()
				t.pool.Unpin(f, false)
				return false, nil
			}
			if value == nil || bytes.Equal(e.val, value) {
				es := readEntries(f.Data)
				err := writeEntries(f.Data, append(es[:i], es[i+1:]...))
				f.Unlock()
				t.pool.Unpin(f, true)
				if err == nil {
					t.Stats.Entries.Add(-1)
				}
				return true, err
			}
		}
		id = store.PageID(f.Data.Next())
		f.Unlock()
		t.pool.Unpin(f, false)
	}
	return false, nil
}

// Search returns the value of the first entry with exactly this key.
func (t *Tree) Search(key []byte) ([]byte, bool, error) {
	it, err := t.Seek(key)
	if err != nil {
		return nil, false, err
	}
	defer it.Close()
	if !it.Valid() || !bytes.Equal(it.Key(), key) {
		return nil, false, nil
	}
	return append([]byte(nil), it.Value()...), true, nil
}

// Iterator walks leaf entries in key order.
type Iterator struct {
	t       *Tree
	frame   *buffer.Frame
	entries []entry
	pos     int
	err     error
}

// Seek positions an iterator at the first entry with key ≥ k.
func (t *Tree) Seek(k []byte) (*Iterator, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	id := t.root
	for {
		f, err := t.pool.Get(id)
		if err != nil {
			return nil, err
		}
		f.RLock()
		if isLeaf(f.Data) {
			it := &Iterator{t: t, frame: f, entries: entriesFrom(f.Data, search(f.Data, k, false))}
			f.RUnlock()
			if len(it.entries) == 0 {
				it.advancePage()
			}
			return it, nil
		}
		next := childAt(f.Data, k, false)
		f.RUnlock()
		t.pool.Unpin(f, false)
		id = next
	}
}

// First positions an iterator at the smallest key.
func (t *Tree) First() (*Iterator, error) { return t.Seek(nil) }

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return it.err == nil && it.frame != nil && it.pos < len(it.entries) }

// Key returns the current entry's key.
func (it *Iterator) Key() []byte { return it.entries[it.pos].key }

// Value returns the current entry's value.
func (it *Iterator) Value() []byte { return it.entries[it.pos].val }

// Err reports any error encountered while iterating.
func (it *Iterator) Err() error { return it.err }

// Next advances to the following entry, crossing leaf pages via the
// sibling chain.
func (it *Iterator) Next() {
	if !it.Valid() {
		return
	}
	it.pos++
	if it.pos >= len(it.entries) {
		it.advancePage()
	}
}

func (it *Iterator) advancePage() {
	for it.frame != nil {
		it.frame.RLock()
		next := it.frame.Data.Next()
		it.frame.RUnlock()
		it.t.pool.Unpin(it.frame, false)
		it.frame = nil
		if next == 0 {
			return
		}
		f, err := it.t.pool.Get(store.PageID(next))
		if err != nil {
			it.err = err
			return
		}
		f.RLock()
		es := readEntries(f.Data)
		f.RUnlock()
		it.frame = f
		it.entries = es
		it.pos = 0
		if len(es) > 0 {
			return
		}
		// Empty leaf (all entries deleted): keep walking.
	}
}

// Close releases the iterator's pin.
func (it *Iterator) Close() {
	if it.frame != nil {
		it.t.pool.Unpin(it.frame, false)
		it.frame = nil
	}
}

// rebuildStats recomputes statistics by walking the tree (used by Attach).
func (t *Tree) rebuildStats() {
	t.Stats = Stats{}
	it, err := t.First()
	if err != nil {
		return
	}
	defer it.Close()
	var prevKey, prevVal []byte
	leaves := map[store.PageID]bool{}
	for ; it.Valid(); it.Next() {
		t.Stats.Entries.Add(1)
		if prevKey == nil || !bytes.Equal(prevKey, it.Key()) {
			t.Stats.Distinct.Add(1)
		}
		if prevKey != nil {
			t.Stats.TotalPairs.Add(1)
			if ridPage(prevVal) == ridPage(it.Value()) {
				t.Stats.ClusteredPairs.Add(1)
			}
		}
		prevKey = append(prevKey[:0], it.Key()...)
		prevVal = append(prevVal[:0], it.Value()...)
		if it.frame != nil {
			leaves[it.frame.ID] = true
		}
	}
	if len(leaves) == 0 {
		t.Stats.LeafPages.Store(1)
	} else {
		t.Stats.LeafPages.Store(int64(len(leaves)))
	}
	// Height: descend leftmost.
	h := int64(1)
	id := t.root
	for {
		f, err := t.pool.Get(id)
		if err != nil {
			break
		}
		f.RLock()
		leaf := isLeaf(f.Data)
		next := f.Data.Next()
		f.RUnlock()
		t.pool.Unpin(f, false)
		if leaf {
			break
		}
		h++
		id = store.PageID(next)
	}
	t.Stats.Height.Store(h)
}
