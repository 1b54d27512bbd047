package engine

import (
	"maps"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Per-column access structures, built lazily on first use and cached on the
// DB keyed by table snapshot pointer. Snapshots are immutable (Add/Append
// publish a new *Table), so an entry can never go stale. A write touches only
// the written table's entry — every other table's stats, indexes, and
// columnar image stay warm. An Add drops the entry. An Append hands it to the
// new snapshot (tableAccess.parent), whose first use extends the column image,
// statistics and hash indexes by the appended rows instead of rebuilding them;
// the sorted indexes are dropped and rebuild on demand. A live Plan can never
// observe a wrong index for the same reason it can never observe a wrong
// table pointer — Exec refuses to run once a referenced table's generation
// moves (Plan.Stale).
//
// Two index kinds, both keyed to agree exactly with the sweep path:
//
//   - hash index: one per column, shared by equality scans, the row path's
//     borrowed join builds and the vectorized join. Buckets of row indexes
//     are keyed under the `=` coercion: by joinKeyBits for an all-numeric
//     NaN-free column, otherwise by the cell's `=` text (the number 1 and
//     the string '1' share a bucket, -0 lands on +0). NULL cells are not
//     indexed — `=` never matches NULL. Bucket row lists are ascending, so
//     an equality probe yields candidates already in scan order.
//   - sorted index: the non-null (value, row) pairs ordered by Compare with
//     the row index as tiebreaker. Range probes binary-search the bounds;
//     the chooser only routes here for type-homogeneous columns, where
//     Compare is a total order (see stats.go).

type accessCache struct {
	tables map[*Table]*tableAccess
}

// take removes and returns t's slot, if it has one. A nil cache has none.
func (ac *accessCache) take(t *Table) *tableAccess {
	if ac == nil {
		return nil
	}
	ta := ac.tables[t]
	delete(ac.tables, t)
	return ta
}

// tableAccess holds one table's lazily-built statistics and indexes. Its
// mutex serializes builds; lookups after the first build are read-only on
// immutable structures.
type tableAccess struct {
	mu     sync.Mutex
	parent *tableAccess // the replaced snapshot's slot, set by Append; cleared by adopt
	stats  *TableStats
	hash   map[int]*hashIndex
	sorted map[int]*sortedIndex
	cols   *tableCols // columnar image (colstore.go); hash indexes build from it
}

// adopt moves into ta, on its first use, the structures of the slot chain an
// Append handed it (appends nobody read in between leave a chain of empty
// slots). The structures then cover a prefix of ta's snapshot, and each
// accessor extends its own by the rest. Moving rather than sharing leaves
// every structure owned by one slot, so it is extended at most once; a
// goroutine still holding an ancestor slot finds it empty and builds afresh.
// Locks run from the newer slot to the older, never back. ta.mu is held.
func (ta *tableAccess) adopt() {
	for p := ta.parent; p != nil; {
		p.mu.Lock()
		next := p.parent
		p.parent = nil
		if next == nil {
			ta.cols, ta.stats, ta.hash = p.cols, p.stats, p.hash
			p.cols, p.stats, p.hash, p.sorted = nil, nil, nil, nil
		}
		p.mu.Unlock()
		p = next
	}
	ta.parent = nil
}

// access returns the table snapshot's access slot. Slots are cached only
// for the snapshot currently published under the table's name: a superseded
// snapshot (a plan mid-flight across an Append, or a derived table) gets a
// throwaway slot, so replaced tables can never pin dead index memory.
func (db *DB) access(t *Table) *tableAccess {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.acc == nil {
		db.acc = &accessCache{tables: map[*Table]*tableAccess{}}
	}
	ta := db.acc.tables[t]
	if ta == nil {
		ta = &tableAccess{}
		if db.Tables[strings.ToLower(t.Name)] == t {
			db.acc.tables[t] = ta
		}
	}
	return ta
}

// tableStats returns the table's statistics, computing them on first use or
// extending the ones an Append handed over.
func (db *DB) tableStats(t *Table) *TableStats {
	tc := db.columnsFor(t)
	ta := db.access(t)
	ta.mu.Lock()
	defer ta.mu.Unlock()
	ta.adopt()
	switch {
	case ta.stats == nil:
		t0 := time.Now()
		ta.stats = extendStats(nil, t, tc)
		db.statBuilds.Add(1)
		db.observeBuild("stats", time.Since(t0))
	case ta.stats.Rows < tc.rows:
		t0 := time.Now()
		ta.stats = extendStats(ta.stats, t, tc)
		db.observeBuild("stats-extend", time.Since(t0))
	}
	return ta.stats
}

// hashIndex is one column's hash index (see the file comment). num selects
// the keying: joinKeyBits in tab, else `=` text in idx. Either maps a key to
// its bucket number b, whose rows are rows[off[b]:off[b+1]], so the buckets
// cost two allocations however many keys the column has. Buckets are
// numbered in order of their key's first row.
type hashIndex struct {
	num  bool
	n    int // the rows indexed: a column index covers rows [0, n)
	tab  u64table
	idx  map[string]int32
	off  []int32
	rows []int
}

// bucket returns bucket b's rows, capped so an append cannot spill into
// the next bucket.
func (h *hashIndex) bucket(b int32) []int {
	return h.rows[h.off[b]:h.off[b+1]:h.off[b+1]]
}

// size is the number of buckets.
func (h *hashIndex) size() int { return len(h.off) - 1 }

// hashIndexFor returns the table's hash index on column col, building it on
// first use or extending the one an Append handed over. Its buckets are
// exactly buildHashSide's over the table's full row list with the bare
// column as the only key, which is what lets a join build side borrow it
// bit-for-bit.
func (db *DB) hashIndexFor(t *Table, col int) *hashIndex {
	tc := db.columnsFor(t)
	ta := db.access(t)
	ta.mu.Lock()
	defer ta.mu.Unlock()
	ta.adopt()
	cd := &tc.cols[col]
	h := ta.hash[col]
	switch {
	case h != nil && h.n == tc.rows:
		return h
	case h != nil && h.num == keyByBits(cd):
		t0 := time.Now()
		h = h.extend(cd, tc.rows)
		db.observeBuild("hash-extend", time.Since(t0))
	default:
		// Unbuilt, or the appended rows brought the column's first string
		// or NaN, which changes the keying of every bucket.
		t0 := time.Now()
		h = buildHashIndex(cd, nil, tc.rows)
		db.idxBuilds.Add(1)
		db.observeBuild("hash", time.Since(t0))
	}
	if ta.hash == nil {
		ta.hash = map[int]*hashIndex{}
	}
	ta.hash[col] = h
	return h
}

// keyByBits reports whether a hash index over cd keys by joinKeyBits: the
// column is all-numeric and NaN-free.
func keyByBits(cd *colData) bool { return cd.allNum() && !cd.hasNaN }

// buildHashIndex indexes column cd over the rows in sel, or over all n rows
// when sel is nil (the vectorized join's filtered build side passes its
// selection). The canonical text of a finite float is injective, so keying
// an all-numeric NaN-free column by joinKeyBits yields exactly the buckets
// of the text keying.
func buildHashIndex(cd *colData, sel []int32, n int) *hashIndex {
	if sel != nil {
		n = len(sel)
	}
	h := &hashIndex{num: keyByBits(cd), n: n}
	if h.num {
		h.tab = newU64Table(n)
	} else {
		h.idx = make(map[string]int32)
	}
	row := func(k int) int {
		if sel != nil {
			return int(sel[k])
		}
		return k
	}
	// Pass one numbers the keys and counts each bucket's rows; pass two
	// lays the buckets out back to back, rows ascending within each.
	ids := make([]int32, n)
	var counts []int32
	for k := range ids {
		ids[k] = h.key(cd, row(k), &counts)
	}
	h.layout(nil, counts, ids, row)
	return h
}

// key returns the bucket of row ri's cell, or -1 for NULL (never matched
// under `=`). A key not yet in h gets the next bucket number, len(*counts),
// and every non-NULL cell counts one row into its bucket's entry of counts.
// The caller owns h's key table.
func (h *hashIndex) key(cd *colData, ri int, counts *[]int32) int32 {
	if cd.isNull(ri) {
		return -1
	}
	bi := h.find(cd, ri)
	if bi < 0 {
		bi = int32(len(*counts))
		*counts = append(*counts, 0)
		switch {
		case h.num:
			*h.tab.insert(joinKeyBits(cd.nums[ri])) = bi
		case cd.isString(ri):
			h.idx[cd.strs[ri]] = bi
		default:
			var tmp [32]byte
			h.idx[string(appendNumKey(tmp[:0], cd.nums[ri]))] = bi
		}
	}
	(*counts)[bi]++
	return bi
}

// find returns the bucket of row ri's non-NULL cell, or -1 if h has no
// bucket for its key.
func (h *hashIndex) find(cd *colData, ri int) int32 {
	switch {
	case h.num:
		return h.tab.find(joinKeyBits(cd.nums[ri]))
	case cd.isString(ri):
		if bi, ok := h.idx[cd.strs[ri]]; ok {
			return bi
		}
	default:
		var tmp [32]byte
		if bi, ok := h.idx[string(appendNumKey(tmp[:0], cd.nums[ri]))]; ok {
			return bi
		}
	}
	return -1
}

// layout fills h.off and h.rows: bucket b holds old's rows of b (none when
// old is nil), then row(k) for every k with ids[k] == b, in k order. counts
// holds the latter per bucket and is clobbered.
func (h *hashIndex) layout(old *hashIndex, counts []int32, ids []int32, row func(int) int) {
	h.off = make([]int32, len(counts)+1)
	for b, c := range counts {
		if old != nil && b < old.size() {
			c += old.off[b+1] - old.off[b]
		}
		h.off[b+1] = h.off[b] + c
	}
	h.rows = make([]int, h.off[len(counts)])
	next := append(counts[:0], h.off[:len(counts)]...)
	if old != nil {
		for b := 0; b < old.size(); b++ {
			next[b] += int32(copy(h.rows[next[b]:], old.bucket(int32(b))))
		}
	}
	for k, bi := range ids {
		if bi >= 0 {
			h.rows[next[bi]] = row(k)
			next[bi]++
		}
	}
}

// extend returns h grown to rows [0, n) of column cd, which must still key
// the way h does: existing buckets keep their numbers and gain the new rows
// after their old ones, and new keys get the next numbers in order of first
// row, so the result equals buildHashIndex(cd, nil, n). h is not changed:
// its key table is copied before the first new key goes in.
func (h *hashIndex) extend(cd *colData, n int) *hashIndex {
	nh := &hashIndex{num: h.num, n: n, tab: h.tab, idx: h.idx}
	counts := make([]int32, h.size())
	ids := make([]int32, n-h.n)
	shared := true
	for k := range ids {
		ri := h.n + k
		if shared && !cd.isNull(ri) && h.find(cd, ri) < 0 {
			nh.copyKeys(n)
			shared = false
		}
		ids[k] = nh.key(cd, ri, &counts)
	}
	nh.layout(h, counts, ids, func(k int) int { return h.n + k })
	return nh
}

// copyKeys gives h a private copy of its key table, sized as a build over n
// rows would size it.
func (h *hashIndex) copyKeys(n int) {
	if !h.num {
		h.idx = maps.Clone(h.idx)
		return
	}
	old := h.tab
	h.tab = newU64Table(n)
	for i, v := range old.vals {
		if v >= 0 {
			*h.tab.insert(old.keys[i]) = v
		}
	}
}

// rowsFor returns the rows whose cell equals v under `=`, ascending; v must
// not be NULL. Cross-type probes follow Compare: a string equals a number
// only if it is the number's canonical text, so a string probe of a numeric
// index parses and keeps only that text ('1.0' and '1e0' match nothing).
// The one inexact spot is where -0 meets a string, since `=` is not
// transitive there (-0 = 0 and 0 = '0', but -0 <> '0'); the equality chooser
// and the hash-join compile refuse those pairs (cost.go).
func (h *hashIndex) rowsFor(v Value) []int {
	var tmp [32]byte
	bi, ok := int32(-1), true
	switch {
	case h.num && !v.IsStr:
		bi = h.tab.find(joinKeyBits(v.Num))
	case h.num:
		// '-0' is -0's text but would probe +0's bucket, so it is left out.
		f, err := strconv.ParseFloat(v.Str, 64)
		if err == nil && v.Str != "-0" && string(strconv.AppendFloat(tmp[:0], f, 'g', -1, 64)) == v.Str {
			bi = h.tab.find(joinKeyBits(f))
		}
	case v.IsStr:
		bi, ok = h.idx[v.Str]
	default:
		bi, ok = h.idx[string(appendNumKey(tmp[:0], v.Num))]
	}
	if !ok || bi < 0 {
		return nil
	}
	return h.bucket(bi)
}

// sortedIndex is the Compare-ordered view of one column's non-null cells.
type sortedIndex struct {
	vals  []Value
	rows  []int
	nrows int // the snapshot's row count: every entry of rows is below it
}

func (si *sortedIndex) Len() int { return len(si.vals) }
func (si *sortedIndex) Swap(i, j int) {
	si.vals[i], si.vals[j] = si.vals[j], si.vals[i]
	si.rows[i], si.rows[j] = si.rows[j], si.rows[i]
}
func (si *sortedIndex) Less(i, j int) bool {
	if c := Compare(si.vals[i], si.vals[j]); c != 0 {
		return c < 0
	}
	return si.rows[i] < si.rows[j]
}

// sortedIndexFor returns the table's sorted index on column col, building it
// on first use.
func (db *DB) sortedIndexFor(t *Table, col int) *sortedIndex {
	ta := db.access(t)
	ta.mu.Lock()
	defer ta.mu.Unlock()
	if si, ok := ta.sorted[col]; ok {
		return si
	}
	t0 := time.Now()
	si := &sortedIndex{nrows: len(t.Rows)}
	for ri, row := range t.Rows {
		if col >= len(row) || row[col].Null {
			continue
		}
		si.vals = append(si.vals, row[col])
		si.rows = append(si.rows, ri)
	}
	sort.Sort(si)
	if ta.sorted == nil {
		ta.sorted = map[int]*sortedIndex{}
	}
	ta.sorted[col] = si
	db.idxBuilds.Add(1)
	db.observeBuild("sorted", time.Since(t0))
	return si
}

// rangeHits returns the rows whose value falls inside the bounds, in value
// order: a run of si.rows, shared with the index, so callers must treat it
// as read-only and put it in row order with orderHits. Binary search over
// Compare is only valid because the chooser restricts range probes to
// type-homogeneous columns with bounds of the column's own type.
func (si *sortedIndex) rangeHits(lo Value, hasLo, loExcl bool, hi Value, hasHi, hiExcl bool) []int {
	start := 0
	if hasLo {
		start = sort.Search(len(si.vals), func(k int) bool {
			c := Compare(si.vals[k], lo)
			if loExcl {
				return c > 0
			}
			return c >= 0
		})
	}
	end := len(si.vals)
	if hasHi {
		end = sort.Search(len(si.vals), func(k int) bool {
			c := Compare(si.vals[k], hi)
			if hiExcl {
				return c >= 0
			}
			return c > 0
		})
	}
	if end <= start {
		return nil
	}
	return si.rows[start:end]
}

// orderHits writes hits, distinct row indexes below nrows, into dst (of
// length len(hits)) in ascending row order — the scan-order contract every
// access path must keep — and returns dst. A wide range is ordered without a
// comparison sort: each row appears at most once in the index, so marking
// the hits in a pooled bitmap over the snapshot's rows and sweeping its
// words emits them ascending in O(rows/64 + hits). Narrow ranges over large
// tables, where that sweep would cost more than sorting the hits, keep the
// sort (bitmapOrder).
func orderHits(nrows int, hits []int, dst []int32) []int32 {
	if bitmapOrder(nrows, len(hits)) {
		bm := getBitmap((nrows + 63) / 64)
		bitmapSweep(*bm, hits, dst)
		putBitmap(bm)
		return dst
	}
	for k, r := range hits {
		dst[k] = int32(r)
	}
	slices.Sort(dst)
	return dst
}

// bitmapOrder reports whether orderHits should restore the row order of
// hits candidates over an nrows-row snapshot by bitmap sweep (one pass over
// nrows/64 words) rather than by sorting them (~hits·log2(hits) steps).
// BenchmarkEngineRangeOrder times both orderings on 20k–1M rows and 10–10k
// hits. On a 2-CPU Xeon container this rule picked the faster one at every
// point but the crossover, 100 hits over 20k rows, where the two are within
// about 10%. Away from it the wrong pick costs 2–500×: 10 hits over 1M rows
// sort in 0.1 µs but sweep in 46 µs; 10,000 hits over 100k rows sort in
// 0.9 ms but sweep in 64 µs.
func bitmapOrder(nrows, hits int) bool {
	return (nrows+63)/64 <= hits*bits.Len(uint(hits))
}

// bitmapSweep writes hits, distinct row indexes below 64·len(bm), into dst
// in ascending order: it marks them in bm, which must be zeroed, and emits
// the set bits word by word.
func bitmapSweep(bm []uint64, hits []int, dst []int32) {
	for _, r := range hits {
		bm[r>>6] |= 1 << (r & 63)
	}
	k := 0
	for w, word := range bm {
		for word != 0 {
			dst[k] = int32(w<<6 | bits.TrailingZeros64(word))
			k++
			word &= word - 1
		}
	}
}

// IndexCounters is a monotonic snapshot of the DB's access-path activity,
// surfaced through /metrics.
type IndexCounters struct {
	Builds      uint64 `json:"builds"`       // hash + sorted index builds
	Hits        uint64 `json:"hits"`         // plans served by an index (scans and join builds)
	StatsBuilds uint64 `json:"stats_builds"` // statistics computations
}

// IndexCounters reads the current counter values.
func (db *DB) IndexCounters() IndexCounters {
	return IndexCounters{
		Builds:      db.idxBuilds.Load(),
		Hits:        db.idxHits.Load(),
		StatsBuilds: db.statBuilds.Load(),
	}
}

// OnIndexBuild registers fn to observe every index/statistics build with its
// kind ("hash", "sorted", "stats", "columnar") and wall time, and every
// extension of an appended table's structures ("hash-extend",
// "stats-extend", "columnar-extend"), which the build counters do not count.
// Register before serving begins; fn runs synchronously on the building
// goroutine.
func (db *DB) OnIndexBuild(fn func(kind string, d time.Duration)) {
	db.mu.Lock()
	db.buildHook = fn
	db.mu.Unlock()
}

func (db *DB) observeBuild(kind string, d time.Duration) {
	db.mu.Lock()
	fn := db.buildHook
	db.mu.Unlock()
	if fn != nil {
		fn(kind, d)
	}
}
