package engine

import (
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Per-column access structures, built lazily on first use and cached on the
// DB keyed by table snapshot pointer. Snapshots are immutable (Add/Append
// publish a new *Table), so an entry can never go stale; when a write
// replaces a table's snapshot, only that table's entry is pruned — every
// other table's stats, indexes, and columnar image stay warm. A live Plan
// can never observe a wrong index for the same reason it can never observe
// a wrong table pointer — Exec refuses to run once a referenced table's
// generation moves (Plan.Stale).
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

// tableAccess holds one table's lazily-built statistics and indexes. Its
// mutex serializes builds; lookups after the first build are read-only on
// immutable structures.
type tableAccess struct {
	mu     sync.Mutex
	stats  *TableStats
	hash   map[int]*hashIndex
	sorted map[int]*sortedIndex
	cols   *tableCols // columnar image (colstore.go); hash indexes build from it
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

// tableStats returns the table's statistics, computing them on first use.
func (db *DB) tableStats(t *Table) *TableStats {
	ta := db.access(t)
	ta.mu.Lock()
	defer ta.mu.Unlock()
	if ta.stats == nil {
		t0 := time.Now()
		ta.stats = computeStats(t)
		db.statBuilds.Add(1)
		db.observeBuild("stats", time.Since(t0))
	}
	return ta.stats
}

// hashIndex is one column's hash index (see the file comment). num selects
// the keying: joinKeyBits in tab, else `=` text in idx. Either maps a key to
// its bucket number b, whose rows are rows[off[b]:off[b+1]], so the buckets
// cost two allocations however many keys the column has.
type hashIndex struct {
	num  bool
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
// first use. Its buckets are exactly buildHashSide's over the table's full
// row list with the bare column as the only key, which is what lets a join
// build side borrow it bit-for-bit.
func (db *DB) hashIndexFor(t *Table, col int) *hashIndex {
	tc := db.columnsFor(t)
	ta := db.access(t)
	ta.mu.Lock()
	defer ta.mu.Unlock()
	if h, ok := ta.hash[col]; ok {
		return h
	}
	t0 := time.Now()
	h := buildHashIndex(&tc.cols[col], nil, tc.rows)
	if ta.hash == nil {
		ta.hash = map[int]*hashIndex{}
	}
	ta.hash[col] = h
	db.idxBuilds.Add(1)
	db.observeBuild("hash", time.Since(t0))
	return h
}

// buildHashIndex indexes column cd over the rows in sel, or over all n rows
// when sel is nil (the vectorized join's filtered build side passes its
// selection). The canonical text of a finite float is injective, so keying
// an all-numeric NaN-free column by joinKeyBits yields exactly the buckets
// of the text keying.
func buildHashIndex(cd *colData, sel []int32, n int) *hashIndex {
	if sel != nil {
		n = len(sel)
	}
	h := &hashIndex{num: cd.allNum() && !cd.hasNaN}
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
	var tmp [32]byte
	for k := range ids {
		ri := row(k)
		if cd.isNull(ri) {
			ids[k] = -1 // NULL never matches under `=`
			continue
		}
		var bi int32
		var ok bool
		switch {
		case h.num:
			slot := h.tab.insert(joinKeyBits(cd.nums[ri]))
			if bi, ok = *slot, *slot >= 0; !ok {
				bi = int32(len(counts))
				*slot = bi
			}
		case cd.isString(ri):
			if bi, ok = h.idx[cd.strs[ri]]; !ok {
				bi = int32(len(counts))
				h.idx[cd.strs[ri]] = bi
			}
		default:
			kb := appendNumKey(tmp[:0], cd.nums[ri])
			if bi, ok = h.idx[string(kb)]; !ok {
				bi = int32(len(counts))
				h.idx[string(kb)] = bi
			}
		}
		if !ok {
			counts = append(counts, 0)
		}
		ids[k] = bi
		counts[bi]++
	}
	h.off = make([]int32, len(counts)+1)
	for b, c := range counts {
		h.off[b+1] = h.off[b] + c
	}
	h.rows = make([]int, h.off[len(counts)])
	next := append(counts[:0], h.off[:len(counts)]...)
	for k, bi := range ids {
		if bi >= 0 {
			h.rows[next[bi]] = row(k)
			next[bi]++
		}
	}
	return h
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

// rangeRows returns the row indexes whose value falls inside the bounds, in
// ascending row order — the scan-order contract every access path must
// keep. Binary search over Compare is only valid because the chooser
// restricts range probes to type-homogeneous columns with bounds of the
// column's own type.
//
// Row order is restored without a comparison sort when the range is wide:
// each row appears at most once in the index, so marking the hits in a
// bitmap over the snapshot's rows and sweeping its words emits them
// ascending in O(rows/64 + hits). Narrow ranges over large tables, where
// that sweep would cost more than sorting the hits, keep the sort.
func (si *sortedIndex) rangeRows(lo Value, hasLo, loExcl bool, hi Value, hasHi, hiExcl bool) []int {
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
	hits := si.rows[start:end]
	if bitmapOrder(si.nrows, len(hits)) {
		return bitmapSweep(si.nrows, hits)
	}
	out := append([]int(nil), hits...)
	sort.Ints(out)
	return out
}

// bitmapOrder reports whether rangeRows should restore the row order of
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

// bitmapSweep returns hits, distinct row indexes below nrows, in ascending
// order: it marks them in a bitmap and emits the set bits word by word.
func bitmapSweep(nrows int, hits []int) []int {
	bm := make([]uint64, (nrows+63)/64)
	for _, r := range hits {
		bm[r>>6] |= 1 << (r & 63)
	}
	out := make([]int, 0, len(hits))
	for w, word := range bm {
		for word != 0 {
			out = append(out, w<<6|bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return out
}

// IndexCounters is a monotonic snapshot of the DB's access-path activity,
// surfaced through /metrics and the /stats obs object.
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
// kind ("hash", "sorted", "stats") and wall time. Register before serving
// begins; fn runs synchronously on the building goroutine.
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
