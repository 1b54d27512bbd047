package engine

import (
	"math"
	"time"
)

// Columnar storage: the per-table column arrays behind the vectorized
// execution path (vec.go / vecexec.go). Like the hash and sorted indexes
// (index.go), column arrays are built lazily on first use and cached on the
// DB's snapshot-keyed access cache. A write publishes a new table snapshot:
// an Add drops that table's entry, and an Append hands it to the new
// snapshot, whose first use grows the image by the appended rows. A live
// Plan can never observe stale column data for the same reason it can never
// observe a stale table pointer, and a write to one table leaves every other
// table's columnar image warm.
//
// Layout: one colData per column, holding parallel num/str slices (each
// only when a cell of its kind exists) plus two bitmaps (NULL, is-string). A
// cell is reconstructed bit-identically to the row-store Value it came from;
// build verifies that every cell is in the canonical Value encoding
// (NullVal/NumVal/StrVal shapes) and that no row is shorter than the schema —
// tables violating either are marked ineligible and the planner keeps them on
// the row path, where the original semantics (including the interpreter's
// panic on ragged direct access) are preserved.

// batchSize is the fixed vectorized batch width: operators walk selections
// in chunks of this many rows, which keeps the working set cache-resident
// and gives the rows-per-batch histogram its natural bucket ceiling.
const batchSize = 1024

// colData is one table column in columnar form. nums is allocated only when
// the column holds a numeric cell and strs only when it holds a string cell,
// so a single-kind column carries one array; every reader first checks the
// cell's NULL and is-string bits (or allNum/allStr, which imply them).
type colData struct {
	nums  []float64 // numeric cells (zero elsewhere); nil without numeric cells
	strs  []string  // string cells (empty elsewhere); nil without string cells
	null  []uint64  // bitmap: cell is NULL
	isStr []uint64  // bitmap: cell is a non-null string

	numCells int  // non-null numeric cells
	strCells int  // non-null string cells
	hasNaN   bool // any numeric cell is NaN
	negZero  bool // any numeric cell is -0

	// Small-integer profile, filled during build: allInt means every non-null
	// numeric cell is a finite integral float64 that is not -0 (so raw-bits
	// group identity — ±0 distinct, NaN payloads distinct — coincides with
	// plain int identity), with intMin/intMax bounding the values. The
	// grouped path uses it to replace per-row hashing with a dense array.
	allInt bool
	intMin int64
	intMax int64
}

func bitGet(bm []uint64, i int) bool { return bm[i>>6]&(1<<uint(i&63)) != 0 }
func bitSet(bm []uint64, i int)      { bm[i>>6] |= 1 << uint(i&63) }

func (cd *colData) isNull(i int) bool   { return bitGet(cd.null, i) }
func (cd *colData) isString(i int) bool { return bitGet(cd.isStr, i) }

// allNum reports whether every non-null cell is numeric (NULLs allowed).
func (cd *colData) allNum() bool { return cd.strCells == 0 }

// allStr reports whether every non-null cell is a string (NULLs allowed).
func (cd *colData) allStr() bool { return cd.numCells == 0 }

// value reconstructs the cell at row i, bit-identical to the row-store cell
// (build rejects non-canonical cells, so this cannot lose information).
func (cd *colData) value(i int) Value {
	if cd.isNull(i) {
		return Value{Null: true}
	}
	if cd.isString(i) {
		return Value{IsStr: true, Str: cd.strs[i]}
	}
	return Value{Num: cd.nums[i]}
}

// tableCols is one table's columnar image.
type tableCols struct {
	ok   bool // false: ragged rows or non-canonical cells; vec ineligible
	rows int
	cols []colData
}

// buildTableCols converts a table to columnar form in one pass.
func buildTableCols(t *Table) *tableCols {
	tc := &tableCols{ok: true, cols: make([]colData, len(t.Cols))}
	for ci := range tc.cols {
		tc.cols[ci].allInt = true
	}
	return extendTableCols(tc, t)
}

// extendTableCols returns the image of t, whose rows extend the ones old
// images: it grows old by the suffix and continues every fold over it, so
// the result equals buildTableCols(t). old stays valid for its readers: the
// suffix lands past the end of the num/str arrays they read, and a bitmap
// whose last word is partly used is copied rather than written in place.
// Only the slot that owns old may extend it (see tableAccess.adopt), since
// the suffix can land in old's spare capacity.
func extendTableCols(old *tableCols, t *Table) *tableCols {
	n := len(t.Rows)
	tc := &tableCols{ok: old.ok, rows: n, cols: append([]colData(nil), old.cols...)}
	words := (n + 63) / 64
	for ci := range tc.cols {
		cd := &tc.cols[ci]
		cd.null = growBitmap(cd.null, old.rows, words)
		cd.isStr = growBitmap(cd.isStr, old.rows, words)
		if cd.nums != nil {
			cd.nums = append(cd.nums, make([]float64, n-old.rows)...)
		}
		if cd.strs != nil {
			cd.strs = append(cd.strs, make([]string, n-old.rows)...)
		}
	}
	for ri := old.rows; ri < n; ri++ {
		row := t.Rows[ri]
		if len(row) < len(t.Cols) {
			tc.ok = false // ragged: direct row access would panic; stay row-path
		}
		for ci := range tc.cols {
			if ci >= len(row) {
				bitSet(tc.cols[ci].null, ri)
				continue
			}
			cd := &tc.cols[ci]
			v := row[ci]
			switch {
			case v.Null:
				if v.IsStr || v.Num != 0 || v.Str != "" {
					tc.ok = false // non-canonical NULL: gather could not reproduce it
				}
				bitSet(cd.null, ri)
			case v.IsStr:
				if v.Num != 0 {
					tc.ok = false
				}
				bitSet(cd.isStr, ri)
				if cd.strs == nil {
					cd.strs = make([]string, n)
				}
				cd.strs[ri] = v.Str
				cd.strCells++
			default:
				if v.Str != "" {
					tc.ok = false
				}
				if cd.nums == nil {
					cd.nums = make([]float64, n)
				}
				cd.nums[ri] = v.Num
				cd.numCells++
				if v.Num != v.Num {
					cd.hasNaN = true
				}
				if isNegZero(v.Num) {
					cd.negZero = true
				}
				if cd.allInt {
					iv := int64(v.Num)
					// Excludes NaN/±Inf/fractions (float64(iv) != v.Num for
					// all of them) and -0 (bits differ from +0).
					if float64(iv) != v.Num || (iv == 0 && math.Signbit(v.Num)) {
						cd.allInt = false
					} else {
						if cd.numCells == 1 || iv < cd.intMin {
							cd.intMin = iv
						}
						if cd.numCells == 1 || iv > cd.intMax {
							cd.intMax = iv
						}
					}
				}
			}
		}
	}
	return tc
}

// growBitmap widens bm, a bitmap over rows bits, to words words. When bm's
// last word is full the new bits land in new words past bm's end; a partly
// used last word would have to change under bm's readers, so then the
// bitmap is copied to fresh storage.
func growBitmap(bm []uint64, rows, words int) []uint64 {
	if rows%64 == 0 {
		return append(bm, make([]uint64, words-len(bm))...)
	}
	out := make([]uint64, words)
	copy(out, bm)
	return out
}

// columnsFor returns the table's columnar image, building it on first use,
// or extending the image an Append handed over from the snapshot t extends.
// Cached on the snapshot-keyed access cache next to stats and indexes.
func (db *DB) columnsFor(t *Table) *tableCols {
	ta := db.access(t)
	ta.mu.Lock()
	defer ta.mu.Unlock()
	ta.adopt()
	switch {
	case ta.cols == nil:
		t0 := time.Now()
		ta.cols = buildTableCols(t)
		db.colBuilds.Add(uint64(len(t.Cols)))
		db.observeBuild("columnar", time.Since(t0))
	case ta.cols.rows < len(t.Rows):
		t0 := time.Now()
		ta.cols = extendTableCols(ta.cols, t)
		db.observeBuild("columnar-extend", time.Since(t0))
	}
	return ta.cols
}

// u64table is a linear-probing open-addressing map from uint64 keys to int32
// values, sized once at build. It exists because Go's map[uint64]int32 costs
// ~3-4x more per probe, and the join/group hot loops do one probe per row.
type u64table struct {
	keys []uint64
	vals []int32
	mask uint64
	n    int // claimed slots; maintained only by insertGrow
}

func newU64Table(n int) u64table {
	size := uint64(8)
	for size < uint64(n)*2 {
		size <<= 1
	}
	t := u64table{keys: make([]uint64, size), vals: make([]int32, size), mask: size - 1}
	for i := range t.vals {
		t.vals[i] = -1
	}
	return t
}

// u64hash is the murmur3 finalizer: full avalanche, so float64 bit patterns
// (whose entropy sits in the high bits) spread across the table.
func u64hash(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// find returns the value stored for k, or -1.
func (t *u64table) find(k uint64) int32 {
	i := u64hash(k) & t.mask
	for {
		if t.vals[i] < 0 {
			return -1
		}
		if t.keys[i] == k {
			return t.vals[i]
		}
		i = (i + 1) & t.mask
	}
}

// insert returns the slot for k, claiming an empty one if absent. A slot is
// empty iff its value is -1, so callers MUST store a non-negative value into
// the returned slot before the next find/insert call; a -1 result value
// means the key is new.
func (t *u64table) insert(k uint64) *int32 {
	i := u64hash(k) & t.mask
	for {
		if t.vals[i] < 0 {
			t.keys[i] = k
			return &t.vals[i]
		}
		if t.keys[i] == k {
			return &t.vals[i]
		}
		i = (i + 1) & t.mask
	}
}

// insertGrow is insert for callers that cannot size the table up front (the
// grouped path: group count is unknown until the data is seen). The table
// starts small and doubles whenever occupancy would cross half load. The
// returned slot is invalidated by the next insertGrow call, so callers must
// store through it immediately; n counts claimed slots and relies on that.
func (t *u64table) insertGrow(k uint64) *int32 {
	if uint64(t.n)*2 >= uint64(len(t.keys)) {
		t.grow()
	}
	slot := t.insert(k)
	if *slot < 0 {
		t.n++
	}
	return slot
}

func (t *u64table) grow() {
	old := *t
	size := uint64(len(old.keys)) * 2
	t.keys = make([]uint64, size)
	t.vals = make([]int32, size)
	t.mask = size - 1
	for i := range t.vals {
		t.vals[i] = -1
	}
	for i, v := range old.vals {
		if v >= 0 {
			*t.insert(old.keys[i]) = v
		}
	}
}
