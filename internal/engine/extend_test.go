package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// extendCells is the pool appended cells are drawn from: small integer keys
// (present in the base table or new to it), a fraction, ±Inf, NaN, -0,
// strings (numeric-looking or not, and the text of NaN), NULL, and cells
// outside the canonical Value encoding.
var extendCells = []Value{
	NumVal(0), NumVal(1), NumVal(2), NumVal(3), NumVal(7), NumVal(64), NumVal(-5), NumVal(2.5),
	NumVal(math.Inf(1)), NumVal(math.NaN()), NumVal(math.Copysign(0, -1)),
	StrVal("1"), StrVal("a"), StrVal("b"), StrVal("NaN"), StrVal("-0"), NullVal(),
	{Null: true, Str: "x"}, {IsStr: true, Str: "a", Num: 1}, {Num: 3, Str: "z"},
}

// TestAccessExtensionMatchesFreshBuild appends random batches to a table
// and checks after each one that the column image, the statistics and every
// built hash index an Append extended equal a from-scratch build of the same
// snapshot, field by field and bucket by bucket, and that the distinct
// counts read off the hash indexes equal a distinct-set count under `=`.
// Batches bring kind changes (a column's first string, NaN or -0), keys new
// to a column and keys already present, and non-canonical cells; some base
// tables are ragged. Between batches a random subset of the structures is
// read, so extensions start both from a warm parent and from a chain of
// snapshots nobody read. The image of each replaced snapshot must not change
// under its readers.
func TestAccessExtensionMatchesFreshBuild(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		const ncols = 4
		tb := &Table{Name: "x", Cols: []string{"c0", "c1", "c2", "c3"}, Types: []ColType{TNum, TNum, TStr, TNum}}
		for i, n := 0, r.Intn(150); i < n; i++ {
			row := []Value{NumVal(float64(r.Intn(4))), NumVal(float64(i)), StrVal(fmt.Sprint("s", r.Intn(5))), NullVal()}
			if r.Intn(3) == 0 {
				row[3] = NumVal(float64(r.Intn(9)))
			}
			if seed%5 == 4 && r.Intn(10) == 0 {
				row = row[:r.Intn(ncols)] // ragged: Add accepts it, Append does not
			}
			tb.Rows = append(tb.Rows, row)
		}
		db := NewDB("2020-12-31")
		db.Add(tb)

		var prev *tableCols
		var prevCopy tableCols
		for batch := 0; batch < 8; batch++ {
			cur, _ := db.Table("x")
			if r.Intn(3) > 0 {
				prev = db.columnsFor(cur)
				prevCopy = cloneCols(prev)
				db.tableStats(cur)
				for c := 0; c < ncols; c++ {
					if r.Intn(2) == 0 {
						db.hashIndexFor(cur, c)
					}
				}
			}
			rows := make([][]Value, 1+r.Intn(70))
			for j := range rows {
				rows[j] = make([]Value, ncols)
				for c := range rows[j] {
					rows[j][c] = extendCells[r.Intn(len(extendCells))]
				}
			}
			if err := db.Append("x", rows); err != nil {
				t.Fatal(err)
			}
			if r.Intn(3) == 0 {
				continue // leave this snapshot unread: the next one extends past it
			}
			checkExtension(t, db, fmt.Sprintf("seed %d batch %d", seed, batch))
			if prev != nil && !sameCols(prev, &prevCopy) {
				t.Fatalf("seed %d batch %d: extending changed the replaced snapshot's image", seed, batch)
			}
		}
		checkExtension(t, db, fmt.Sprintf("seed %d end", seed))
	}
}

// TestAccessExtensionConcurrent has readers take the stats, column image
// and hash indexes of whatever snapshot they find — the current one or one
// an Append has already replaced — while a writer appends, so handovers,
// chains nobody read and extensions interleave with reads of the slots they
// move structures out of. Under -race that pins the locking; at the end the
// structures of the last snapshot must still equal fresh builds.
func TestAccessExtensionConcurrent(t *testing.T) {
	db := NewDB("2020-12-31")
	tb := &Table{Name: "x", Cols: []string{"c0", "c1", "c2", "c3"}, Types: []ColType{TNum, TNum, TStr, TNum}}
	for i := 0; i < 200; i++ {
		tb.Rows = append(tb.Rows, []Value{NumVal(float64(i % 7)), NumVal(float64(i)), StrVal(fmt.Sprint("s", i%5)), NumVal(1)})
	}
	db.Add(tb)
	batches := 200
	if testing.Short() {
		batches = 60
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var old *Table
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s, _ := db.Table("x")
				if i%5 == 0 && old != nil {
					s = old // a snapshot an Append may have replaced
				}
				old = s
				db.tableStats(s)
				db.hashIndexFor(s, (g+i)%len(s.Cols))
				db.columnsFor(s)
			}
		}(g)
	}
	r := rand.New(rand.NewSource(1))
	for b := 0; b < batches; b++ {
		rows := make([][]Value, 1+r.Intn(5))
		for j := range rows {
			rows[j] = []Value{NumVal(float64(r.Intn(9))), NumVal(float64(200 + b)), StrVal(fmt.Sprint("s", r.Intn(8))), NumVal(1)}
			if r.Intn(20) == 0 {
				rows[j][r.Intn(4)] = extendCells[r.Intn(len(extendCells))]
			}
		}
		if err := db.Append("x", rows); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	checkExtension(t, db, "after the churn")
}

// checkExtension compares the cached structures of table x's current
// snapshot against fresh builds. The hash indexes an Append handed over are
// extended here; the columns that had none get a fresh build, compared too.
func checkExtension(t *testing.T, db *DB, at string) {
	t.Helper()
	s, _ := db.Table("x")
	fresh := buildTableCols(s)
	if got := db.columnsFor(s); !sameCols(got, fresh) {
		t.Fatalf("%s: extended column image differs from a fresh build", at)
	}
	if got, want := db.tableStats(s), extendStats(nil, s, fresh); !sameStats(got, want) {
		t.Fatalf("%s: extended stats %+v, fresh %+v", at, got, want)
	}
	ref, ndv := referenceStats(s)
	if got := db.tableStats(s); !sameStats(got, ref) {
		t.Fatalf("%s: stats %+v, reference %+v", at, got, ref)
	}
	for c := range s.Cols {
		h := db.hashIndexFor(s, c)
		want := buildHashIndex(&fresh.cols[c], nil, fresh.rows)
		if msg := diffHash(h, want, &fresh.cols[c]); msg != "" {
			t.Fatalf("%s: column %d hash index: %s", at, c, msg)
		}
		if h.size() != ndv[c] {
			t.Fatalf("%s: column %d NDV %d, distinct-set count %d", at, c, h.size(), ndv[c])
		}
	}
}

// referenceStats is the statistics pass the chooser read before stats came
// off the column image: one scan per column, counting distinct non-null
// values by their appendJoinKey encoding.
func referenceStats(t *Table) (*TableStats, []int) {
	st := &TableStats{Rows: len(t.Rows), Cols: make([]ColStats, len(t.Cols))}
	ndv := make([]int, len(t.Cols))
	var kb []byte
	for ci := range t.Cols {
		cs := &st.Cols[ci]
		distinct := make(map[string]struct{})
		have := false
		for _, row := range t.Rows {
			if ci >= len(row) || row[ci].Null {
				cs.Nulls++
				continue
			}
			v := row[ci]
			if v.IsStr {
				cs.Strs++
			} else {
				cs.Nums++
				if v.Num != v.Num {
					cs.HasNaN = true
				}
				if isNegZero(v.Num) {
					cs.negZero = true
				}
			}
			kb = appendJoinKey(kb[:0], v)
			distinct[string(kb)] = struct{}{}
			if !have {
				cs.Min, cs.Max, have = v, v, true
				continue
			}
			if Compare(v, cs.Min) < 0 {
				cs.Min = v
			}
			if Compare(v, cs.Max) > 0 {
				cs.Max = v
			}
		}
		ndv[ci] = len(distinct)
	}
	return st, ndv
}

// sameStats compares statistics field by field, NaN equal to NaN.
func sameStats(a, b *TableStats) bool {
	if a.Rows != b.Rows || len(a.Cols) != len(b.Cols) {
		return false
	}
	for i := range a.Cols {
		x, y := a.Cols[i], b.Cols[i]
		if !sameRow([]Value{x.Min, x.Max}, []Value{y.Min, y.Max}) {
			return false
		}
		x.Min, x.Max, y.Min, y.Max = Value{}, Value{}, Value{}, Value{}
		if x != y {
			return false
		}
	}
	return true
}

// sameCols compares two column images field by field over their rows,
// floats by bit pattern; spare capacity is not compared.
func sameCols(a, b *tableCols) bool {
	if a.ok != b.ok || a.rows != b.rows || len(a.cols) != len(b.cols) {
		return false
	}
	for i := range a.cols {
		x, y := &a.cols[i], &b.cols[i]
		if (x.nums == nil) != (y.nums == nil) || (x.strs == nil) != (y.strs == nil) ||
			!reflect.DeepEqual(x.null, y.null) || !reflect.DeepEqual(x.isStr, y.isStr) ||
			!reflect.DeepEqual(x.strs, y.strs) ||
			x.numCells != y.numCells || x.strCells != y.strCells || x.hasNaN != y.hasNaN ||
			x.negZero != y.negZero || x.allInt != y.allInt || x.intMin != y.intMin || x.intMax != y.intMax {
			return false
		}
		if len(x.nums) != len(y.nums) {
			return false
		}
		for k := range x.nums {
			if math.Float64bits(x.nums[k]) != math.Float64bits(y.nums[k]) {
				return false
			}
		}
	}
	return true
}

// cloneCols deep-copies an image, so a later comparison shows whether the
// original changed.
func cloneCols(tc *tableCols) tableCols {
	out := *tc
	out.cols = append([]colData(nil), tc.cols...)
	for i := range out.cols {
		cd := &out.cols[i]
		cd.null = append([]uint64(nil), cd.null...)
		cd.isStr = append([]uint64(nil), cd.isStr...)
		if cd.nums != nil {
			cd.nums = append([]float64{}, cd.nums...)
		}
		if cd.strs != nil {
			cd.strs = append([]string{}, cd.strs...)
		}
	}
	return out
}

// diffHash describes how hash index h differs from want, both over column
// cd, or returns "": same keying, bucket numbering and bucket contents, and
// every non-NULL row's key finds the same bucket in both.
func diffHash(h, want *hashIndex, cd *colData) string {
	switch {
	case h.num != want.num:
		return fmt.Sprintf("num keying %v, fresh %v", h.num, want.num)
	case h.n != want.n:
		return fmt.Sprintf("covers %d rows, fresh %d", h.n, want.n)
	case h.size() != want.size():
		return fmt.Sprintf("%d buckets, fresh %d", h.size(), want.size())
	case !reflect.DeepEqual(h.off, want.off) || !reflect.DeepEqual(h.rows, want.rows):
		return fmt.Sprintf("bucket layout differs:\n off %v rows %v\n fresh off %v rows %v", h.off, h.rows, want.off, want.rows)
	}
	keys := func(x *hashIndex) int {
		if !x.num {
			return len(x.idx)
		}
		n := 0
		for _, v := range x.tab.vals {
			if v >= 0 {
				n++
			}
		}
		return n
	}
	if keys(h) != h.size() || keys(want) != want.size() {
		return fmt.Sprintf("%d keys for %d buckets, fresh %d for %d", keys(h), h.size(), keys(want), want.size())
	}
	for ri := 0; ri < h.n; ri++ {
		if cd.isNull(ri) {
			continue
		}
		if a, b := h.find(cd, ri), want.find(cd, ri); a != b || a < 0 {
			return fmt.Sprintf("row %d keys to bucket %d, fresh %d", ri, a, b)
		}
	}
	return ""
}
