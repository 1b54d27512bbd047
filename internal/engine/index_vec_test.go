package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// Index-seeded vectorized scans: the chooser's index candidates become the
// columnar selection, re-checked by every pushed predicate.

// indexFed reports whether source i of plan's root query runs as an
// index-seeded vectorized scan.
func indexFed(plan *Plan, i int) bool {
	return plan.root.vec != nil && plan.root.vecIndexed(i)
}

func TestIndexFedVecExplainAndProfile(t *testing.T) {
	db := benchScanDB() // 20k rows, v uniform in [0,100)
	const sql = "SELECT v FROM scan WHERE v BETWEEN 40 AND 60 AND k > 100"
	plan := planFor(t, db, sql, Prepare)
	if !indexFed(plan, 0) {
		t.Fatalf("expected an index-fed vectorized scan:\n%s", plan.Explain())
	}
	const line = "scan scan [range-scan(v) → vectorized-filter, 2 pushed pred(s), batch 1024]"
	if s := plan.Explain(); !strings.Contains(s, line) {
		t.Fatalf("EXPLAIN missing %q:\n%s", line, s)
	}

	cands, matches := 0, 0
	for _, row := range db.Tables["scan"].Rows {
		if v := row[1].Num; v >= 40 && v <= 60 {
			cands++
			if row[0].Num > 100 {
				matches++
			}
		}
	}
	_, prof, err := plan.ExecProfiled()
	if err != nil {
		t.Fatal(err)
	}
	sc, ok := opsByName(prof)["scan"]
	if !ok {
		t.Fatalf("no scan op in %+v", prof.Ops)
	}
	wantBatches := (cands + batchSize - 1) / batchSize
	if wantBatches < 2 {
		t.Fatalf("fixture too small: %d candidates fit one batch", cands)
	}
	if sc.Path != "range-scan(v)" || sc.Batches != wantBatches || sc.RowsIn != 20000 || sc.RowsOut != matches {
		t.Fatalf("scan = %+v, want range-scan(v) with %d batches, 20000 -> %d rows", sc, wantBatches, matches)
	}
	checkExecEquivalence(t, db, sql)
}

// rangeFixture builds a 3000-row table whose value column `x` holds each of
// 1000 values three times in scattered row order, with every 13th cell NULL,
// plus a string column `s` (50 distinct values, every 17th cell NULL).
func rangeFixture() *DB {
	db := NewDB("2020-12-31")
	t := &Table{Name: "r", Cols: []string{"x", "s"}, Types: []ColType{TNum, TStr}}
	for i := 0; i < 3000; i++ {
		x := NumVal(float64(i * 7919 % 1000))
		if i%13 == 0 {
			x = NullVal()
		}
		s := StrVal(fmt.Sprintf("s%02d", i*31%50))
		if i%17 == 0 {
			s = NullVal()
		}
		t.Rows = append(t.Rows, []Value{x, s})
	}
	db.Add(t)
	return db
}

type rangeCase struct {
	name           string
	lo, hi         Value
	hasLo, hasHi   bool
	loExcl, hiExcl bool
}

// sweepRange is the reference for a range probe (rangeHits, then
// orderHits): every non-NULL row inside the
// bounds, visited in row order. For the homogeneous columns the chooser
// routes to a sorted index this equals copying the index's hits and sorting
// them by row.
func sweepRange(tb *Table, col int, c rangeCase) []int {
	var out []int
	for ri, row := range tb.Rows {
		v := row[col]
		if v.Null {
			continue
		}
		if c.hasLo {
			if k := Compare(v, c.lo); k < 0 || (c.loExcl && k == 0) {
				continue
			}
		}
		if c.hasHi {
			if k := Compare(v, c.hi); k > 0 || (c.hiExcl && k == 0) {
				continue
			}
		}
		out = append(out, ri)
	}
	return out
}

func TestRangeRowsMatchesSweep(t *testing.T) {
	num := func(f float64) Value { return NumVal(f) }
	numCases := []rangeCase{
		{name: "inclusive", lo: num(100), hi: num(400), hasLo: true, hasHi: true},
		{name: "exclusive", lo: num(100), hi: num(400), hasLo: true, hasHi: true, loExcl: true, hiExcl: true},
		{name: "lo-only", lo: num(750), hasLo: true},
		{name: "lo-only-excl", lo: num(750), hasLo: true, loExcl: true},
		{name: "hi-only", hi: num(5), hasHi: true},
		{name: "hi-only-excl", hi: num(5), hasHi: true, hiExcl: true},
		{name: "unbounded"},
		{name: "point-duplicates", lo: num(500), hi: num(500), hasLo: true, hasHi: true},
		{name: "narrow", lo: num(500), hi: num(502), hasLo: true, hasHi: true},
		{name: "empty-inverted", lo: num(400), hi: num(100), hasLo: true, hasHi: true},
		{name: "empty-excl-point", lo: num(500), hi: num(500), hasLo: true, hasHi: true, loExcl: true},
		{name: "empty-above-max", lo: num(5000), hasLo: true},
	}
	strCases := []rangeCase{
		{name: "str-inclusive", lo: StrVal("s10"), hi: StrVal("s30"), hasLo: true, hasHi: true},
		{name: "str-exclusive", lo: StrVal("s10"), hi: StrVal("s30"), hasLo: true, hasHi: true, loExcl: true, hiExcl: true},
		{name: "str-point", lo: StrVal("s07"), hi: StrVal("s07"), hasLo: true, hasHi: true},
	}

	db := rangeFixture()
	sorted, bitmap := 0, 0
	check := func(label string, col int, cases []rangeCase) {
		t.Helper()
		tb := db.Tables["r"]
		si := db.sortedIndexFor(tb, col)
		for _, c := range cases {
			hits := si.rangeHits(c.lo, c.hasLo, c.loExcl, c.hi, c.hasHi, c.hiExcl)
			var got []int
			for _, r := range orderHits(si.nrows, hits, make([]int32, len(hits))) {
				got = append(got, int(r))
			}
			want := sweepRange(tb, col, c)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s/%s: ordered range hits = %d rows %v, sweep = %d rows %v", label, c.name, len(got), head(got), len(want), head(want))
			}
			switch {
			case len(want) == 0:
			case bitmapOrder(len(tb.Rows), len(want)):
				bitmap++
			default:
				sorted++
			}
		}
	}
	check("loaded", 0, numCases)
	check("loaded", 1, strCases)

	// An appended snapshot: new rows (duplicates of existing values, a NULL,
	// and new extremes) land at the end of row order, and the rebuilt index
	// must see the grown row count.
	var extra [][]Value
	for i := 0; i < 200; i++ {
		x := NumVal(float64(i * 37 % 1000))
		switch i {
		case 50:
			x = NullVal()
		case 51:
			x = NumVal(-1)
		case 52:
			x = NumVal(5000)
		}
		extra = append(extra, []Value{x, StrVal(fmt.Sprintf("s%02d", i%50))})
	}
	if err := db.Append("r", extra); err != nil {
		t.Fatal(err)
	}
	if n := len(db.Tables["r"].Rows); n != 3200 {
		t.Fatalf("appended snapshot has %d rows, want 3200", n)
	}
	check("appended", 0, numCases)
	check("appended", 1, strCases)

	if sorted == 0 || bitmap == 0 {
		t.Fatalf("cases must reach both orderings: sorted %d, bitmap %d", sorted, bitmap)
	}
}

func head(rows []int) []int {
	if len(rows) > 8 {
		return rows[:8]
	}
	return rows
}

// TestIndexFedVecLeavesBucketIntact runs index-fed plans over one equality
// bucket of the shared hash index. filterSel compacts its selection in
// place, so a plan that filtered the bucket itself would corrupt every later
// probe of the same key; each result must still match the interpreter, and
// the bucket must read back unchanged.
func TestIndexFedVecLeavesBucketIntact(t *testing.T) {
	db := bigDB()
	tb := db.Tables["big"]
	bucket := append([]int(nil), db.hashIndexFor(tb, 0).rowsFor(NumVal(7))...)
	if len(bucket) != 10 {
		t.Fatalf("bucket k=7 has %d rows, want 10", len(bucket))
	}
	for _, sql := range []string{
		"SELECT v FROM big WHERE k = 7 AND v > 100",
		"SELECT v FROM big WHERE k = 7 AND v > 100",
		"SELECT v, s FROM big WHERE k = 7 AND v <= 100",
		"SELECT v FROM big WHERE k = 7",
	} {
		plan := planFor(t, db, sql, Prepare)
		if !indexFed(plan, 0) {
			t.Fatalf("%s: expected an index-fed vectorized scan:\n%s", sql, plan.Explain())
		}
		checkExecEquivalence(t, db, sql)
		if got := db.hashIndexFor(tb, 0).rowsFor(NumVal(7)); !reflect.DeepEqual(got, bucket) {
			t.Fatalf("%s: shared bucket changed: %v, want %v", sql, got, bucket)
		}
	}
}
