package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	dt "pi2/internal/difftree"
	"pi2/internal/sqlparser"
)

// bigDB builds a database large enough for the cost model to choose index
// paths on its own: `big` has 200 rows with k cycling 0..19 (so `k = c`
// selects 10 rows, well under rows/indexAdvantage) and v ascending but
// stored in descending row order, which makes range-scan order restoration
// observable.
func bigDB() *DB {
	db := NewDB("2020-12-31")
	t := &Table{
		Name:  "big",
		Cols:  []string{"k", "v", "s"},
		Types: []ColType{TNum, TNum, TStr},
	}
	for i := 0; i < 200; i++ {
		t.Rows = append(t.Rows, []Value{
			NumVal(float64(i % 20)),
			NumVal(float64(200 - i)), // descending: row order != value order
			StrVal(fmt.Sprintf("s%02d", i%7)),
		})
	}
	db.Add(t)
	db.Add(&Table{
		Name:  "tiny",
		Cols:  []string{"k", "lbl"},
		Types: []ColType{TNum, TStr},
		Rows: [][]Value{
			{NumVal(3), StrVal("three")},
			{NumVal(7), StrVal("seven")},
		},
	})
	return db
}

func planFor(t *testing.T, db *DB, sql string, prep func(*DB, *dt.Node) (*Plan, error)) *Plan {
	t.Helper()
	ast, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	plan, err := prep(db, ast)
	if err != nil {
		t.Fatalf("prepare %q: %v", sql, err)
	}
	return plan
}

// scanPath executes the plan profiled and returns the first scan op's Path.
// A single-source query whose chooser kept the sweep drops the pipeline and
// runs through cross-filter — that is the full scan.
func scanPath(t *testing.T, plan *Plan) string {
	t.Helper()
	_, prof, err := plan.ExecProfiled()
	if err != nil {
		t.Fatalf("exec profiled: %v", err)
	}
	for _, op := range prof.Ops {
		if op.Op == "scan" {
			return op.Path
		}
	}
	for _, op := range prof.Ops {
		if op.Op == "cross-filter" {
			return "full-scan"
		}
	}
	t.Fatalf("no scan or cross-filter op in %+v", prof.Ops)
	return ""
}

func TestCostModelChoosesIndexPaths(t *testing.T) {
	db := bigDB()
	cases := []struct {
		sql  string
		want string
	}{
		{"SELECT v FROM big WHERE k = 7", "index-scan(k)"},
		{"SELECT v FROM big WHERE k BETWEEN 3 AND 4", "range-scan(k)"},
		{"SELECT k FROM big WHERE v < 20", "range-scan(v)"},
		// 1/7 of the string values match: selective enough for the hash index.
		{"SELECT v FROM big WHERE s = 's03'", "index-scan(s)"},
		// Low selectivity: the chooser must keep the sweep, which the
		// vectorized path then runs as a batched columnar filter.
		{"SELECT k FROM big WHERE v > 5", "vectorized-filter"},
		// A non-vectorizable predicate shape keeps the row-path sweep.
		{"SELECT k FROM big WHERE lower(s) <> 'zz'", "full-scan"},
	}
	for _, tc := range cases {
		got := scanPath(t, planFor(t, db, tc.sql, Prepare))
		if got != tc.want {
			t.Errorf("%s: access path = %q, want %q", tc.sql, got, tc.want)
		}
	}
}

func TestIndexResultsMatchSweep(t *testing.T) {
	db := bigDB()
	for _, sql := range []string{
		"SELECT v FROM big WHERE k = 7",
		"SELECT v, s FROM big WHERE k BETWEEN 3 AND 4",
		"SELECT k FROM big WHERE v < 20",
		"SELECT v FROM big WHERE s = 's03'",
		"SELECT v FROM big WHERE k = 7 AND v > 100",
		"SELECT big.v, tiny.lbl FROM tiny, big WHERE tiny.k = big.k",
		"SELECT big.v, tiny.lbl FROM tiny, big WHERE tiny.k = big.k AND big.v > 50",
	} {
		checkExecEquivalence(t, db, sql)
	}
}

func TestRangeScanRestoresRowOrder(t *testing.T) {
	// big.v descends with the row index, so the sorted index visits rows in
	// reverse; the emitted rows must still come back in table order.
	db := bigDB()
	res, err := planExec(t, db, "SELECT v FROM big WHERE v BETWEEN 1 AND 5", Prepare)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 4, 3, 2, 1} // rows 195..199 in table order
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(want))
	}
	for i, row := range res.Rows {
		if row[0].Num != want[i] {
			t.Fatalf("row %d = %v, want %v (scan order not restored)", i, row[0].Num, want[i])
		}
	}
}

func planExec(t *testing.T, db *DB, sql string, prep func(*DB, *dt.Node) (*Plan, error)) (*Table, error) {
	t.Helper()
	return planFor(t, db, sql, prep).Exec()
}

func TestIndexInvalidationOnAdd(t *testing.T) {
	db := bigDB()
	plan := planFor(t, db, "SELECT v FROM big WHERE k = 7", Prepare)
	if _, err := plan.Exec(); err != nil {
		t.Fatal(err)
	}
	before := db.IndexCounters()
	if before.Builds == 0 || before.Hits == 0 {
		t.Fatalf("expected index build+hit before mutation: %+v", before)
	}

	// Adding an unrelated table leaves the plan fresh and its index warm.
	db.Add(&Table{Name: "other", Cols: []string{"x"}, Types: []ColType{TNum}})
	if _, err := plan.Exec(); err != nil {
		t.Fatalf("plan staled by unrelated DB.Add: %v", err)
	}
	if c := db.IndexCounters(); c.Builds != before.Builds {
		t.Fatalf("unrelated Add rebuilt indexes: before %+v, after %+v", before, c)
	}

	// Mutating the table the plan reads stales it and drops that table's
	// access-cache entry.
	if err := db.Append("big", [][]Value{{NumVal(7), NumVal(500), StrVal("s99")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Exec(); err == nil {
		t.Fatal("stale plan executed after Append to its table")
	}

	// A fresh plan over the new snapshot rebuilds the index from scratch.
	plan2 := planFor(t, db, "SELECT v FROM big WHERE k = 7", Prepare)
	if _, err := plan2.Exec(); err != nil {
		t.Fatal(err)
	}
	after := db.IndexCounters()
	if after.Builds <= before.Builds {
		t.Fatalf("index not rebuilt after Append: before %+v, after %+v", before, after)
	}
	if after.StatsBuilds <= before.StatsBuilds {
		t.Fatalf("stats not recomputed after Append: before %+v, after %+v", before, after)
	}
}

func TestIndexKeySemantics(t *testing.T) {
	// Keys that exercise the sweep path's equality quirks: -0 vs 0, the
	// number 1 vs the string '1', NULLs, and a mixed num/str column. All
	// five execution paths must agree bit for bit.
	db := NewDB("2020-12-31")
	db.Add(&Table{
		Name:  "q",
		Cols:  []string{"n", "m", "s"},
		Types: []ColType{TNum, TNum, TStr},
		Rows: [][]Value{
			{NumVal(math.Copysign(0, -1)), NumVal(1), StrVal("a")},
			{NumVal(0), NumVal(2), StrVal("b")},
			{NullVal(), NumVal(3), StrVal("1")},
			{NumVal(1), NullVal(), NullVal()},
			{NumVal(2), NumVal(1), StrVal("a")},
		},
	})
	db.Add(&Table{
		Name:  "mixed",
		Cols:  []string{"x"},
		Types: []ColType{TStr},
		Rows: [][]Value{
			{NumVal(1)}, {StrVal("1")}, {NumVal(10)}, {StrVal("3")}, {NullVal()},
		},
	})
	for _, sql := range []string{
		"SELECT m FROM q WHERE n = 0",   // -0 must hash with +0
		"SELECT m FROM q WHERE n = '1'", // str literal on num column coerces
		"SELECT m FROM q WHERE s = '1'", // num-looking string key
		"SELECT m FROM q WHERE s = 1",   // num literal on str column coerces
		"SELECT m FROM q WHERE n >= 0",  // range over a column with NULLs
		"SELECT m FROM q WHERE n BETWEEN -1 AND 1",
		"SELECT x FROM mixed WHERE x = 1", // eq on a mixed-type column is legal
		"SELECT x FROM mixed WHERE x < 5", // range on mixed types must stay a sweep
		"SELECT x FROM mixed WHERE x BETWEEN 1 AND 10",
		"SELECT a.m, b.x FROM q AS a, mixed AS b WHERE a.n = b.x",
	} {
		checkExecEquivalence(t, db, sql)
	}
}

func TestNaNColumnDisablesIndex(t *testing.T) {
	// Compare(NaN, x) == 0 for every number x, so under the sweep a NaN row
	// matches any numeric equality; the hash index would key it as "NaN" and
	// miss. The chooser must refuse the index even when forced.
	db := NewDB("2020-12-31")
	db.Add(&Table{
		Name:  "nan",
		Cols:  []string{"n", "m"},
		Types: []ColType{TNum, TNum},
		Rows: [][]Value{
			{NumVal(1), NumVal(10)},
			{NumVal(math.NaN()), NumVal(20)},
			{NumVal(5), NumVal(30)},
		},
	})
	for _, sql := range []string{
		"SELECT m FROM nan WHERE n = 5",
		"SELECT m FROM nan WHERE n = 1",
		"SELECT m FROM nan WHERE n >= 2",
		"SELECT m FROM nan WHERE n BETWEEN 0 AND 3",
	} {
		checkExecEquivalence(t, db, sql)
	}
	got := scanPath(t, planFor(t, db, "SELECT m FROM nan WHERE n = 5", prepareForceIndex))
	if got != "full-scan" {
		t.Fatalf("forced plan on NaN column used %q, want full-scan", got)
	}
}

func TestJoinBuildReusesColumnIndex(t *testing.T) {
	db := bigDB()
	// The vectorized join reuses the DB-cached whole-column columnar hash.
	plan := planFor(t, db, "SELECT big.v, tiny.lbl FROM tiny, big WHERE tiny.k = big.k", Prepare)
	_, prof, err := plan.ExecProfiled()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, op := range prof.Ops {
		if op.Op == "hash-build" && op.Path == "columnar(k)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("vectorized join build did not reuse the columnar hash: %+v", prof.Ops)
	}

	// A non-vectorizable conjunct keeps the row pipeline, whose build side
	// reuses the per-column hash index.
	plan = planFor(t, db, "SELECT big.v, tiny.lbl FROM tiny, big WHERE tiny.k = big.k AND lower(tiny.lbl) >= ''", Prepare)
	_, prof, err = plan.ExecProfiled()
	if err != nil {
		t.Fatal(err)
	}
	found = false
	for _, op := range prof.Ops {
		if op.Op == "hash-build" && op.Path == "index(k)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("row-path join build did not reuse the column index: %+v", prof.Ops)
	}
}

func TestReversedBuildSide(t *testing.T) {
	// tiny (2 rows) probes big (200 rows); big carries a scan predicate so
	// its build cannot reuse the column index, and the estimate gap makes
	// the chooser build over tiny instead. The lower() conjunct (always
	// true) keeps the query off the vectorized path so the row pipeline's
	// reversed join stays exercised.
	db := bigDB()
	sql := "SELECT big.v, tiny.lbl FROM tiny, big WHERE tiny.k = big.k AND big.v > 50 AND lower(tiny.lbl) >= ''"
	plan := planFor(t, db, sql, Prepare)
	_, prof, err := plan.ExecProfiled()
	if err != nil {
		t.Fatal(err)
	}
	var join OpStat
	for _, op := range prof.Ops {
		if op.Op == "join" {
			join = op
		}
	}
	if !strings.Contains(join.Detail, "reversed") || join.Path != "build=tiny" {
		t.Fatalf("expected reversed join building over tiny, got %+v", prof.Ops)
	}
	checkExecEquivalence(t, db, sql)
}

func TestExplainPlanText(t *testing.T) {
	db := bigDB()
	plan := planFor(t, db, "SELECT v FROM big WHERE k = 7 ORDER BY v LIMIT 3", Prepare)
	s := plan.Explain()
	for _, want := range []string{"index-scan(k)", "top-k", "limit: 3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("EXPLAIN missing %q:\n%s", want, s)
		}
	}
	join := planFor(t, db, "SELECT big.v, tiny.lbl FROM tiny, big WHERE tiny.k = big.k", Prepare)
	s = join.Explain()
	if !strings.Contains(s, "vectorized hash build=big (reuses columnar(k))") {
		t.Fatalf("EXPLAIN missing columnar-reuse note:\n%s", s)
	}
	rowJoin := planFor(t, db, "SELECT big.v, tiny.lbl FROM tiny, big WHERE tiny.k = big.k AND lower(tiny.lbl) >= ''", Prepare)
	s = rowJoin.Explain()
	if !strings.Contains(s, "hash build=big (reuses index(k))") {
		t.Fatalf("EXPLAIN missing index-reuse note:\n%s", s)
	}
	// Explain must not execute: it works on plans whose DB has since moved.
	db.Add(&Table{Name: "other", Cols: []string{"x"}, Types: []ColType{TNum}})
	if plan.Explain() == "" {
		t.Fatal("Explain on a stale plan should still render")
	}
}
