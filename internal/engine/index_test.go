package engine

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

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

	// A fresh plan over the new snapshot extends the index and the stats by
	// the appended row instead of rebuilding them, and sees the row.
	kinds := map[string]int{}
	db.OnIndexBuild(func(kind string, _ time.Duration) { kinds[kind]++ })
	plan2 := planFor(t, db, "SELECT v FROM big WHERE k = 7", Prepare)
	res, err := plan2.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Rows); n != 11 || res.Rows[n-1][0].Num != 500 {
		t.Fatalf("rows after Append = %v, want the ten old ones then v=500", res.Rows)
	}
	after := db.IndexCounters()
	if after.Builds != before.Builds || after.StatsBuilds != before.StatsBuilds {
		t.Fatalf("Append rebuilt index or stats: before %+v, after %+v", before, after)
	}
	want := map[string]int{"columnar-extend": 1, "stats-extend": 1, "hash-extend": 1}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("extensions after Append = %v, want %v", kinds, want)
	}

	// Add replaces the snapshot wholesale: everything rebuilds.
	db.Add(&Table{Name: "big", Cols: []string{"k", "v", "s"}, Types: []ColType{TNum, TNum, TStr},
		Rows: [][]Value{{NumVal(7), NumVal(1), StrVal("a")}}})
	if _, err := planFor(t, db, "SELECT v FROM big WHERE k = 7", prepareForceIndex).Exec(); err != nil {
		t.Fatal(err)
	}
	if c := db.IndexCounters(); c.Builds != after.Builds+1 || c.StatsBuilds != after.StatsBuilds+1 {
		t.Fatalf("Add did not rebuild index and stats: before %+v, after %+v", after, c)
	}
}

func TestIndexKeySemantics(t *testing.T) {
	// Keys that exercise the sweep path's equality quirks: -0 vs 0, the
	// number 1 vs the string '1', NULLs, and a mixed num/str column. All
	// execution paths must agree bit for bit. q is large enough for
	// the cost model to choose its equality index unforced.
	db := NewDB("2020-12-31")
	q := &Table{
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
	}
	for i := 3; len(q.Rows) < 201; i++ {
		q.Rows = append(q.Rows, []Value{NumVal(float64(i)), NumVal(float64(i)), StrVal(fmt.Sprint("x", i))})
	}
	db.Add(q)
	db.Add(&Table{
		Name:  "mixed",
		Cols:  []string{"x"},
		Types: []ColType{TStr},
		Rows: [][]Value{
			{NumVal(1)}, {StrVal("1")}, {NumVal(10)}, {StrVal("3")}, {NullVal()},
		},
	})
	db.Add(&Table{
		Name:  "s",
		Cols:  []string{"k"},
		Types: []ColType{TStr},
		Rows:  [][]Value{{StrVal("-0")}, {StrVal("0")}, {StrVal("1.0")}},
	})
	db.Add(&Table{
		Name:  "p",
		Cols:  []string{"n"},
		Types: []ColType{TNum},
		Rows:  [][]Value{{NumVal(0)}, {NumVal(1)}},
	})
	for _, sql := range []string{
		"SELECT m FROM q WHERE n = 0",   // -0 must hash with +0
		"SELECT m FROM q WHERE n = '1'", // str literal on num column coerces
		"SELECT m FROM q WHERE s = '1'", // num-looking string key
		"SELECT m FROM q WHERE s = 1",   // num literal on str column coerces
		"SELECT m FROM q WHERE s = 1.0", // ... through its canonical text
		"SELECT m FROM q WHERE n >= 0",  // range over a column with NULLs
		"SELECT m FROM q WHERE n BETWEEN -1 AND 1",
		"SELECT x FROM mixed WHERE x = 1", // eq on a mixed-type column is legal
		"SELECT x FROM mixed WHERE x < 5", // range on mixed types must stay a sweep
		"SELECT x FROM mixed WHERE x BETWEEN 1 AND 10",
		"SELECT a.m, b.x FROM q AS a, mixed AS b WHERE a.n = b.x",
		// -0 = 0 and 0 = '0', but -0 <> '0' and -0 = '-0': no `=` key is
		// exact where -0 meets a string, so neither index nor hash may serve.
		"SELECT m FROM q WHERE n = '-0'",
		"SELECT k FROM s WHERE k = -0",
		"SELECT q.m, s.k FROM q, s WHERE q.n = s.k",
		"SELECT q.m, s.k FROM q JOIN s ON q.n = s.k",
		"SELECT s.k, q.m FROM s JOIN q ON s.k = q.n",
		"SELECT q.m, d.k FROM q, (SELECT k FROM s) AS d WHERE q.n = d.k",
		// Without -0 in the column the borrowed index serves: '0' = 0, while
		// '-0' and '1.0' match nothing.
		"SELECT s.k, p.n FROM s JOIN p ON s.k = p.n",
		"SELECT s.k, p.n FROM s, p WHERE s.k = p.n",
	} {
		checkExecEquivalence(t, db, sql)
	}
	// Strings that parse as 1 but are not its canonical text equal nothing.
	for _, sql := range []string{"SELECT m FROM q WHERE n = '1.0'", "SELECT m FROM q WHERE n = '1e0'"} {
		checkExecEquivalence(t, db, sql)
		if res := planRun(t, db, sql); len(res.Rows) != 0 {
			t.Fatalf("%s: %d rows, want none", sql, len(res.Rows))
		}
	}
}

// TestHashIndexSharedByScanAndJoin runs one plan whose equality scan and
// vectorized join both need a hash index on big.k: the column has one, so
// it is built once, and only the index counter sees the build.
func TestHashIndexSharedByScanAndJoin(t *testing.T) {
	db := bigDB()
	const sql = "SELECT x.v, y.v FROM big AS x, big AS y WHERE x.k = 7 AND x.k = y.k"
	idx0, col0 := db.IndexCounters(), db.ColumnarCounters()
	plan := planFor(t, db, sql, Prepare)
	if plan.root.vec == nil || !indexFed(plan, 0) {
		t.Fatalf("expected an index-fed vectorized join:\n%s", plan.Explain())
	}
	res, err := plan.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 100 {
		t.Fatalf("rows = %d, want 100", len(res.Rows))
	}
	idx, col := db.IndexCounters(), db.ColumnarCounters()
	if got := idx.Builds - idx0.Builds; got != 1 {
		t.Fatalf("index builds = %d, want 1", got)
	}
	if got := col.ColumnBuilds - col0.ColumnBuilds; got != 3 {
		t.Fatalf("column builds = %d, want 3 (the columnar image only)", got)
	}
	checkExecEquivalence(t, db, sql)
}

// TestHashIndexProbeMatchesCompare probes the hash index of a numeric, a
// mixed and a string column with every value of both types and checks each
// answer against Compare, the sweep's `=`. No cell is -0, the one spot
// where no `=` key is exact (see hashIndex.rowsFor).
func TestHashIndexProbeMatchesCompare(t *testing.T) {
	nums := []Value{NumVal(0), NumVal(1), NumVal(1.5), NumVal(-1), NumVal(1e21), NumVal(math.Inf(1)), NullVal(), NumVal(1)}
	strs := []Value{StrVal("1"), StrVal("1.0"), StrVal("abc"), StrVal("0"), StrVal("+Inf"), NullVal()}
	probes := []Value{StrVal("1e0"), StrVal("-0"), StrVal("1e+21"), StrVal("NaN"), StrVal(" 1"), NumVal(math.Copysign(0, -1))}
	probes = append(append(probes, nums...), strs...)
	db := NewDB("2020-12-31")
	for name, col := range map[string][]Value{"nums": nums, "mixed": append(append([]Value(nil), nums...), strs...), "strs": strs} {
		tb := &Table{Name: name, Cols: []string{"c"}, Types: []ColType{TStr}}
		for _, v := range col {
			tb.Rows = append(tb.Rows, []Value{v})
		}
		db.Add(tb)
		h := db.hashIndexFor(tb, 0)
		for _, p := range probes {
			if p.Null || (!p.IsStr && isNegZero(p.Num) && name != "nums") {
				continue
			}
			var want []int
			for ri, v := range col {
				if EqualVal(v, p) {
					want = append(want, ri)
				}
			}
			if got := h.rowsFor(p); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: rowsFor(%#v) = %v, want %v", name, p, got, want)
			}
		}
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
	// The row-path hash join must refuse a NaN key column too: under `=`
	// a.k's NaN row joins both rows of b.
	db.Add(&Table{Name: "a", Cols: []string{"k"}, Types: []ColType{TNum},
		Rows: [][]Value{{NumVal(math.NaN())}, {NumVal(4)}}})
	db.Add(&Table{Name: "b", Cols: []string{"k"}, Types: []ColType{TNum},
		Rows: [][]Value{{NumVal(4)}, {NumVal(5)}}})
	for _, sql := range []string{
		"SELECT m FROM nan WHERE n = 5",
		"SELECT m FROM nan WHERE n = 1",
		"SELECT m FROM nan WHERE n >= 2",
		"SELECT m FROM nan WHERE n BETWEEN 0 AND 3",
		"SELECT a.k, b.k FROM a, b WHERE a.k = b.k",
		"SELECT a.k, b.k FROM b, a WHERE a.k = b.k",
		"SELECT a.k, b.k FROM a JOIN b ON a.k = b.k",
		"SELECT a.k, b.k FROM b LEFT JOIN a ON a.k = b.k",
	} {
		checkExecEquivalence(t, db, sql)
	}
	// Forced or not, no plan over the NaN column may name an index path,
	// neither in EXPLAIN nor in the profile.
	for _, sql := range []string{"SELECT m FROM nan WHERE n = 5", "SELECT m FROM nan WHERE n BETWEEN 0 AND 3"} {
		plan := planFor(t, db, sql, prepareForceIndex)
		_, prof, err := plan.ExecProfiled()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []string{plan.Explain(), prof.String()} {
			if strings.Contains(s, "index-scan") || strings.Contains(s, "range-scan") {
				t.Fatalf("forced plan on NaN column used an index for %q:\n%s", sql, s)
			}
		}
	}
}

// TestDerivedColumnsInheritKinds checks that a derived table's column that
// copies a base column, bare or through '*', joins by hash exactly when the
// base column could, and that every other derived column still counts as
// possibly NaN, numeric, -0 and string.
func TestDerivedColumnsInheritKinds(t *testing.T) {
	db := NewDB("2020-12-31")
	num := func(k ...float64) [][]Value {
		rows := make([][]Value, len(k))
		for i, v := range k {
			rows[i] = []Value{NumVal(v), NumVal(float64(i))}
		}
		return rows
	}
	cols, types := []string{"k", "i"}, []ColType{TNum, TNum}
	db.Add(&Table{Name: "a", Cols: cols, Types: types, Rows: num(math.NaN(), 4)})
	db.Add(&Table{Name: "b", Cols: cols, Types: types, Rows: num(4, 5, 4)})
	db.Add(&Table{Name: "c", Cols: cols, Types: types, Rows: num(5, 4, 6)})
	db.Add(&Table{Name: "rag", Cols: cols, Types: types,
		Rows: [][]Value{{NumVal(4), NumVal(0)}, {NumVal(5)}}})
	for _, tc := range []struct {
		from string
		hash bool
	}{
		{`(SELECT * FROM b) AS x`, true},
		{`(SELECT k FROM b WHERE i > 0) AS x`, true},
		{`(SELECT i + 1 AS j, * FROM b) AS x`, true},
		{`(SELECT k FROM (SELECT * FROM b) AS y) AS x`, true},
		{`(SELECT k, count(*) AS n FROM b GROUP BY k) AS x`, true},
		{`(SELECT * FROM a) AS x`, false},                // NaN meets numbers
		{`(SELECT k + 0 AS k FROM b) AS x`, false},       // computed
		{`(SELECT k, count(*) AS n FROM b) AS x`, false}, // implicit group: may be empty
		{`(SELECT * FROM rag) AS x`, false},              // ragged rows shift '*'
		{`(SELECT * FROM rag, b) AS x`, false},           // ... of an earlier source
		{`(SELECT * FROM b, rag) AS x`, true},            // x.k is b.k, before rag's cells
		{`(SELECT i AS k FROM b, a WHERE b.k = a.k) AS x`, true},
	} {
		for _, sql := range []string{
			`SELECT c.i, x.k FROM c, ` + tc.from + ` WHERE c.k = x.k`,
			`SELECT c.i, x.k FROM c LEFT JOIN ` + tc.from + ` ON c.k = x.k`,
		} {
			checkExecEquivalence(t, db, sql)
			ex := planFor(t, db, sql, Prepare).Explain()
			if got := strings.Contains(ex, "hash build=x"); got != tc.hash {
				t.Errorf("%s: hash join = %v, want %v:\n%s", sql, got, tc.hash, ex)
			}
		}
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
	// its build cannot reuse the column index. However lopsided the sizes,
	// a hash level builds over its own source: the join builds over big and
	// keeps nested-loop order without a merge. The lower() conjunct (always
	// true) keeps the query off the vectorized path so the row pipeline's
	// hash level is exercised.
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
	if join.Detail != "inner big (hash)" || join.Path != "build=big" {
		t.Fatalf("expected a hash join building over big, got %+v", prof.Ops)
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
