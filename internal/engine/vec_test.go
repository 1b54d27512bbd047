package engine

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	dt "pi2/internal/difftree"
	"pi2/internal/sqlparser"
)

// vecDB builds a database exercising the columnar layer's edge cases:
// NULLs in numeric and string columns, a mixed num/str column (legal
// storage, illegal join key), and signed zeros.
func vecDB() *DB {
	db := NewDB("2020-12-31")
	db.Add(&Table{
		Name:  "v",
		Cols:  []string{"x", "y", "s", "m"},
		Types: []ColType{TNum, TNum, TStr, TStr},
		Rows: [][]Value{
			{NumVal(1), NumVal(4), StrVal("alpha"), NumVal(1)},
			{NullVal(), NumVal(2), StrVal("beta"), StrVal("1")},
			{NumVal(3), NullVal(), NullVal(), NumVal(2)},
			{NumVal(7), NumVal(7), StrVal("alef"), StrVal("two")},
			{NullVal(), NullVal(), NullVal(), NullVal()},
			{NumVal(5), NumVal(1), StrVal("gamma"), NumVal(3)},
		},
	})
	db.Add(&Table{
		Name:  "za",
		Cols:  []string{"id", "k"},
		Types: []ColType{TNum, TNum},
		Rows: [][]Value{
			{NumVal(1), NumVal(0)},
			{NumVal(2), NumVal(math.Copysign(0, -1))},
			{NumVal(3), NumVal(4)},
			{NumVal(4), NullVal()},
		},
	})
	db.Add(&Table{
		Name:  "zb",
		Cols:  []string{"id", "k"},
		Types: []ColType{TNum, TNum},
		Rows: [][]Value{
			{NumVal(10), NumVal(math.Copysign(0, -1))},
			{NumVal(11), NumVal(0)},
			{NumVal(12), NumVal(4)},
			{NumVal(13), NumVal(4)},
			{NumVal(14), NullVal()},
		},
	})
	return db
}

// vecPlanFor prepares sql and asserts whether the vectorized path engaged.
func vecPlanFor(t *testing.T, db *DB, sql string, wantVec bool) *Plan {
	t.Helper()
	plan := planFor(t, db, sql, Prepare)
	if (plan.root.vec != nil) != wantVec {
		t.Fatalf("vectorized engagement = %v, want %v for %q", plan.root.vec != nil, wantVec, sql)
	}
	return plan
}

// TestVecNullThreeValued checks three-valued logic through the NULL bitmaps:
// every vectorizable predicate shape must drop NULL operands exactly like the
// interpreter's Compare-based row path. checkExecEquivalence compares every
// execution path bit for bit; the engagement assertion keeps the test
// from passing vacuously through the row fallback.
func TestVecNullThreeValued(t *testing.T) {
	db := vecDB()
	queries := []string{
		// comparison vs literal, every operator, numeric and string
		"SELECT x FROM v WHERE x > 3",
		"SELECT x FROM v WHERE x >= 3",
		"SELECT x FROM v WHERE x < 5",
		"SELECT x FROM v WHERE x <= 5",
		"SELECT x FROM v WHERE x = 3",
		"SELECT x FROM v WHERE x <> 3",
		"SELECT s FROM v WHERE s > 'alpha'",
		"SELECT s FROM v WHERE s = 'beta'",
		// column-vs-column comparison: NULL on either side drops the row
		"SELECT x, y FROM v WHERE x < y",
		"SELECT x, y FROM v WHERE x = y",
		"SELECT x, y FROM v WHERE x <> y",
		// BETWEEN
		"SELECT x FROM v WHERE x BETWEEN 2 AND 6",
		// LIKE and NOT LIKE over a column with NULLs
		"SELECT s FROM v WHERE s LIKE 'al%'",
		"SELECT s FROM v WHERE s NOT LIKE 'al%'",
		// IN with a mixed-type list
		"SELECT x FROM v WHERE x IN (1, 5, 'alpha')",
		"SELECT m FROM v WHERE m IN (1, 'two')",
		// aggregates over columns with NULLs: count skips, sum/avg skip,
		// min/max skip, empty groups
		"SELECT m, count(x) AS c FROM v GROUP BY m",
		"SELECT m, sum(x) AS c FROM v GROUP BY m",
		"SELECT m, avg(y) AS c FROM v GROUP BY m",
		"SELECT m, min(s) AS c FROM v GROUP BY m",
		"SELECT count(x) AS c, sum(y) AS s2, avg(x) AS a, min(y) AS mn, max(x) AS mx FROM v",
		"SELECT count(x) AS c, sum(x) AS s2, avg(x) AS a, min(x) AS mn FROM v WHERE x > 100",
		// DISTINCT over NULL-bearing projections
		"SELECT DISTINCT y FROM v",
		"SELECT DISTINCT x, s FROM v",
	}
	for _, sql := range queries {
		vecPlanFor(t, db, sql, true)
		checkExecEquivalence(t, db, sql)
	}
}

// TestVecNegZeroJoinKey checks that -0 and +0 hash to the same join bucket on
// the vectorized path (joinKeyBits collapses the sign, matching the row
// path's canonical 'g' text) and that NULL keys never match anything.
func TestVecNegZeroJoinKey(t *testing.T) {
	db := vecDB()
	sql := "SELECT za.id, zb.id FROM za, zb WHERE za.k = zb.k"
	plan := vecPlanFor(t, db, sql, true)
	res, err := plan.Exec()
	if err != nil {
		t.Fatal(err)
	}
	// +0 and -0 on both sides: 2x2 zero pairs + 1x2 four pairs = 6; the
	// NULL keys on each side contribute nothing.
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6:\n%v", len(res.Rows), res.Rows)
	}
	checkExecEquivalence(t, db, sql)
}

// TestVecMixedKeyFallsBack checks that an equi key over a mixed num/str
// column disqualifies the whole query from the vectorized path (the row hash
// join handles `=` coercion; a vectorized nested loop would be slower) while
// results stay identical through the fallback.
func TestVecMixedKeyFallsBack(t *testing.T) {
	db := vecDB()
	sql := "SELECT v.x, za.id FROM v, za WHERE v.m = za.k"
	vecPlanFor(t, db, sql, false)
	checkExecEquivalence(t, db, sql)

	// A NaN in a key column also disqualifies it: joinKeyBits would key NaN
	// by bit pattern, which cannot express Compare's NaN-equals-any-number
	// degeneracy.
	db.Add(&Table{
		Name:  "zn",
		Cols:  []string{"k"},
		Types: []ColType{TNum},
		Rows:  [][]Value{{NumVal(math.NaN())}, {NumVal(4)}},
	})
	sql = "SELECT za.id FROM za, zn WHERE za.k = zn.k"
	vecPlanFor(t, db, sql, false)
	checkExecEquivalence(t, db, sql)
}

// TestVecOrderRestoration checks that vectorized output comes back in scan
// order — probe-major, build rows ascending within a bucket — which is
// exactly the interpreter's nested-loop order, even with
// duplicate keys on both sides and a pushed filter shrinking the probe side.
func TestVecOrderRestoration(t *testing.T) {
	db := vecDB()
	for _, sql := range []string{
		"SELECT za.id, zb.id FROM za, zb WHERE za.k = zb.k",
		"SELECT zb.id, za.id FROM zb, za WHERE zb.k = za.k AND zb.id > 10",
		"SELECT x FROM v WHERE x > 0",
	} {
		vecPlanFor(t, db, sql, true)
		checkExecEquivalence(t, db, sql)
	}
}

// TestVecGenerationInvalidation checks that columnar caches are
// generation-gated like the PR 8 indexes: a mutation stales prepared plans,
// and re-preparing rebuilds column storage (the builds counter grows).
func TestVecGenerationInvalidation(t *testing.T) {
	db := vecDB()
	sql := "SELECT x FROM v WHERE x > 2"
	plan := vecPlanFor(t, db, sql, true)
	if _, err := plan.Exec(); err != nil {
		t.Fatal(err)
	}
	c0 := db.ColumnarCounters()
	if c0.ColumnBuilds == 0 {
		t.Fatal("no column builds recorded after a vectorized execution")
	}
	if c0.Batches == 0 || c0.BatchRows == 0 {
		t.Fatalf("batch counters empty: %+v", c0)
	}

	// Re-executing the same plan reuses the DB's column image: no new
	// column builds.
	if _, err := plan.Exec(); err != nil {
		t.Fatal(err)
	}
	if c := db.ColumnarCounters(); c.ColumnBuilds != c0.ColumnBuilds {
		t.Fatalf("warm exec rebuilt columns: %d -> %d", c0.ColumnBuilds, c.ColumnBuilds)
	}

	// Adding an unrelated table is not a mutation of anything this plan
	// reads: it stays fresh and keeps its cached columns.
	db.Add(&Table{Name: "zz", Cols: []string{"q"}, Types: []ColType{TNum},
		Rows: [][]Value{{NumVal(1)}}})
	if _, err := plan.Exec(); err != nil {
		t.Fatalf("plan staled by unrelated table: %v", err)
	}
	if c := db.ColumnarCounters(); c.ColumnBuilds != c0.ColumnBuilds {
		t.Fatalf("unrelated Add rebuilt columns: %d -> %d", c0.ColumnBuilds, c.ColumnBuilds)
	}

	// Mutate the table the plan reads: the old plan must refuse to run, and
	// a fresh plan extends the column image by the appended row.
	if err := db.Append("v", [][]Value{{NumVal(99), NumVal(1), StrVal("zed"), NumVal(2)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Exec(); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale plan executed, err = %v", err)
	}
	extends := 0
	db.OnIndexBuild(func(kind string, _ time.Duration) {
		if kind == "columnar-extend" {
			extends++
		}
	})
	plan = vecPlanFor(t, db, sql, true)
	if _, err := plan.Exec(); err != nil {
		t.Fatal(err)
	}
	if c := db.ColumnarCounters(); c.ColumnBuilds != c0.ColumnBuilds || extends != 1 {
		t.Fatalf("re-prepare after Append: column builds %d -> %d, extensions %d; want no build, one extension",
			c0.ColumnBuilds, c.ColumnBuilds, extends)
	}

	// Add replaces the table wholesale: a fresh plan rebuilds its columns.
	tb, _ := db.Table("v")
	db.Add(&Table{Name: tb.Name, Cols: tb.Cols, Types: tb.Types, Rows: tb.Rows})
	plan = vecPlanFor(t, db, sql, true)
	if _, err := plan.Exec(); err != nil {
		t.Fatal(err)
	}
	if c := db.ColumnarCounters(); c.ColumnBuilds <= c0.ColumnBuilds {
		t.Fatalf("re-prepare after Add did not rebuild columns: %d -> %d",
			c0.ColumnBuilds, c.ColumnBuilds)
	}
}

// TestVecBatchHook checks OnBatch delivery: every batch row count arrives,
// none exceeds batchSize, and the sum matches the BatchRows counter delta.
func TestVecBatchHook(t *testing.T) {
	db := vecDB()
	var rows int
	db.OnBatch(func(n int) {
		if n <= 0 || n > batchSize {
			t.Errorf("batch hook got %d rows, want 1..%d", n, batchSize)
		}
		rows += n
	})
	before := db.ColumnarCounters()
	plan := vecPlanFor(t, db, "SELECT x FROM v WHERE x > 0", true)
	if _, err := plan.Exec(); err != nil {
		t.Fatal(err)
	}
	after := db.ColumnarCounters()
	if got := after.BatchRows - before.BatchRows; uint64(rows) != got {
		t.Fatalf("hook saw %d rows, counters recorded %d", rows, got)
	}
	if rows == 0 {
		t.Fatal("batch hook never fired")
	}
	db.OnBatch(nil)
}

// TestVecDisabledPathAllocFree pins the cost of the columnar layer when it is
// not in use: counter reads and disabled-hook batch notes allocate nothing,
// and a query the batch path refuses carries no vec plan.
func TestVecDisabledPathAllocFree(t *testing.T) {
	db := vecDB()
	if n := testing.AllocsPerRun(100, func() { db.noteBatch(512) }); n != 0 {
		t.Fatalf("noteBatch with no hook allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = db.ColumnarCounters() }); n != 0 {
		t.Fatalf("ColumnarCounters allocates %v per run", n)
	}
	// A computed select item is outside the batch path's query class.
	vecPlanFor(t, db, "SELECT x + 1 FROM v WHERE x > 2", false)
}

// TestVecSmallTable checks that table size never decides the execution
// path: an eligible query over a 5-row table gets a batch plan from plain
// Prepare, and its result equals the interpreter's.
func TestVecSmallTable(t *testing.T) {
	db := vecDB()
	if tb, _ := db.Table("zb"); len(tb.Rows) != 5 {
		t.Fatalf("fixture zb has %d rows, want 5", len(tb.Rows))
	}
	for _, sql := range []string{
		"SELECT id, k FROM zb WHERE k >= 0 ORDER BY k",
		"SELECT k, count(*) FROM zb GROUP BY k",
	} {
		vecPlanFor(t, db, sql, true)
		checkExecEquivalence(t, db, sql)
	}
}

// TestVecGroupedClosures checks that a grouped level whose GROUP BY keys
// are bare columns and whose aggregates the batch path accumulates takes the
// batch plan whatever its select items, HAVING and ORDER BY keys are, and
// that it matches the interpreter, error text included: per group, the
// batch path runs the plan's compiled HAVING, items and order keys.
func TestVecGroupedClosures(t *testing.T) {
	db := testDB()
	for _, q := range []struct {
		sql, err string
		rowPath  bool
	}{
		// The parser wraps every HAVING in an AND node.
		{"SELECT dept, avg(salary) FROM emp GROUP BY dept HAVING avg(salary) > 90", "", false},
		{"SELECT dept, count(*) * 2 + max(salary) AS c FROM emp GROUP BY dept", "", false},
		{"SELECT dept, sum(salary) FROM emp GROUP BY dept ORDER BY sum(salary) / count(*) DESC", "", false},
		{"SELECT dept, sum(salary) FROM emp AS e GROUP BY dept HAVING sum(salary) >= (SELECT max(salary) FROM emp AS f WHERE f.dept = e.dept) + 100", "", false},
		// A sum over strings errors only when its conjunct is evaluated.
		{"SELECT dept, count(*) FROM emp GROUP BY dept HAVING count(*) > 5 AND sum(dept) > 0", "", false},
		{"SELECT dept, count(*) FROM emp GROUP BY dept HAVING sum(dept) > 0 AND count(*) > 5", "engine: sum() over strings", false},
		{"SELECT dept, count(*) FROM emp GROUP BY dept HAVING count(*) > 1 OR sum(dept) > 0", "", false},
		{"SELECT dept, count(*) FROM emp GROUP BY dept HAVING count(*) > 5 OR avg(dept) > 0", "engine: avg() over strings", false},
		// The empty implicit group: a bare column is unknown at the root,
		// and found in the enclosing group's row from a subquery.
		{"SELECT dept, count(*) FROM emp WHERE salary > 1000", `engine: unknown column "dept"`, false},
		{"SELECT dept, count(*) FROM emp AS e GROUP BY dept HAVING (SELECT dept, count(*) FROM emp AS f WHERE f.salary > 1000) = 'eng'", "", false},
		{"SELECT name, city, count(*), sum(salary) FROM emp, dept WHERE emp.dept = dept.name GROUP BY name HAVING count(*) > 1 OR city = 'SF' ORDER BY city", "", false},
		{"SELECT DISTINCT count(*) FROM T GROUP BY p", "", false},
		// An aggregate in a JOIN's ON condition has no query level to
		// intern into: it prepares, stays on the row path and fails there.
		{"SELECT * FROM emp JOIN dept ON count(*) > 0", "engine: aggregate count() outside grouping context", true},
		{"SELECT dept.name, count(*) FROM emp JOIN dept ON emp.dept = dept.name AND max(salary) > 0 GROUP BY dept.name", "engine: aggregate max() outside grouping context", true},
	} {
		vecPlanFor(t, db, q.sql, !q.rowPath)
		checkExecEquivalence(t, db, q.sql)
		got := ""
		if _, err := Exec(db, sqlparser.MustParse(q.sql)); err != nil {
			got = err.Error()
		}
		if got != q.err {
			t.Errorf("%s: interpreter error %q, want %q", q.sql, got, q.err)
		}
	}
}

// TestVecProfileAndExplain checks the observability surfaces: EXPLAIN names
// the vectorized operators and EXPLAIN ANALYZE reports batch counts.
func TestVecProfileAndExplain(t *testing.T) {
	db := vecDB()
	plan := vecPlanFor(t, db, "SELECT za.id, zb.id FROM za, zb WHERE za.k = zb.k AND za.id > 0", true)
	s := plan.Explain()
	for _, want := range []string{"vectorized-filter", "vectorized hash build=zb"} {
		if !strings.Contains(s, want) {
			t.Fatalf("EXPLAIN missing %q:\n%s", want, s)
		}
	}
	_, prof, err := plan.ExecProfiled()
	if err != nil {
		t.Fatal(err)
	}
	batches := 0
	for _, op := range prof.Ops {
		batches += op.Batches
	}
	if batches == 0 {
		t.Fatalf("profile recorded no batches: %+v", prof.Ops)
	}
	if !strings.Contains(prof.String(), "batches") {
		t.Fatalf("profile table missing batches column:\n%s", prof.String())
	}
}

var _ = dt.Node{} // keep the import pinned for planFor's signature

// TestLeanColumnImages checks that buildTableCols allocates a column's
// numeric and string arrays only when the column holds a cell of that kind,
// and that all-NULL and mixed columns give the interpreter's results through
// the columnar path.
func TestLeanColumnImages(t *testing.T) {
	lean := &Table{
		Name:  "lean",
		Cols:  []string{"n", "s", "z", "m"},
		Types: []ColType{TNum, TStr, TNum, TStr},
		Rows: [][]Value{
			{NumVal(1), StrVal("a"), NullVal(), NumVal(2)},
			{NullVal(), StrVal("b"), NullVal(), StrVal("b")},
			{NumVal(3), NullVal(), NullVal(), NullVal()},
			{NumVal(1), StrVal("a"), NullVal(), StrVal("2")},
			{NumVal(2), StrVal("c"), NullVal(), NumVal(1)},
		},
	}
	tc := buildTableCols(lean)
	for ci, want := range []struct{ nums, strs bool }{{true, false}, {false, true}, {false, false}, {true, true}} {
		cd := &tc.cols[ci]
		if (cd.nums != nil) != want.nums || (cd.strs != nil) != want.strs {
			t.Errorf("column %s: nums allocated %v, strs allocated %v; want %v, %v",
				lean.Cols[ci], cd.nums != nil, cd.strs != nil, want.nums, want.strs)
		}
	}

	db := NewDB("2020-12-31")
	db.Add(lean)
	for _, sql := range []string{
		`SELECT n, z FROM lean WHERE z = 1`,
		`SELECT n, z FROM lean WHERE z < 'b'`,
		`SELECT n FROM lean WHERE z BETWEEN 1 AND 3`,
		`SELECT n FROM lean WHERE z IN (1, 'a')`,
		`SELECT n FROM lean WHERE z LIKE 'a%'`,
		`SELECT n FROM lean WHERE z = n`,
		`SELECT m FROM lean WHERE m > 1`,
		`SELECT m FROM lean WHERE m >= 'a'`,
		`SELECT m FROM lean WHERE m BETWEEN 'a' AND 'z'`,
		`SELECT s, m FROM lean WHERE m = s ORDER BY m`,
		`SELECT z, count(*), sum(z), avg(z), min(z), max(z) FROM lean GROUP BY z`,
		`SELECT m, count(*), min(m), max(m) FROM lean GROUP BY m ORDER BY m`,
		`SELECT sum(z), min(m), max(s) FROM lean`,
		`SELECT DISTINCT z, m FROM lean`,
		`SELECT a.n, b.n FROM lean AS a, lean AS b WHERE a.z = b.z`,
		`SELECT a.n, b.s FROM lean AS a, lean AS b WHERE a.n = b.z`,
	} {
		vecPlanFor(t, db, sql, true)
		checkExecEquivalence(t, db, sql)
	}
}

// denseDB builds a 3000-row table whose numeric columns hold a number in
// every row: x cycles through NaN, ±0, ±Inf and ordinary values, y counts
// 0–99 and k 0–9; e is a ten-row lookup table keyed by k.
func denseDB() *DB {
	specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1, 2.5, -3, 1e300, 7}
	db := NewDB("2020-12-31")
	d := &Table{Name: "d", Cols: []string{"x", "y", "k"}, Types: []ColType{TNum, TNum, TNum}}
	for i := 0; i < 3000; i++ {
		x := specials[i%len(specials)]
		if i%7 == 3 {
			x = float64(i%23) - 11.5
		}
		d.Rows = append(d.Rows, []Value{NumVal(x), NumVal(float64(i % 100)), NumVal(float64(i * 7 % 10))})
	}
	db.Add(d)
	e := &Table{Name: "e", Cols: []string{"k", "lbl"}, Types: []ColType{TNum, TStr}}
	for k := 0; k < 10; k++ {
		e.Rows = append(e.Rows, []Value{NumVal(float64(k)), StrVal(fmt.Sprintf("k%d", k))})
	}
	db.Add(e)
	return db
}

// denseQueries are BETWEEN and every comparison operator, literal on either
// side, over d.x (NaN, -0, ±Inf) alone, after a second dense predicate (so x
// filters a gathered selection rather than the identity batch) and under
// GROUP BY.
func denseQueries() []string {
	qs := []string{
		"SELECT x FROM d WHERE x BETWEEN -1 AND 3",
		"SELECT x FROM d WHERE x BETWEEN 0 AND 0",
		"SELECT x FROM d WHERE x BETWEEN 3 AND -1",
		"SELECT x FROM d WHERE x BETWEEN -1000000 AND 1000000",
		"SELECT x, y FROM d WHERE y BETWEEN 10 AND 40 AND x BETWEEN -5 AND 5",
		"SELECT k, count(*) FROM d WHERE x BETWEEN -2 AND 2.5 GROUP BY k",
	}
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		for _, lit := range []string{"0", "2.5", "-11.5", "7", "1000000"} {
			qs = append(qs,
				fmt.Sprintf("SELECT x FROM d WHERE x %s %s", op, lit),
				fmt.Sprintf("SELECT x FROM d WHERE %s %s x", lit, op))
		}
		qs = append(qs,
			fmt.Sprintf("SELECT x, y FROM d WHERE y < 50 AND x %s 0", op),
			fmt.Sprintf("SELECT k, count(*) FROM d WHERE x %s 1 GROUP BY k", op))
	}
	return qs
}

// TestVecDenseKernels checks the dense range kernel against the interpreter
// on every path, including Compare's NaN rule (BETWEEN, =, <= and >=
// keep a NaN cell; <>, < and > drop it). An Append that adds a NULL to x
// takes x's predicates off the dense kernel, and one that then adds a string
// takes them off the numeric fast path altogether; results must still match.
func TestVecDenseKernels(t *testing.T) {
	db := denseDB()
	// xDense reports whether every predicate on d.x (column 0) is dense.
	xDense := func(plan *Plan) bool {
		for _, p := range plan.root.vec.scanPreds[0] {
			if p.col == 0 && !p.dense {
				return false
			}
		}
		return true
	}
	check := func(stage string, wantDense bool) {
		t.Helper()
		for _, sql := range denseQueries() {
			plan := vecPlanFor(t, db, sql, true)
			if xDense(plan) != wantDense {
				t.Fatalf("%s: %q: dense kernel = %v, want %v", stage, sql, !wantDense, wantDense)
			}
			checkExecEquivalence(t, db, sql)
		}
	}
	check("loaded", true)

	if err := db.Append("d", [][]Value{{NullVal(), NumVal(5), NumVal(1)}}); err != nil {
		t.Fatal(err)
	}
	check("after a NULL", false)
	if plan := vecPlanFor(t, db, "SELECT x FROM d WHERE y < 50", true); !plan.root.vec.scanPreds[0][0].dense {
		t.Fatal("a NULL in x took y's predicate off the dense kernel")
	}

	if err := db.Append("d", [][]Value{{StrVal("2"), NumVal(6), NumVal(2)}}); err != nil {
		t.Fatal(err)
	}
	check("after a string", false)
	if plan := vecPlanFor(t, db, "SELECT x FROM d WHERE x > 0", true); plan.root.vec.scanPreds[0][0].fast != fastNone {
		t.Fatal("a string in x left its predicate on the numeric fast path")
	}
}

// TestVecConcurrentExec runs shared plans from 16 goroutines over one DB:
// the pooled selections, group ids, join pairs and range bitmaps of one Exec
// must never leak into another's, nor one Exec's batch groups, which its
// grouped plan's compiled HAVING (here with a correlated subquery) and
// computed items read. Run under -race; every result must equal the
// interpreter's.
func TestVecConcurrentExec(t *testing.T) {
	db := denseDB()
	type shared struct {
		sql  string
		plan *Plan
		want *Table
	}
	var plans []shared
	for _, q := range []struct {
		sql  string
		prep func(*DB, *dt.Node) (*Plan, error)
	}{
		{"SELECT k, count(*) FROM d WHERE x BETWEEN -1 AND 3 GROUP BY k", Prepare},
		{"SELECT k, count(*) FROM d WHERE y BETWEEN 10 AND 20 GROUP BY k", prepareForceIndex},
		{"SELECT x, y FROM d WHERE y BETWEEN 90 AND 95 AND x >= 0", prepareForceIndex},
		{"SELECT d.y, e.lbl FROM d, e WHERE d.k = e.k AND d.y < 5", Prepare},
		{"SELECT DISTINCT k FROM d WHERE y > 50", Prepare},
		{"SELECT k, lbl FROM e WHERE k < (SELECT count(*) FROM d WHERE y BETWEEN 1 AND 3 AND x > 0)", Prepare},
		{"SELECT k, count(*) * 2 + max(y) FROM d AS o WHERE y < 60 GROUP BY k " +
			"HAVING count(*) > (SELECT count(*) FROM d AS i WHERE i.k = o.k AND i.y >= 60) / 2", Prepare},
	} {
		ast, err := sqlparser.Parse(q.sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Exec(db, ast)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := q.prep(db, ast)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, shared{q.sql, plan, want})
	}
	if plans[1].plan.root.vec == nil || !indexFed(plans[1].plan, 0) {
		t.Fatalf("expected an index-fed vectorized scan:\n%s", plans[1].plan.Explain())
	}
	if last := plans[len(plans)-1]; last.plan.root.vec == nil || len(last.want.Rows) == 0 {
		t.Fatalf("expected a batch grouped plan with rows: %d rows\n%s", len(last.want.Rows), last.plan.Explain())
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 8; it++ {
				s := plans[(g+it)%len(plans)]
				got, err := s.plan.Exec()
				if err != nil {
					t.Errorf("%s: %v", s.sql, err)
					return
				}
				if len(got.Rows) != len(s.want.Rows) {
					t.Errorf("%s: %d rows, interpreter %d", s.sql, len(got.Rows), len(s.want.Rows))
					return
				}
				for ri := range got.Rows {
					if !sameRow(got.Rows[ri], s.want.Rows[ri]) {
						t.Errorf("%s: row %d = %v, interpreter %v", s.sql, ri, got.Rows[ri], s.want.Rows[ri])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
