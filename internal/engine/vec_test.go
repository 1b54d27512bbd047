package engine

import (
	"math"
	"strings"
	"testing"

	dt "pi2/internal/difftree"
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

// vecPlanFor prepares sql with the size gate bypassed and asserts whether the
// vectorized path engaged.
func vecPlanFor(t *testing.T, db *DB, sql string, wantVec bool) *Plan {
	t.Helper()
	plan := planFor(t, db, sql, prepareForceVec)
	if (plan.root.vec != nil) != wantVec {
		t.Fatalf("vectorized engagement = %v, want %v for %q", plan.root.vec != nil, wantVec, sql)
	}
	return plan
}

// TestVecNullThreeValued checks three-valued logic through the NULL bitmaps:
// every vectorizable predicate shape must drop NULL operands exactly like the
// interpreter's Compare-based row path. checkExecEquivalence compares all
// five execution paths bit for bit; the engagement assertion keeps the test
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
	// degeneracy. (The interpreter and the row hash join already disagree on
	// NaN keys — a pre-existing degeneracy outside this layer's contract —
	// so the check here is only that the vectorized path declines.)
	db.Add(&Table{
		Name:  "zn",
		Cols:  []string{"k"},
		Types: []ColType{TNum},
		Rows:  [][]Value{{NumVal(math.NaN())}, {NumVal(4)}},
	})
	sql = "SELECT za.id FROM za, zn WHERE za.k = zn.k"
	plan := vecPlanFor(t, db, sql, false)
	got, err := plan.Exec()
	if err != nil {
		t.Fatal(err)
	}
	want, err := planFor(t, db, sql, Prepare).Exec()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("forced-vec fallback diverged from Prepare: %d vs %d rows", len(got.Rows), len(want.Rows))
	}
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

	// Warm re-execution of the same plan reuses the cached selection: no new
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
	// a fresh plan rebuilds.
	if err := db.Append("v", [][]Value{{NumVal(99), NumVal(1), StrVal("zed"), NumVal(2)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Exec(); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale plan executed, err = %v", err)
	}
	plan = vecPlanFor(t, db, sql, true)
	if _, err := plan.Exec(); err != nil {
		t.Fatal(err)
	}
	if c := db.ColumnarCounters(); c.ColumnBuilds <= c0.ColumnBuilds {
		t.Fatalf("re-prepare after mutation did not rebuild columns: %d -> %d",
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
// and queries the chooser routes to the row pipeline carry no vec plan.
func TestVecDisabledPathAllocFree(t *testing.T) {
	db := vecDB()
	if n := testing.AllocsPerRun(100, func() { db.noteBatch(512) }); n != 0 {
		t.Fatalf("noteBatch with no hook allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = db.ColumnarCounters() }); n != 0 {
		t.Fatalf("ColumnarCounters allocates %v per run", n)
	}
	// Under the default size gate these tables are far below minVecRows, so
	// plain Prepare must leave the vectorized plan off entirely.
	plan := planFor(t, db, "SELECT x FROM v WHERE x > 2", Prepare)
	if plan.root.vec != nil {
		t.Fatal("size gate did not keep a tiny table on the row path")
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
