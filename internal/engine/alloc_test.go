package engine

import (
	"math/rand"
	"runtime"
	"testing"

	dt "pi2/internal/difftree"
)

// raceEnabled is set by race_test.go: under the race detector sync.Pool
// drops a share of the buffers put back on purpose, so pooled reuse cannot
// be measured there.
var raceEnabled bool

// allocDB builds a table t of rows rows: k groups them 16 ways, c is uniform
// over [0, 1000) and every cell is a number.
func allocDB(rows int) *DB {
	r := rand.New(rand.NewSource(5))
	db := NewDB("2020-12-31")
	t := &Table{Name: "t", Cols: []string{"k", "c"}, Types: []ColType{TNum, TNum}}
	for i := 0; i < rows; i++ {
		t.Rows = append(t.Rows, []Value{NumVal(float64(i % 16)), NumVal(float64(r.Intn(10000)) / 10)})
	}
	db.Add(t)
	return db
}

// execBytes returns the heap bytes one Exec of plan allocates, averaged over
// runs executions after a warm-up that fills the buffer pools. A collection
// first finishes the garbage of building the fixture, so no cycle (two of
// which empty a pool) falls inside the measurement.
func execBytes(t *testing.T, plan *Plan, runs int) uint64 {
	t.Helper()
	runtime.GC()
	for i := 0; i < 3; i++ {
		if _, err := plan.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := plan.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestVecExecBytesFlatInRows pins the vectorized path's per-row allocation
// at zero: the bytes one Exec of a prepared grouped cross-filter read
// allocates must not grow from a 10k-row to a 100k-row table, whether the
// scan sweeps the table or is seeded from a sorted index's range. Selections,
// index candidates, the range bitmap and group ids all come from the pools.
func TestVecExecBytesFlatInRows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	for _, c := range []struct {
		name    string
		sql     string
		prep    func(*DB, *dt.Node) (*Plan, error)
		indexed bool
	}{
		{"full-scan", "SELECT k, count(*) FROM t WHERE c BETWEEN 100 AND 900 GROUP BY k", Prepare, false},
		{"index-seeded", "SELECT k, count(*) FROM t WHERE c BETWEEN 100 AND 200 GROUP BY k", prepareForceIndex, true},
	} {
		var bytes [2]uint64
		for i, rows := range []int{10_000, 100_000} {
			db := allocDB(rows)
			plan := planFor(t, db, c.sql, c.prep)
			if plan.root.vec == nil || indexFed(plan, 0) != c.indexed {
				t.Fatalf("%s over %d rows: want a vectorized scan, index-seeded %v:\n%s", c.name, rows, c.indexed, plan.Explain())
			}
			bytes[i] = execBytes(t, plan, 20)
		}
		// 10× the rows: allow a fixed slack for allocator granularity, none
		// that scales with the table.
		if bytes[1] > bytes[0]+bytes[0]/4+1024 {
			t.Errorf("%s: an Exec allocates %d B over 10k rows but %d B over 100k rows", c.name, bytes[0], bytes[1])
		}
		t.Logf("%s: %d B per Exec over 10k rows, %d B over 100k rows", c.name, bytes[0], bytes[1])
	}
}

// TestVecSubqueryRerunBoundedHeap runs a scalar subquery once per outer row
// for 1,000 outer rows. Each run of its grouped scan borrows a group-id
// buffer as long as its 16k-row selection; the buffer goes back when the run
// returns, so the whole Exec allocates far less than one such buffer per
// outer row. (The vectorized path compiles only subqueries whose predicates
// read their own columns, so the subquery is re-run per outer row without an
// outer reference, as a correlated one would be.)
func TestVecSubqueryRerunBoundedHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers")
	}
	db := allocDB(20_000)
	outer := &Table{Name: "o", Cols: []string{"id", "v"}, Types: []ColType{TNum, TNum}}
	for i := 0; i < 1000; i++ {
		outer.Rows = append(outer.Rows, []Value{NumVal(float64(i)), NumVal(float64(i % 900))})
	}
	db.Add(outer)
	sql := "SELECT o.id FROM o WHERE o.v < (SELECT count(*) FROM t WHERE c BETWEEN 100 AND 900)"
	plan := planFor(t, db, sql, Prepare)
	b0 := db.ColumnarCounters().Batches
	got, err := plan.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1000 {
		t.Fatalf("got %d rows, want all 1000", len(got.Rows))
	}
	// The subquery's grouping notes batches on every run, its scan once.
	if b := db.ColumnarCounters().Batches - b0; b < 1000 {
		t.Fatalf("the subquery ran %d vectorized batches over 1,000 outer rows; want a vectorized run per outer row", b)
	}
	per := execBytes(t, plan, 3) / 1000
	if gids := uint64(16_000 * 4); per > gids/4 {
		t.Fatalf("an Exec allocates %d B per outer row; one group-id buffer is %d B", per, gids)
	}
	t.Logf("%d B per outer row", per)
}
