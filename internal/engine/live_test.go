package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"pi2/internal/sqlparser"
)

func TestAppendBasic(t *testing.T) {
	db := testDB()
	before := len(run(t, db, "SELECT * FROM T").Rows)
	if err := db.Append("T", [][]Value{
		{NumVal(9), NumVal(9), NumVal(9)},
		{NumVal(10), NullVal(), NumVal(1)},
	}); err != nil {
		t.Fatal(err)
	}
	// All execution paths see the appended rows.
	checkExecEquivalence(t, db, "SELECT p, a, b FROM T ORDER BY p, a, b")
	if got := len(run(t, db, "SELECT * FROM T").Rows); got != before+2 {
		t.Fatalf("rows after append = %d, want %d", got, before+2)
	}
	res := run(t, db, "SELECT a FROM T WHERE p = 10")
	if len(res.Rows) != 1 || !res.Rows[0][0].Null {
		t.Fatalf("appended NULL row not visible: %+v", res.Rows)
	}
}

func TestAppendErrors(t *testing.T) {
	db := testDB()
	if err := db.Append("nosuch", [][]Value{{NumVal(1)}}); err == nil {
		t.Fatal("append to unknown table succeeded")
	}
	if err := db.Append("T", [][]Value{{NumVal(1)}}); err == nil {
		t.Fatal("ragged append row accepted")
	}
	if err := db.Append("T", nil); err != nil {
		t.Fatalf("empty append errored: %v", err)
	}
}

func TestAppendGenerations(t *testing.T) {
	db := testDB()
	g := db.Generation()
	set := db.TableSetGeneration()
	tGen, empGen := db.TableGen("T"), db.TableGen("emp")

	if err := db.Append("T", [][]Value{{NumVal(1), NumVal(1), NumVal(1)}}); err != nil {
		t.Fatal(err)
	}
	if db.Generation() != g+1 {
		t.Fatalf("global gen = %d, want %d", db.Generation(), g+1)
	}
	if db.TableGen("T") != tGen+1 {
		t.Fatalf("T gen = %d, want %d", db.TableGen("T"), tGen+1)
	}
	if db.TableGen("emp") != empGen {
		t.Fatalf("emp gen moved on write to T: %d -> %d", empGen, db.TableGen("emp"))
	}
	if db.TableSetGeneration() != set {
		t.Fatalf("set fingerprint moved on Append: %d -> %d", set, db.TableSetGeneration())
	}
	db.Add(&Table{Name: "brandnew", Cols: []string{"x"}, Types: []ColType{TNum}})
	if db.TableSetGeneration() != set+1 {
		t.Fatalf("set fingerprint did not move on Add: %d", db.TableSetGeneration())
	}
}

func TestPlanStalePerTable(t *testing.T) {
	db := testDB()
	planT := planFor(t, db, "SELECT p FROM T", Prepare)
	planEmp := planFor(t, db, "SELECT id FROM emp", Prepare)

	if err := db.Append("T", [][]Value{{NumVal(1), NumVal(2), NumVal(3)}}); err != nil {
		t.Fatal(err)
	}
	if !planT.Stale() {
		t.Fatal("plan over written table not stale")
	}
	if _, err := planT.Exec(); !errors.Is(err, ErrStalePlan) {
		t.Fatalf("Exec err = %v, want ErrStalePlan", err)
	}
	if _, _, err := planT.ExecProfiled(); !errors.Is(err, ErrStalePlan) {
		t.Fatalf("ExecProfiled err = %v, want ErrStalePlan", err)
	}
	if planEmp.Stale() {
		t.Fatal("plan over unrelated table staled by write to T")
	}
	if _, err := planEmp.Exec(); err != nil {
		t.Fatal(err)
	}

	// The stale error text is unchanged from the coarse-generation era.
	_, err := planT.Exec()
	if err == nil || err.Error() != "engine: plan is stale (database mutated since Prepare)" {
		t.Fatalf("stale error text changed: %v", err)
	}
}

func TestUnknownTablePlanStalesOnAdd(t *testing.T) {
	db := testDB()
	plan := planFor(t, db, "SELECT x FROM ghost", Prepare)
	if _, err := plan.Exec(); err == nil {
		t.Fatal("unknown-table plan executed")
	}
	if plan.Stale() {
		t.Fatal("unknown-table plan stale before any mutation")
	}
	db.Add(&Table{Name: "ghost", Cols: []string{"x"}, Types: []ColType{TNum},
		Rows: [][]Value{{NumVal(1)}}})
	if !plan.Stale() {
		t.Fatal("unknown-table plan not staled by Add of the missing table")
	}
	if res := run(t, db, "SELECT x FROM ghost"); len(res.Rows) != 1 {
		t.Fatalf("fresh plan rows = %d, want 1", len(res.Rows))
	}
}

func TestPlanDeps(t *testing.T) {
	db := testDB()
	plan := planFor(t, db, "SELECT e.id FROM emp AS e, dept AS d WHERE e.dept = d.name", Prepare)
	deps := plan.Deps()
	if len(deps) != 2 {
		t.Fatalf("deps = %+v, want emp and dept", deps)
	}
	if !db.Fresh(deps) {
		t.Fatal("deps not fresh immediately after prepare")
	}
	if err := db.Append("dept", [][]Value{{StrVal("hr"), StrVal("LA")}}); err != nil {
		t.Fatal(err)
	}
	if db.Fresh(deps) {
		t.Fatal("deps fresh after write to dept")
	}
}

// TestReplacedSnapshotRowsCollectable: once Add replaces a table, the rows
// appended to the old snapshot must be garbage once nothing else holds
// them — a write path that retains every appended batch grows without bound
// under a long-lived ingest writer.
func TestReplacedSnapshotRowsCollectable(t *testing.T) {
	db := testDB()
	collected := make(chan struct{})
	func() {
		backing := new([3]Value)
		backing[0], backing[1], backing[2] = NumVal(9), NumVal(9), NumVal(9)
		runtime.SetFinalizer(backing, func(*[3]Value) { close(collected) })
		if err := db.Append("T", [][]Value{backing[:]}); err != nil {
			t.Fatal(err)
		}
	}()
	db.Add(&Table{Name: "T", Cols: []string{"p", "a", "b"}, Types: []ColType{TNum, TNum, TNum}})

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(db)
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("rows appended to a replaced snapshot are still reachable from the DB")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEvictionPrecision pins the tentpole contract at the engine layer: a
// write to one table leaves every other table's stats, hash/sorted indexes,
// and columnar image warm (build counters unchanged), and only the written
// table rebuilds.
func TestEvictionPrecision(t *testing.T) {
	db := NewDB("2020-12-31")
	mk := func(name string) *Table {
		tb := &Table{Name: name, Cols: []string{"k", "v"}, Types: []ColType{TNum, TNum}}
		for i := 0; i < 300; i++ {
			tb.Rows = append(tb.Rows, []Value{NumVal(float64(i % 10)), NumVal(float64(i))})
		}
		return tb
	}
	db.Add(mk("covid"))
	db.Add(mk("cars"))

	warm := func(name string) {
		t.Helper()
		tb, _ := db.Table(name)
		db.tableStats(tb)
		db.hashIndexFor(tb, 0)
		db.sortedIndexFor(tb, 0)
		db.columnsFor(tb)
	}
	warm("covid")
	warm("cars")
	before := db.IndexCounters()
	colBefore := db.ColumnarCounters()

	if err := db.Append("covid", [][]Value{{NumVal(1), NumVal(999)}}); err != nil {
		t.Fatal(err)
	}

	// cars stays fully warm: no rebuilds when re-requested.
	warm("cars")
	if c := db.IndexCounters(); c.Builds != before.Builds || c.StatsBuilds != before.StatsBuilds {
		t.Fatalf("write to covid rebuilt cars access paths: before %+v, after %+v", before, c)
	}
	if c := db.ColumnarCounters(); c.ColumnBuilds != colBefore.ColumnBuilds {
		t.Fatalf("write to covid rebuilt cars columns: before %+v, after %+v", colBefore, c)
	}

	// covid rebuilds against the new snapshot.
	warm("covid")
	after := db.IndexCounters()
	if after.Builds != before.Builds+2 || after.StatsBuilds != before.StatsBuilds+1 {
		t.Fatalf("covid did not rebuild exactly its own paths: before %+v, after %+v", before, after)
	}
	if db.InvalidationCount("covid") != 1 || db.InvalidationCount("cars") != 0 {
		t.Fatalf("invalidation counters: covid=%d cars=%d",
			db.InvalidationCount("covid"), db.InvalidationCount("cars"))
	}
}

// TestAppendChurnRace drives concurrent readers over all five execution
// paths while a writer appends — the single-writer/many-reader contract
// under -race. Readers accept ErrStalePlan (and the unknown-table error for
// torn prepare windows) but nothing else; results are not asserted, the
// interleavings are the test.
func TestAppendChurnRace(t *testing.T) {
	db := testDB()
	const readers = 4
	iters := 300
	if testing.Short() {
		iters = 60
	}
	queries := []string{
		"SELECT p, a FROM T WHERE a = 1",
		"SELECT dept, count(*) FROM emp GROUP BY dept",
		"SELECT e.id FROM emp AS e, dept AS d WHERE e.dept = d.name",
		"SELECT day FROM events ORDER BY n DESC LIMIT 2",
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sql := queries[(r+i)%len(queries)]
				ast, err := sqlparser.Parse(sql)
				if err != nil {
					t.Error(err)
					return
				}
				var plan *Plan
				switch i % 4 {
				case 0:
					plan, err = Prepare(db, ast)
				case 1:
					plan, err = prepareForceIndex(db, ast)
				case 2:
					plan, err = prepareForceVec(db, ast)
				default:
					plan, err = prepareForceIndexVec(db, ast)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := plan.Exec(); err != nil && !errors.Is(err, ErrStalePlan) {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if _, err := ExecSQL(db, sql, sqlparser.Parse); err != nil {
					t.Errorf("reader %d interpreter: %v", r, err)
					return
				}
			}
		}(r)
	}
	for i := 0; i < iters; i++ {
		var err error
		switch i % 3 {
		case 0:
			err = db.Append("T", [][]Value{{NumVal(float64(i)), NumVal(1), NumVal(2)}})
		case 1:
			err = db.Append("emp", [][]Value{{NumVal(float64(100 + i)), StrVal("eng"), NumVal(50)}})
		default:
			err = db.Append("events", [][]Value{{StrVal(fmt.Sprintf("2021-01-%02d", i%28+1)), NumVal(float64(i))}})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := db.AppendCounters().Appends; got != uint64(iters) {
		t.Fatalf("appends = %d, want %d", got, iters)
	}
}
