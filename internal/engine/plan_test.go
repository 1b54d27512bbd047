package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	dt "pi2/internal/difftree"
	"pi2/internal/sqlparser"
	"pi2/internal/workload"
)

// planRun prepares and executes sql on the compiled path.
func planRun(t *testing.T, db *DB, sql string) *Table {
	t.Helper()
	plan, err := Prepare(db, sqlparser.MustParse(sql))
	if err != nil {
		t.Fatalf("prepare %q: %v", sql, err)
	}
	res, err := plan.Exec()
	if err != nil {
		t.Fatalf("exec plan %q: %v", sql, err)
	}
	return res
}

// TestPlanMatchesInterpreterBattery cross-checks the compiled path against
// the interpreter on constructs the workload logs do not all exercise:
// correlated subqueries, derived tables, HAVING, short-circuit evaluation,
// string functions, and aggregates over empty input.
func TestPlanMatchesInterpreterBattery(t *testing.T) {
	db := testDB()
	queries := []string{
		`SELECT p, a FROM T WHERE a = 1`,
		`SELECT * FROM T ORDER BY p DESC, a LIMIT 3`,
		`SELECT DISTINCT p FROM T ORDER BY p`,
		`SELECT p, count(*), sum(b) FROM T GROUP BY p ORDER BY p`,
		`SELECT dept, avg(salary) FROM emp GROUP BY dept HAVING avg(salary) > 90`,
		`SELECT count(*) FROM emp WHERE salary > 1000`,
		`SELECT min(salary), max(salary), avg(salary) FROM emp WHERE dept = 'none'`,
		`SELECT e.id, d.city FROM emp e, dept d WHERE e.dept = d.name ORDER BY e.id`,
		`SELECT id FROM emp WHERE salary > (SELECT avg(salary) FROM emp)`,
		`SELECT id FROM emp e WHERE salary > (SELECT avg(salary) FROM emp WHERE dept = e.dept)`,
		`SELECT id FROM emp WHERE dept IN (SELECT name FROM dept WHERE city = 'NYC')`,
		`SELECT id FROM emp WHERE dept NOT IN ('eng')`,
		`SELECT x.p, x.n FROM (SELECT p, count(*) AS n FROM T GROUP BY p) x WHERE x.n > 1`,
		`SELECT upper(dept), lower(dept) FROM emp WHERE id = 1`,
		`SELECT day FROM events WHERE day > date(today(), '-30 days')`,
		`SELECT id FROM emp WHERE dept LIKE 'e%'`,
		`SELECT id, salary + 1, salary - 1, salary * 2, salary / 0 FROM emp WHERE id = 1`,
		`SELECT p FROM T WHERE a BETWEEN 1 AND 1 AND b BETWEEN 2 AND 3`,
		`SELECT 1 + 2`,
		`SELECT p FROM T WHERE 1 = 2 AND nosuchcolumn = 3`, // short-circuit: never evaluated
		`SELECT p FROM T WHERE 1 = 2 AND abs() > 0`,        // zero-arg func, never evaluated
		// star + aggregate over an empty implicit group: the interpreter
		// emits a ragged row with no star values
		`SELECT *, count(a) FROM T WHERE a > 100`,
		// outer star over a derived table whose rows are ragged (shorter
		// than its schema) — must not panic, must match the interpreter
		`SELECT * FROM (SELECT max(a), * FROM T WHERE a > 100) d`,
		`SELECT * FROM (SELECT count(a), * FROM T WHERE a > 100) d, dept`,
	}
	for _, sql := range queries {
		ast := sqlparser.MustParse(sql)
		direct, directErr := Exec(db, ast)
		plan, err := Prepare(db, ast)
		if err != nil {
			t.Fatalf("%q: prepare: %v", sql, err)
		}
		planned, plannedErr := plan.Exec()
		if (directErr != nil) != (plannedErr != nil) {
			t.Fatalf("%q: error mismatch: interpreter=%v planned=%v", sql, directErr, plannedErr)
		}
		if directErr != nil {
			continue
		}
		if !reflect.DeepEqual(direct.Cols, planned.Cols) || !reflect.DeepEqual(direct.Types, planned.Types) {
			t.Errorf("%q: header mismatch: (%v,%v) vs (%v,%v)",
				sql, direct.Cols, direct.Types, planned.Cols, planned.Types)
		}
		if !reflect.DeepEqual(direct.Rows, planned.Rows) {
			t.Errorf("%q: rows mismatch:\n  interpreter %v\n  planned     %v",
				sql, direct.Rows, planned.Rows)
		}
	}
}

// Errors the interpreter only raises at evaluation time must surface from
// Exec, not Prepare, so that never-evaluated branches stay silent.
func TestPlanDefersEvaluationErrors(t *testing.T) {
	db := testDB()
	for _, sql := range []string{
		`SELECT nosuch FROM T`,
		`SELECT p FROM nosuchtable`,
		`SELECT abs() FROM T`, // zero-arg scalar function (interpreter panics; plan must error)
		`SELECT lower() FROM T`,
	} {
		plan, err := Prepare(db, sqlparser.MustParse(sql))
		if err != nil {
			t.Fatalf("%q: Prepare should defer the error, got %v", sql, err)
		}
		if _, err := plan.Exec(); err == nil {
			t.Fatalf("%q: Exec should fail", sql)
		}
	}
}

// TestJoinErrorOrder pins the FROM operator's error order for JOIN levels.
// The interpreter evaluates every ON of a level before the WHERE, so an ON
// error on a later prefix (T.p = 3) wins over a WHERE error on an earlier
// row (T.p = 1), although the last level evaluates the WHERE as it goes.
func TestJoinErrorOrder(t *testing.T) {
	db := testDB()
	for _, sql := range []string{
		`SELECT T.p FROM T JOIN emp ON T.p < 3 OR emp.dept / 1 > 0 WHERE nosuch(T.p) = 1`,
		`SELECT T.p FROM T LEFT JOIN emp ON T.p < 3 OR emp.dept / 1 > 0 WHERE nosuch(T.p) = 1`,
		`SELECT T.p FROM T, emp RIGHT JOIN dept ON T.p < 3 OR dept.city / 1 > 0 WHERE nosuch(T.p) = 1`,
	} {
		checkExecEquivalence(t, db, sql)
		if _, err := planExec(t, db, sql, Prepare); err == nil || !strings.Contains(err.Error(), "arithmetic") {
			t.Fatalf("%s: err = %v, want the ON's arithmetic error", sql, err)
		}
	}
	// Without an ON error the first WHERE error surfaces.
	checkExecEquivalence(t, db, `SELECT T.p FROM T JOIN emp ON T.p < 3 WHERE nosuch(T.p) = 1`)
}

func TestPlanStaleAfterDBMutation(t *testing.T) {
	db := testDB()
	plan, err := Prepare(db, sqlparser.MustParse(`SELECT p FROM T`))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stale() {
		t.Fatal("fresh plan reported stale")
	}
	if _, err := plan.Exec(); err != nil {
		t.Fatal(err)
	}
	db.Add(&Table{Name: "T", Cols: []string{"p"}, Types: []ColType{TNum}})
	if !plan.Stale() {
		t.Fatal("plan not stale after db.Add")
	}
	if _, err := plan.Exec(); err == nil {
		t.Fatal("stale plan executed without error")
	}
}

func TestPlanColsTypesKnownBeforeExec(t *testing.T) {
	db := testDB()
	plan, err := Prepare(db, sqlparser.MustParse(`SELECT dept, count(*) AS n FROM emp GROUP BY dept`))
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Cols(); !reflect.DeepEqual(got, []string{"dept", "n"}) {
		t.Fatalf("cols = %v", got)
	}
	if got := plan.Types(); !reflect.DeepEqual(got, []ColType{TStr, TNum}) {
		t.Fatalf("types = %v", got)
	}
	res := planRun(t, db, `SELECT dept, count(*) AS n FROM emp GROUP BY dept`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// BenchmarkExecInterpreted/BenchmarkExecPlanned quantify what Prepare buys
// on one workload-shaped grouped aggregate (plan compiled once, run many).
func benchQuery() string {
	return `SELECT p, count(*), sum(b) FROM T WHERE a BETWEEN 1 AND 2 GROUP BY p ORDER BY p`
}

func BenchmarkExecInterpreted(b *testing.B) {
	db := testDB()
	ast := sqlparser.MustParse(benchQuery())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(db, ast); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecPlanned(b *testing.B) {
	db := testDB()
	plan, err := Prepare(db, sqlparser.MustParse(benchQuery()))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Exec(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFoldLiteralCalls checks the Prepare-time fold of literal-only calls in
// WHERE and ON. The Covid dashboard's date-windowed reads fold
// date(today(), …) into a literal, so state = … reaches the index chooser and
// the columnar path. A call that errors or returns NULL stays a call, with
// the interpreter's error text and its FALSE-before-error order. A call in a
// select item is not rewritten, so its column keeps its name.
func TestFoldLiteralCalls(t *testing.T) {
	cdb := covidDB(40) // 2,000 rows: past the index cost gate
	n := 0
	for _, sql := range workload.Covid().Queries {
		if !strings.Contains(sql, "today()") {
			continue
		}
		n++
		ex := planFor(t, cdb, sql, Prepare).Explain()
		if !strings.Contains(ex, "scan covid [index-scan(state) → vectorized-filter, 2 pushed pred(s)") {
			t.Errorf("%s: want index-scan(state) → vectorized-filter, got\n%s", sql, ex)
		}
		checkExecEquivalence(t, cdb, sql)
	}
	if n != 5 {
		t.Fatalf("found %d Covid date-window queries, want 5", n)
	}

	db := testDB()
	c := &compiler{db: db}
	// fold folds the WHERE of a query over events, whose one conjunct is
	// expr, and returns the folded conjunct and the unchanged WHERE.
	fold := func(expr string) (got, where *dt.Node) {
		where = sqlparser.MustParse(`SELECT n FROM events WHERE ` + expr).Children[2].Children[0]
		return c.foldCalls(where).Children[0], where
	}
	for _, tc := range []struct {
		expr string
		kind dt.Kind
		lit  string
	}{
		{`date(today(), '-30 days')`, dt.KindString, "2020-12-01"},
		{`lower(upper('Ops'))`, dt.KindString, "ops"},
		{`lower(1)`, dt.KindString, "1"},
		{`abs(-3)`, dt.KindNumber, "3"},
		{`round(2.5)`, dt.KindNumber, "3"},
		{`abs(-0)`, dt.KindNumber, "-0"},
		{`abs(-0.1)`, dt.KindNumber, "0.1"},
	} {
		got, where := fold(tc.expr)
		if got.Kind != tc.kind || got.Label != tc.lit || len(got.Children) != 0 {
			t.Errorf("%s folded to %v %q, want %v %q", tc.expr, got.Kind, got.Label, tc.kind, tc.lit)
		}
		if w := sqlparser.ToSQL(where); !strings.Contains(w, tc.expr) {
			t.Errorf("%s: the fold rewrote the query's own WHERE: %s", tc.expr, w)
		}
	}
	for _, expr := range []string{
		`date('bad', '-1 days')`,        // errors
		`date(today(), '3 fortnights')`, // errors after its argument folds
		`abs('x')`,                      // NULL
		`abs()`,                         // arity error
		`abs(n)`,                        // reads a column
		`nosuch(1)`,                     // unknown function
	} {
		if got, _ := fold(expr); got.Kind != dt.KindFunc {
			t.Errorf("%s folded to %v %q, want it to stay a call", expr, got.Kind, got.Label)
		}
	}

	for _, tc := range []struct{ sql, err string }{
		{`SELECT n FROM events WHERE n >= 0 AND day > date('bad', '-1 days')`, `engine: bad date "bad"`},
		{`SELECT n FROM events WHERE n >= 0 AND day > date(today(), '3 fortnights')`, `engine: bad date unit "fortnights"`},
		// FALSE before the error: the call never runs.
		{`SELECT n FROM events WHERE n > 100 AND day > date('bad', '-1 days')`, ""},
		{`SELECT n FROM events WHERE n = abs('x')`, ""},
	} {
		checkExecEquivalence(t, db, tc.sql)
		_, err := planExec(t, db, tc.sql, Prepare)
		if got := fmt.Sprint(err); (tc.err == "" && err != nil) || (tc.err != "" && got != tc.err) {
			t.Errorf("%s: err = %v, want %q", tc.sql, err, tc.err)
		}
	}

	// An ON whose only impure conjunct was the date() call now hashes.
	on := `SELECT e.id FROM emp e JOIN events v ON e.id = v.n AND v.day > date(today(), '-20 days')`
	checkExecEquivalence(t, db, on)
	if ex := planFor(t, db, on, Prepare).Explain(); !strings.Contains(ex, "join inner v: hash build=v") {
		t.Errorf("%s: want a hash join, got\n%s", on, ex)
	}

	sel := `SELECT date(today(), '-1 days'), lower('X'), abs(-3) FROM events`
	checkExecEquivalence(t, db, sel)
	if got, want := planFor(t, db, sel, Prepare).Cols(), []string{"date", "lower", "abs"}; !reflect.DeepEqual(got, want) {
		t.Errorf("select-item names = %v, want %v", got, want)
	}
}

// A subquery that re-runs once per outer row computes its outer-invariant
// selection once per Exec: the index probe that seeds it runs once per Exec,
// not once per outer row, and a second Exec probes again (nothing is kept
// between Execs).
func TestSubqueryScanOncePerExec(t *testing.T) {
	db := bigDB()
	sql := `SELECT o.k FROM big AS o WHERE o.v > (SELECT max(b.v) FROM big AS b WHERE b.k = 3)`
	checkExecEquivalence(t, db, sql)
	plan := planFor(t, db, sql, prepareForceIndex)
	for run := 1; run <= 2; run++ {
		h0 := db.IndexCounters().Hits
		if _, err := plan.Exec(); err != nil {
			t.Fatal(err)
		}
		if hits := db.IndexCounters().Hits - h0; hits != 1 {
			t.Fatalf("exec %d probed the index %d times over 200 outer rows, want 1", run, hits)
		}
	}
}
