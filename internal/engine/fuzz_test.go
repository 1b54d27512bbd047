package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	dt "pi2/internal/difftree"
	"pi2/internal/sqlparser"
)

// FuzzExecEquivalence cross-checks the three execution paths on randomly
// generated queries: the interpreter (the executable specification), the
// compiled plan (columnar batch execution whenever the query shape is
// vectorizable, else the row-path FROM operator: pushdown, hash joins, outer
// joins; tagged keys, top-K) and the forced-index plan (every semantically
// legal index path taken, cost model bypassed, so index candidates also
// seed the columnar selections) must return identical tables — same
// columns, same types, same rows in the same order — or fail with the same
// error.
//
// Each seed is checked against the freshly-loaded database and again after
// each of a seed-derived series of DB.Append batches, so the equivalence
// contract is pinned before and after writes — the three paths must agree on
// the appended rows exactly as they agree on the loaded ones, whether the
// access structures were extended from a snapshot the paths had read or from
// a chain of snapshots nobody read.
//
// The generator derives everything from one seed, so every corpus entry is
// reproducible; `go test -run Fuzz` replays the seed corpus in CI.
func FuzzExecEquivalence(f *testing.F) {
	for seed := int64(0); seed < 96; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		// A fresh DB per seed: appends below mutate tables, and seeds must
		// stay independent and reproducible in isolation.
		db := testDB()
		r := rand.New(rand.NewSource(seed))
		sql := genQuery(r)
		checkExecEquivalence(t, db, sql)
		genAppends(t, db, r, func() { checkExecEquivalence(t, db, sql) })
	})
}

// genOddCells are cells a batch to T may carry in place of a generated
// one: the first string of an all-numeric column (numeric-looking or not),
// NaN, -0, NULL, and a key new to every column of T.
var genOddCells = []Value{StrVal("1"), StrVal("x"), NumVal(math.NaN()), NumVal(math.Copysign(0, -1)), NullVal(), NumVal(7)}

// genAppends applies 1-3 random append batches to the generator tables and
// calls check after each. A batch to T is sometimes written as one Append
// per row, so the rows between checks form a chain of snapshots nobody
// read. All randomness flows from r, so a seed fully determines the writes.
func genAppends(t *testing.T, db *DB, r *rand.Rand, check func()) {
	t.Helper()
	depts := []string{"eng", "ops", "hr"}
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		var err error
		switch r.Intn(4) {
		case 0:
			rows := make([][]Value, 1+r.Intn(3))
			for j := range rows {
				rows[j] = []Value{NumVal(float64(r.Intn(5))), NumVal(float64(r.Intn(4))), NumVal(float64(r.Intn(4)))}
				if r.Intn(6) == 0 {
					rows[j][1] = NullVal()
				}
				if r.Intn(3) == 0 {
					rows[j][r.Intn(3)] = genOddCells[r.Intn(len(genOddCells))]
				}
			}
			if r.Intn(2) == 0 {
				err = db.Append("T", rows)
				break
			}
			for _, row := range rows {
				if err = db.Append("T", [][]Value{row}); err != nil {
					break
				}
			}
		case 1:
			err = db.Append("emp", [][]Value{
				{NumVal(float64(5 + r.Intn(20))), StrVal(depts[r.Intn(len(depts))]), NumVal(float64(60 + r.Intn(80)))},
			})
		case 2:
			err = db.Append("dept", [][]Value{{StrVal(depts[r.Intn(len(depts))]), StrVal("LA")}})
		default:
			err = db.Append("events", [][]Value{
				{StrVal(fmt.Sprintf("2020-12-%02d", 1+r.Intn(28))), NumVal(float64(r.Intn(12)))},
			})
		}
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		check()
	}
}

// checkExecEquivalence runs one SQL statement through the interpreter,
// Prepare and prepareForceIndex and compares outcomes bit for bit.
func checkExecEquivalence(t *testing.T, db *DB, sql string) {
	t.Helper()
	ast, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("generator produced unparsable SQL %q: %v", sql, err)
	}
	interp, interpErr := Exec(db, ast)

	modes := []struct {
		name string
		prep func(*DB, *dt.Node) (*Plan, error)
	}{
		{"compiled plan", Prepare},
		{"forced-index plan", prepareForceIndex},
	}
	for _, m := range modes {
		name := m.name
		plan, err := m.prep(db, ast)
		if err != nil {
			t.Fatalf("%s: prepare error %v for %q", name, err, sql)
		}
		got, gotErr := plan.Exec()
		if (interpErr != nil) != (gotErr != nil) {
			t.Fatalf("%s: error mismatch for %q:\n  interpreter: %v\n  plan:        %v",
				name, sql, interpErr, gotErr)
		}
		if interpErr != nil {
			if interpErr.Error() != gotErr.Error() {
				t.Fatalf("%s: error text mismatch for %q:\n  interpreter: %v\n  plan:        %v",
					name, sql, interpErr, gotErr)
			}
			continue
		}
		if !reflect.DeepEqual(interp.Cols, got.Cols) || !reflect.DeepEqual(interp.Types, got.Types) {
			t.Fatalf("%s: header mismatch for %q:\n  interpreter: %v %v\n  plan:        %v %v",
				name, sql, interp.Cols, interp.Types, got.Cols, got.Types)
		}
		if len(interp.Rows) != len(got.Rows) {
			t.Fatalf("%s: row count mismatch for %s: interpreter %d, plan %d",
				name, sql, len(interp.Rows), len(got.Rows))
		}
		for ri := range interp.Rows {
			if !sameRow(interp.Rows[ri], got.Rows[ri]) {
				t.Fatalf("%s: row %d mismatch for %q:\n  interpreter: %v\n  plan:        %v",
					name, ri, sql, interp.Rows[ri], got.Rows[ri])
			}
		}
	}
}

// sameRow is reflect.DeepEqual over two result rows, except that a NaN cell
// equals a NaN cell (DeepEqual compares floats with ==, so a row holding NaN
// never equals itself).
func sameRow(a, b []Value) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Num != x.Num && y.Num != y.Num {
			x.Num, y.Num = 0, 0
		}
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// --- random query generator -------------------------------------------------

// genTable describes one generator-visible table of testDB.
type genTable struct {
	name    string
	numCols []string
	strCols []string
}

var genTables = []genTable{
	{name: "T", numCols: []string{"p", "a", "b"}},
	{name: "emp", numCols: []string{"id", "salary"}, strCols: []string{"dept"}},
	{name: "dept", strCols: []string{"name", "city"}},
	{name: "events", numCols: []string{"n"}, strCols: []string{"day"}},
}

// genStrLits includes values that exist in the data, values that don't, a
// numeric-looking string (exercising the `=` num/str coercion in joins and
// the type-tagged separation in GROUP BY/DISTINCT) and a LIKE pattern.
var genStrLits = []string{"eng", "ops", "NYC", "SF", "nope", "1", "2020-12-15", "e%"}

type genSource struct {
	alias   string
	tbl     genTable
	derived string // non-empty: a derived-table SQL exposing tbl's columns
}

// genQuery builds one random SELECT over testDB's schema. All randomness
// flows from r, so a seed fully determines the query.
func genQuery(r *rand.Rand) string {
	var sb strings.Builder
	nSrc := 1 + r.Intn(3)
	srcs := make([]genSource, nSrc)
	for i := range srcs {
		srcs[i] = genSource{alias: fmt.Sprintf("s%d", i), tbl: genTables[r.Intn(len(genTables))]}
		if r.Intn(5) == 0 {
			// Derived table exposing the same columns, so the rest of the
			// generator needs no special handling.
			cond := ""
			if len(srcs[i].tbl.numCols) > 0 && r.Intn(2) == 0 {
				cond = fmt.Sprintf(" WHERE %s > %d", srcs[i].tbl.numCols[0], r.Intn(40))
			}
			srcs[i].derived = fmt.Sprintf("(SELECT * FROM %s%s)", srcs[i].tbl.name, cond)
		}
	}

	numCol := func(s genSource) (string, bool) {
		if len(s.tbl.numCols) == 0 {
			return "", false
		}
		return s.alias + "." + s.tbl.numCols[r.Intn(len(s.tbl.numCols))], true
	}
	strCol := func(s genSource) (string, bool) {
		if len(s.tbl.strCols) == 0 {
			return "", false
		}
		return s.alias + "." + s.tbl.strCols[r.Intn(len(s.tbl.strCols))], true
	}
	anyCol := func(s genSource) string {
		if c, ok := numCol(s); ok && r.Intn(2) == 0 {
			return c
		}
		if c, ok := strCol(s); ok {
			return c
		}
		c, _ := numCol(s)
		return c
	}
	src := func() genSource { return srcs[r.Intn(len(srcs))] }

	// FROM clause: each source after the first attaches by comma or by a
	// join flavor with a generated ON condition over the bound prefix.
	srcPart := func(i int) string {
		from := srcs[i].tbl.name
		if srcs[i].derived != "" {
			from = srcs[i].derived
		}
		return fmt.Sprintf("%s AS %s", from, srcs[i].alias)
	}
	joinOn := func(i int) string {
		prev, cur := srcs[r.Intn(i)], srcs[i]
		var conds []string
		switch r.Intn(4) {
		case 0, 1: // equi condition (hash-join candidate)
			conds = append(conds, fmt.Sprintf("%s = %s", anyCol(prev), anyCol(cur)))
		case 2: // non-equi cross condition (nested-loop fallback)
			conds = append(conds, fmt.Sprintf("%s <= %s", anyCol(prev), anyCol(cur)))
		default: // build-side-only predicate
			if c, ok := numCol(cur); ok {
				conds = append(conds, fmt.Sprintf("%s > %d", c, r.Intn(100)))
			} else {
				conds = append(conds, fmt.Sprintf("%s = %s", anyCol(prev), anyCol(cur)))
			}
		}
		switch r.Intn(4) {
		case 0: // impure extra conjunct: forces the whole ON residual
			if c, ok := numCol(cur); ok {
				conds = append(conds, fmt.Sprintf("%s + %d < %d", c, r.Intn(5), r.Intn(120)))
			}
		case 1:
			if c, ok := strCol(cur); ok {
				conds = append(conds, fmt.Sprintf("%s LIKE '%s'", c, genStrLits[r.Intn(len(genStrLits))]))
			}
		case 2: // literal-only call: folds at Prepare, errors, or is NULL
			conds = append(conds, litCallConj(r, cur, numCol, strCol))
		}
		return strings.Join(conds, " AND ")
	}
	fromSQL := srcPart(0)
	for i := 1; i < nSrc; i++ {
		if r.Intn(5) < 2 {
			fromSQL += ", " + srcPart(i)
			continue
		}
		flavors := []string{"JOIN", "INNER JOIN", "LEFT JOIN", "LEFT OUTER JOIN",
			"RIGHT JOIN", "RIGHT OUTER JOIN", "FULL JOIN", "FULL OUTER JOIN"}
		fromSQL += fmt.Sprintf(" %s %s ON %s", flavors[r.Intn(len(flavors))], srcPart(i), joinOn(i))
	}

	// WHERE conjuncts, mixing pushable, equi-join, cross-source and residual
	// shapes (arithmetic, subqueries) in random order.
	var conjs []string
	for i, n := 0, r.Intn(4); i < n; i++ {
		switch r.Intn(9) {
		case 0: // single-source numeric comparison (pushdown candidate)
			if c, ok := numCol(src()); ok {
				ops := []string{"<", "<=", ">", ">=", "=", "<>"}
				conjs = append(conjs, fmt.Sprintf("%s %s %d", c, ops[r.Intn(len(ops))], r.Intn(120)))
			}
		case 1: // single-source string predicate
			if c, ok := strCol(src()); ok {
				lit := genStrLits[r.Intn(len(genStrLits))]
				if r.Intn(2) == 0 {
					conjs = append(conjs, fmt.Sprintf("%s = '%s'", c, lit))
				} else {
					conjs = append(conjs, fmt.Sprintf("%s LIKE '%s'", c, lit))
				}
			}
		case 2: // BETWEEN (pushdown candidate)
			if c, ok := numCol(src()); ok {
				lo := r.Intn(80)
				conjs = append(conjs, fmt.Sprintf("%s BETWEEN %d AND %d", c, lo, lo+r.Intn(60)))
			}
		case 3: // IN list, sometimes mixing a numeric-text string
			c := anyCol(src())
			conjs = append(conjs, fmt.Sprintf("%s IN (1, 2, '%s')", c, genStrLits[r.Intn(len(genStrLits))]))
		case 4: // equi-join conjunct (hash join candidate), any column types
			if nSrc >= 2 {
				a, b := srcs[r.Intn(nSrc)], srcs[r.Intn(nSrc)]
				conjs = append(conjs, fmt.Sprintf("%s = %s", anyCol(a), anyCol(b)))
			}
		case 5: // arithmetic: impure, must stay residual
			if c, ok := numCol(src()); ok {
				conjs = append(conjs, fmt.Sprintf("%s + %d > %d", c, r.Intn(10), r.Intn(100)))
			}
		case 6: // non-equi cross-source comparison (batch cross predicate)
			if nSrc >= 2 {
				a, b := srcs[0], srcs[nSrc-1]
				conjs = append(conjs, fmt.Sprintf("%s <= %s", anyCol(a), anyCol(b)))
			}
		case 7: // scalar subquery (residual) or a date(today(), …) bound (folded)
			if r.Intn(3) == 0 {
				s := src()
				if c, ok := strCol(s); ok && s.tbl.name == "events" {
					conjs = append(conjs, fmt.Sprintf("%s > date(today(), '-%d days')", c, 5+r.Intn(40)))
					break
				}
			}
			if c, ok := numCol(src()); ok {
				sub := "SELECT max(salary) FROM emp"
				if r.Intn(2) == 0 {
					sub = fmt.Sprintf("SELECT min(n) + %d FROM events", r.Intn(50))
				}
				conjs = append(conjs, fmt.Sprintf("%s <= (%s)", c, sub))
			}
		case 8: // literal-only call: folds at Prepare, errors, or is NULL
			conjs = append(conjs, litCallConj(r, src(), numCol, strCol))
		}
	}

	grouped := r.Intn(3) == 0
	sb.WriteString("SELECT ")
	if !grouped && r.Intn(4) == 0 {
		sb.WriteString("DISTINCT ")
	}

	var orderCols []string
	if grouped {
		gsrc := src()
		gcol := anyCol(gsrc)
		aggCol, ok := numCol(gsrc)
		if !ok {
			aggCol = gcol
		}
		aggs := []string{"count(*)", "count(%s)", "sum(%s)", "avg(%s)", "min(%s)", "max(%s)"}
		pickAgg := func() string {
			agg := aggs[r.Intn(len(aggs))]
			if strings.Contains(agg, "%s") {
				agg = fmt.Sprintf(agg, aggCol)
			}
			return agg
		}
		agg := pickAgg()
		fmt.Fprintf(&sb, "%s, %s AS m", gcol, agg)
		// An item computed over an aggregate; arithmetic on a string min or
		// max, and a sum over a string column, error per group.
		if r.Intn(3) == 0 {
			calc := []string{"count(*) * 2", fmt.Sprintf("sum(%s) + 1", aggCol), agg + " - 1"}[r.Intn(3)]
			fmt.Fprintf(&sb, ", %s AS m2", calc)
		}
		fmt.Fprintf(&sb, " FROM %s", fromSQL)
		writeWhere(&sb, conjs)
		fmt.Fprintf(&sb, " GROUP BY %s", gcol)
		switch r.Intn(4) {
		case 0:
			fmt.Fprintf(&sb, " HAVING %s >= %d", agg, r.Intn(3))
		case 1: // two conjuncts: which one errors first, or short-circuits, is order-sensitive
			first := fmt.Sprintf("%s >= %d", agg, r.Intn(3))
			second := fmt.Sprintf("%s < %d", pickAgg(), r.Intn(6))
			if c, ok := strCol(gsrc); ok && r.Intn(2) == 0 {
				second = fmt.Sprintf("sum(%s) > 0", c)
			}
			if r.Intn(2) == 0 {
				first, second = second, first
			}
			fmt.Fprintf(&sb, " HAVING %s %s %s", first, []string{"AND", "OR"}[r.Intn(2)], second)
		case 2: // scalar subquery correlated on the group key
			q := genSource{alias: "q", tbl: genTables[r.Intn(len(genTables))]}
			fmt.Fprintf(&sb, " HAVING %s >= (SELECT count(*) FROM %s AS q WHERE %s = %s)", agg, q.tbl.name, anyCol(q), gcol)
		}
		orderCols = []string{gcol, agg, agg + " * 2"}
	} else {
		nItems := 1 + r.Intn(2)
		var items []string
		for i := 0; i < nItems; i++ {
			items = append(items, anyCol(src()))
		}
		if r.Intn(5) == 0 {
			items = append(items, "*")
		}
		sb.WriteString(strings.Join(items, ", "))
		fmt.Fprintf(&sb, " FROM %s", fromSQL)
		writeWhere(&sb, conjs)
		orderCols = items[:len(items)-boolToInt(items[len(items)-1] == "*")]
	}

	if len(orderCols) > 0 && r.Intn(2) == 0 {
		oc := orderCols[r.Intn(len(orderCols))]
		dir := ""
		if r.Intn(2) == 0 {
			dir = " DESC"
		}
		fmt.Fprintf(&sb, " ORDER BY %s%s", oc, dir)
	}
	if r.Intn(2) == 0 {
		fmt.Fprintf(&sb, " LIMIT %d", r.Intn(8))
	}
	return sb.String()
}

// litCallConj compares a column of s with a literal-only call. Prepare folds
// the first kind (date(today(), …) against a string column, lower/upper of a
// string, abs/round of a number) into a literal; the others must stay calls:
// date() of a bad date or a bad unit errors, abs() of a string is NULL.
func litCallConj(r *rand.Rand, s genSource, numCol, strCol func(genSource) (string, bool)) string {
	ops := []string{"<", "<=", ">", ">=", "=", "<>"}
	op := ops[r.Intn(len(ops))]
	c, isNum := numCol(s)
	if !isNum || (r.Intn(2) == 0 && len(s.tbl.strCols) > 0) {
		c, _ = strCol(s)
		isNum = false
	}
	var call string
	switch k := r.Intn(8); {
	case k == 0:
		call = "date('bad', '-1 days')"
	case k == 1:
		call = "date(today(), '3 fortnights')"
	case k == 2:
		call = "abs('x')"
	case isNum:
		call = []string{"abs(-3)", "abs(-2.5)", "round(2.5)", "abs(round(-7.25))", "abs(-0)"}[r.Intn(5)]
	default:
		call = []string{
			fmt.Sprintf("date(today(), '-%d days')", 5+r.Intn(40)),
			"lower('ENG')", "upper('nyc')", "lower(upper('Ops'))",
		}[r.Intn(4)]
	}
	return fmt.Sprintf("%s %s %s", c, op, call)
}

func writeWhere(sb *strings.Builder, conjs []string) {
	if len(conjs) == 0 {
		return
	}
	fmt.Fprintf(sb, " WHERE %s", strings.Join(conjs, " AND "))
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestExecEquivalenceSeeds drives the fuzz body over a broad deterministic
// seed range so plain `go test` (and CI without fuzzing) still exercises
// thousands of generated queries.
func TestExecEquivalenceSeeds(t *testing.T) {
	db := testDB()
	n := int64(4000)
	if testing.Short() {
		n = 800
	}
	for seed := int64(0); seed < n; seed++ {
		sql := genQuery(rand.New(rand.NewSource(seed)))
		checkExecEquivalence(t, db, sql)
	}
}

// TestExecEquivalenceAfterAppend replays a deterministic seed range through
// the fuzz body — a check before the writes and after each append batch —
// so plain `go test` also covers live-append equivalence without the fuzz
// engine.
func TestExecEquivalenceAfterAppend(t *testing.T) {
	n := int64(600)
	if testing.Short() {
		n = 150
	}
	for seed := int64(0); seed < n; seed++ {
		db := testDB()
		r := rand.New(rand.NewSource(seed))
		sql := genQuery(r)
		checkExecEquivalence(t, db, sql)
		genAppends(t, db, r, func() { checkExecEquivalence(t, db, sql) })
	}
}
