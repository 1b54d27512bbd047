package engine

// Regression tests for the three-valued NULL contract (comparisons, AND/OR/
// NOT, BETWEEN, IN, LIKE) and for outer-join emission. Every SQL-level case
// runs through checkExecEquivalence first, so the interpreter and every
// compiled path (pipeline, forced-index, forced-vec) are asserted bit-for-bit
// identical before the expected rows are checked against the interpreter.

import (
	"reflect"
	"strings"
	"testing"
)

// nullJoinDB builds tables with NULLs in predicate and join-key positions:
//
//	L: (1,10) (2,NULL) (3,30) (4,40)
//	R: (10,'ten') (NULL,'null-key') (30,'thirty') (30,'thirty-b') (99,'noL')
//	nv: (1,1,'x') (2,NULL,'y') (3,3,NULL)
func nullJoinDB() *DB {
	db := NewDB("2020-12-31")
	db.Add(&Table{
		Name:  "L",
		Cols:  []string{"id", "k"},
		Types: []ColType{TNum, TNum},
		Rows: [][]Value{
			{NumVal(1), NumVal(10)},
			{NumVal(2), NullVal()},
			{NumVal(3), NumVal(30)},
			{NumVal(4), NumVal(40)},
		},
	})
	db.Add(&Table{
		Name:  "R",
		Cols:  []string{"k", "v"},
		Types: []ColType{TNum, TStr},
		Rows: [][]Value{
			{NumVal(10), StrVal("ten")},
			{NullVal(), StrVal("null-key")},
			{NumVal(30), StrVal("thirty")},
			{NumVal(30), StrVal("thirty-b")},
			{NumVal(99), StrVal("noL")},
		},
	})
	db.Add(&Table{
		Name:  "nv",
		Cols:  []string{"id", "a", "s"},
		Types: []ColType{TNum, TNum, TStr},
		Rows: [][]Value{
			{NumVal(1), NumVal(1), StrVal("x")},
			{NumVal(2), NullVal(), StrVal("y")},
			{NumVal(3), NumVal(3), NullVal()},
		},
	})
	return db
}

// expectRows asserts all five execution paths agree on sql and that the
// result renders (Text, pipe-joined) exactly as want, in order.
func expectRows(t *testing.T, db *DB, sql string, want []string) {
	t.Helper()
	checkExecEquivalence(t, db, sql)
	res := run(t, db, sql)
	got := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.Text()
		}
		got[i] = strings.Join(parts, "|")
	}
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n  got  %v\n  want %v", sql, got, want)
	}
}

// --- three-valued logic ------------------------------------------------------

func TestNullComparisonThreeValued(t *testing.T) {
	db := nullJoinDB()
	// A NULL comparison is NULL, and NOT(NULL) stays NULL: the row with
	// a = NULL must not leak through the negation.
	expectRows(t, db, "SELECT id FROM nv WHERE a = 1", []string{"1"})
	expectRows(t, db, "SELECT id FROM nv WHERE NOT (a = 1)", []string{"3"})
	// Excluded middle fails on NULL: neither branch admits row 2.
	expectRows(t, db, "SELECT id FROM nv WHERE a = 1 OR NOT (a = 1)", []string{"1", "3"})
	// Kleene OR: NULL OR TRUE is TRUE, so row 2 qualifies via s = 'y'.
	expectRows(t, db, "SELECT id FROM nv WHERE a <> 1 OR s = 'y'", []string{"2", "3"})
	// Kleene AND: NULL AND NULL is NULL, filtered out.
	expectRows(t, db, "SELECT id FROM nv WHERE a <> 1 AND a <> 99", []string{"3"})
}

func TestNullBetween(t *testing.T) {
	db := nullJoinDB()
	// Every non-NULL a is in [0,5] and the NULL one yields NULL, so the
	// negation admits nothing.
	expectRows(t, db, "SELECT id FROM nv WHERE NOT (a BETWEEN 0 AND 5)", nil)
	// A definite bound failure beats a NULL on the other bound: 10 > 5 makes
	// the BETWEEN FALSE for every row, including a = NULL.
	expectRows(t, db, "SELECT id FROM nv WHERE NOT (10 BETWEEN a AND 5)", []string{"1", "2", "3"})
}

func TestInListNull(t *testing.T) {
	db := nullJoinDB()
	// Without the NULL element the negated IN admits every row.
	expectRows(t, db, "SELECT id FROM nv WHERE NOT (5 IN (1))", []string{"1", "2", "3"})
	// With a NULL element (via column a on row 2) the verdict for that row
	// becomes NULL, not FALSE — so NOT flips it to NULL, not TRUE.
	expectRows(t, db, "SELECT id FROM nv WHERE NOT (5 IN (1, a))", []string{"1", "3"})
	expectRows(t, db, "SELECT id FROM nv WHERE 5 IN (1, a)", nil)
	// NULL operand: row 2's membership test is NULL either way.
	expectRows(t, db, "SELECT id FROM nv WHERE NOT (a IN (1, 2))", []string{"3"})
	// Subquery list containing NULL: no definite match ever becomes a
	// definite non-match, so the negation admits nothing.
	expectRows(t, db, "SELECT id FROM nv WHERE NOT (a IN (SELECT k FROM R))", nil)
}

func TestLikeNullOperand(t *testing.T) {
	db := nullJoinDB()
	// s = NULL on row 3: LIKE is NULL, NOT keeps it NULL, row stays out.
	expectRows(t, db, "SELECT id FROM nv WHERE NOT (s LIKE 'x%')", []string{"2"})
}

func TestLikeMatchEdgeCases(t *testing.T) {
	cases := []struct {
		s, pattern string
		want       bool
	}{
		// empty pattern / empty string
		{"", "", true},
		{"", "%", true},
		{"", "%%", true},
		{"", "_", false},
		{"a", "", false},
		// wildcards
		{"abc", "a%", true},
		{"abc", "%c", true},
		{"abc", "a_c", true},
		{"abc", "___", true},
		{"abc", "____", false},
		{"abc", "%%%", true},
		{"abc", "%b%", true},
		{"abc", "_%_", true},
		// backslash escapes: \% and \_ match the literal character
		{"a%c", `a\%c`, true},
		{"abc", `a\%c`, false},
		{"a_c", `a\_c`, true},
		{"axc", `a\_c`, false},
		{"%", `\%`, true},
		{"x", `\%`, false},
		// escaped backslash, and a trailing lone backslash stays literal
		{`a\c`, `a\\c`, true},
		{`\`, `\\`, true},
		{`a\`, `a\`, true},
		{"a", `a\`, false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.pattern); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.pattern, got, c.want)
		}
	}
}

// --- outer joins -------------------------------------------------------------

func TestInnerJoinNullKeysNeverMatch(t *testing.T) {
	expectRows(t, nullJoinDB(),
		"SELECT l.id, r.v FROM L AS l JOIN R AS r ON l.k = r.k",
		[]string{"1|ten", "3|thirty", "3|thirty-b"})
}

func TestLeftJoinPadding(t *testing.T) {
	db := nullJoinDB()
	// Unmatched probe rows (including the NULL-key one) pad in place,
	// preserving L's scan order.
	expectRows(t, db,
		"SELECT l.id, r.v FROM L AS l LEFT JOIN R AS r ON l.k = r.k",
		[]string{"1|ten", "2|NULL", "3|thirty", "3|thirty-b", "4|NULL"})
	// WHERE applies after padding, never below the join.
	expectRows(t, db,
		"SELECT l.id, r.v FROM L AS l LEFT JOIN R AS r ON l.k = r.k WHERE r.v = 'ten'",
		[]string{"1|ten"})
}

func TestLeftJoinResidualConjunct(t *testing.T) {
	// Equi key plus a pure residual: the residual must narrow the match set
	// before the padding decision, so id 3 keeps only 'thirty-b'.
	expectRows(t, nullJoinDB(),
		"SELECT l.id, r.v FROM L AS l LEFT JOIN R AS r ON l.k = r.k AND r.v <> 'thirty'",
		[]string{"1|ten", "2|NULL", "3|thirty-b", "4|NULL"})
}

func TestRightJoinPadding(t *testing.T) {
	// Matched rows first in probe order, then R's unmatched rows — the
	// NULL-key build row among them — appended in R's scan order.
	expectRows(t, nullJoinDB(),
		"SELECT l.id, r.v FROM L AS l RIGHT JOIN R AS r ON l.k = r.k",
		[]string{"1|ten", "3|thirty", "3|thirty-b", "NULL|null-key", "NULL|noL"})
}

func TestFullJoinPadding(t *testing.T) {
	expectRows(t, nullJoinDB(),
		"SELECT l.id, r.v FROM L AS l FULL JOIN R AS r ON l.k = r.k",
		[]string{"1|ten", "2|NULL", "3|thirty", "3|thirty-b", "4|NULL", "NULL|null-key", "NULL|noL"})
}

func TestLeftJoinNonEquiOn(t *testing.T) {
	// No equi conjunct: the compiled path falls back to a filtered nested
	// loop. The NULL key compares NULL against everything and pads.
	expectRows(t, nullJoinDB(),
		"SELECT l.id, r.v FROM L AS l LEFT JOIN R AS r ON l.k < r.k",
		[]string{"1|thirty", "1|thirty-b", "1|noL", "2|NULL", "3|noL", "4|noL"})
}

func TestLeftJoinOnTestDB(t *testing.T) {
	// Mixed equi + residual over the shared fixture: ops has no employee
	// above 95 and pads.
	expectRows(t, testDB(),
		"SELECT d.name, e.id FROM dept AS d LEFT JOIN emp AS e ON e.dept = d.name AND e.salary > 95",
		[]string{"eng|1", "eng|2", "ops|NULL"})
}
