package engine_test

// Golden cross-check for the compiled plan path: for every query in every
// workload log, planned execution must return a table identical to the
// interpreted Exec path — same column names, same types, same rows,
// bit-for-bit. This is the safety net that lets the serving hot path run on
// plans while the interpreter remains the executable specification.

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"pi2/internal/dataset"
	"pi2/internal/engine"
	"pi2/internal/sqlparser"
	"pi2/internal/workload"
)

func TestPlannedExecutionMatchesInterpreterOnAllWorkloads(t *testing.T) {
	db := dataset.NewDB()
	for _, log := range workload.All() {
		for qi, sql := range log.Queries {
			ast, err := sqlparser.Parse(sql)
			if err != nil {
				t.Fatalf("%s[%d]: parse: %v", log.Name, qi, err)
			}
			direct, directErr := engine.Exec(db, ast)
			plan, prepErr := engine.Prepare(db, ast)
			if prepErr != nil {
				t.Fatalf("%s[%d]: prepare: %v", log.Name, qi, prepErr)
			}
			planned, plannedErr := plan.Exec()
			if (directErr != nil) != (plannedErr != nil) {
				t.Fatalf("%s[%d]: error mismatch: interpreter=%v planned=%v",
					log.Name, qi, directErr, plannedErr)
			}
			if directErr != nil {
				continue
			}
			if !reflect.DeepEqual(direct.Cols, planned.Cols) {
				t.Errorf("%s[%d]: cols differ:\n  interpreter %v\n  planned     %v",
					log.Name, qi, direct.Cols, planned.Cols)
			}
			if !reflect.DeepEqual(direct.Types, planned.Types) {
				t.Errorf("%s[%d]: types differ:\n  interpreter %v\n  planned     %v",
					log.Name, qi, direct.Types, planned.Types)
			}
			if len(direct.Rows) != len(planned.Rows) {
				t.Fatalf("%s[%d]: row count differs: interpreter %d, planned %d",
					log.Name, qi, len(direct.Rows), len(planned.Rows))
			}
			for ri := range direct.Rows {
				if !reflect.DeepEqual(direct.Rows[ri], planned.Rows[ri]) {
					t.Fatalf("%s[%d]: row %d differs:\n  interpreter %v\n  planned     %v\n  sql: %s",
						log.Name, qi, ri, direct.Rows[ri], planned.Rows[ri], sql)
				}
			}
		}
	}
}

// TestCuratedOuterLevelsBatched checks that the outermost level of every
// curated query runs on the columnar batch path, read from EXPLAIN's
// unindented scan lines. Connect 1–2 are the exception: their computed
// `id IN (…) AS color` item keeps a non-grouped level on the row path.
func TestCuratedOuterLevelsBatched(t *testing.T) {
	db := dataset.NewDB()
	for _, log := range workload.All() {
		for qi, sql := range log.Queries {
			plan, err := engine.Prepare(db, sqlparser.MustParse(sql))
			if err != nil {
				t.Fatalf("%s[%d]: prepare: %v", log.Name, qi, err)
			}
			ex := plan.Explain()
			batched := strings.HasPrefix(ex, "scan ")
			for _, line := range strings.Split(ex, "\n") {
				if strings.HasPrefix(line, "scan ") && !strings.Contains(line, "vectorized") {
					batched = false
				}
			}
			want := log.Name != "Connect" || (qi != 1 && qi != 2)
			if batched != want {
				t.Errorf("%s[%d]: batched = %v, want %v\n%s\n%s", log.Name, qi, batched, want, sql, ex)
			}
		}
	}
}

// curatedExplain renders Plan.Explain for every curated query, each under a
// header naming its log, index and SQL.
func curatedExplain(t *testing.T) string {
	t.Helper()
	db := dataset.NewDB()
	var sb strings.Builder
	for _, log := range workload.All() {
		for qi, sql := range log.Queries {
			plan, err := engine.Prepare(db, sqlparser.MustParse(sql))
			if err != nil {
				t.Fatalf("%s[%d]: prepare: %v", log.Name, qi, err)
			}
			fmt.Fprintf(&sb, "== %s[%d]: %s\n%s", log.Name, qi, sql, plan.Explain())
		}
	}
	return sb.String()
}

// TestCuratedExplainGolden pins the plan chosen for every curated query —
// access paths, join strategy, predicate placement and which levels run
// batched — to testdata/curated_explain.golden byte for byte.
func TestCuratedExplainGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/curated_explain.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := curatedExplain(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("EXPLAIN differs from the golden at line %d:\n  got  %q\n  want %q", i+1, g, w)
		}
	}
}

// Re-executing a plan must be deterministic: the hot path serves the same
// table for the same binding state many times over.
func TestPlanExecIsRepeatable(t *testing.T) {
	db := dataset.NewDB()
	ast := sqlparser.MustParse(`SELECT hour, count(*) FROM flights WHERE delay BETWEEN 0 AND 50 GROUP BY hour`)
	plan, err := engine.Prepare(db, ast)
	if err != nil {
		t.Fatal(err)
	}
	first, err := plan.Exec()
	if err != nil {
		t.Fatal(err)
	}
	second, err := plan.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Fatal("repeated plan executions disagree")
	}
}
