package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	dt "pi2/internal/difftree"
	"pi2/internal/sqlparser"
)

// Micro-benchmarks for the engine's row and columnar paths. CI runs these
// for one iteration under -race as a smoke test of both paths and of the
// per-DB index and column caches they borrow.

// benchDB builds a fact table (rows rows) and a dim table (dims rows) with
// a foreign-key-like join column and skewed value columns.
func benchDB(rows, dims int) *DB {
	r := rand.New(rand.NewSource(42))
	db := NewDB("2020-12-31")
	dim := &Table{Name: "dim", Cols: []string{"k", "label"}, Types: []ColType{TNum, TStr}}
	for i := 0; i < dims; i++ {
		dim.Rows = append(dim.Rows, []Value{NumVal(float64(i)), StrVal(fmt.Sprintf("d%d", i))})
	}
	fact := &Table{Name: "fact", Cols: []string{"k", "v", "grp"}, Types: []ColType{TNum, TNum, TNum}}
	for i := 0; i < rows; i++ {
		fact.Rows = append(fact.Rows, []Value{
			NumVal(float64(r.Intn(dims))),
			NumVal(r.Float64() * 100),
			NumVal(float64(r.Intn(50))),
		})
	}
	db.Add(dim)
	db.Add(fact)
	return db
}

func benchPlan(b *testing.B, db *DB, sql string) {
	b.Helper()
	ast, err := sqlparser.Parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-prepare each iteration: each op pays Prepare and Exec, as a
		// served read of a new resolved query does.
		plan, err := Prepare(db, ast)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.Exec(); err != nil {
			b.Fatal(err)
		}
	}
}

const benchJoinSQL = `SELECT f.v, d.label FROM fact AS f, dim AS d WHERE f.k = d.k AND f.v > 25`

// BenchmarkEngineJoin times the join shapes: hash is the comma join the
// vectorized path takes; row-pipeline adds a lower() conjunct that keeps the
// same join on the row path; row-reversed puts the smaller side first, so
// its hash level builds over the later, larger source, whose bare-column key
// borrows that column's hash index (the row path pushes no scan predicate
// down); join-on and left-join-on are JOIN FROMs, which always run on the
// row path.
func BenchmarkEngineJoin(b *testing.B) {
	db := benchDB(2000, 200)
	b.Run("hash", func(b *testing.B) { benchPlan(b, db, benchJoinSQL) })
	b.Run("row-pipeline", func(b *testing.B) { benchPlan(b, db, benchJoinSQL+` AND lower(d.label) >= ''`) })
	b.Run("row-reversed", func(b *testing.B) {
		benchPlan(b, db, `SELECT f.v, d.label FROM dim AS d, fact AS f WHERE d.k = f.k AND f.v > 25 AND lower(d.label) >= ''`)
	})
	b.Run("join-on", func(b *testing.B) {
		benchPlan(b, db, `SELECT f.v, d.label FROM fact AS f JOIN dim AS d ON f.k = d.k WHERE f.v > 25`)
	})
	b.Run("left-join-on", func(b *testing.B) {
		benchPlan(b, db, `SELECT f.v, d.label FROM fact AS f LEFT JOIN dim AS d ON f.k = d.k WHERE f.v > 25`)
	})
}

// BenchmarkEngineCorrelated times the Sales dashboard's correlated HAVING
// subquery. The outer level runs on the batch path and evaluates the
// compiled HAVING per group; the inner query runs once per outer group and
// sweeps the fact table with a correlated predicate, a single-source
// row-path scan.
func BenchmarkEngineCorrelated(b *testing.B) {
	db := benchDB(1000, 4)
	benchPlan(b, db, `SELECT grp, k, sum(v) FROM fact AS ff GROUP BY grp, k HAVING sum(v) >= `+
		`(SELECT max(t) FROM (SELECT sum(v) AS t FROM fact AS f WHERE f.grp = ff.grp GROUP BY f.grp, f.k) AS m)`)
}

// BenchmarkEngineJoinCached measures re-executing one prepared plan: a plan
// keeps no run-time state, so every Exec redoes its scans and join build
// and only the per-DB column image and indexes stay warm. Serving does not
// re-execute a plan while its result is kept (iface.PlanCache).
func BenchmarkEngineJoinCached(b *testing.B) {
	db := benchDB(2000, 200)
	ast, err := sqlparser.Parse(benchJoinSQL)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := Prepare(db, ast)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Exec(); err != nil {
			b.Fatal(err)
		}
	}
}

const benchGroupSQL = `SELECT grp, count(*), sum(v), avg(v) FROM fact GROUP BY grp`

// BenchmarkEngineGroupBy measures the vectorized aggregation (columnar
// accumulation over a u64 open-addressing group table) on a 50-group query,
// plus a high-cardinality run (2000 groups) where per-group overheads
// dominate.
func BenchmarkEngineGroupBy(b *testing.B) {
	db := benchDB(20000, 10)
	b.Run("vectorized", func(b *testing.B) { benchPlan(b, db, benchGroupSQL) })
	hdb := benchDB(20000, 2000)
	const hiSQL = `SELECT k, count(*), sum(v) FROM fact GROUP BY k`
	b.Run("high-cardinality-group", func(b *testing.B) { benchPlan(b, hdb, hiSQL) })
}

const benchTopKSQL = `SELECT k, v FROM fact WHERE v > 10 ORDER BY v DESC LIMIT 10`

func BenchmarkEngineTopK(b *testing.B) {
	db := benchDB(20000, 10)
	b.Run("heap", func(b *testing.B) { benchPlan(b, db, benchTopKSQL) })
}

const benchDistinctSQL = `SELECT DISTINCT grp FROM fact`

func BenchmarkEngineDistinct(b *testing.B) {
	db := benchDB(20000, 10)
	benchPlan(b, db, benchDistinctSQL)
}

// benchScanDB builds the access-path fixture: `scan` is large enough for
// the cost model to prefer indexes (20k rows, k cycling 0..199 so a point
// lookup selects 0.5%), plus a two-row `tiny` table for build-side reversal.
func benchScanDB() *DB {
	r := rand.New(rand.NewSource(7))
	db := NewDB("2020-12-31")
	scan := &Table{Name: "scan", Cols: []string{"k", "v"}, Types: []ColType{TNum, TNum}}
	for i := 0; i < 20000; i++ {
		scan.Rows = append(scan.Rows, []Value{
			NumVal(float64(i % 200)),
			NumVal(r.Float64() * 100),
		})
	}
	db.Add(scan)
	db.Add(&Table{
		Name: "tiny", Cols: []string{"k", "lbl"}, Types: []ColType{TNum, TStr},
		Rows: [][]Value{
			{NumVal(3), StrVal("three")},
			{NumVal(7), StrVal("seven")},
		},
	})
	return db
}

// BenchmarkEngineScan measures the index access paths on point and range
// predicates: the hash-index point lookup, the sorted-index range scan (a
// narrow one and a wide one), plus a vectorized sweep. Index candidates seed
// the vectorized filter. The per-column indexes are cached at the DB level,
// so re-preparing per iteration (benchPlan) still amortizes the build —
// exactly the serving-shaped behavior being measured.
func BenchmarkEngineScan(b *testing.B) {
	db := benchScanDB()
	const pointSQL = `SELECT v FROM scan WHERE k = 7`
	const rangeSQL = `SELECT v FROM scan WHERE k BETWEEN 7 AND 9`
	b.Run("index-point", func(b *testing.B) { benchPlan(b, db, pointSQL) })
	b.Run("index-range", func(b *testing.B) { benchPlan(b, db, rangeSQL) })
	// About 10 of the 20k rows: narrow enough that orderHits restores row
	// order by sorting the hits rather than by bitmap.
	const narrowSQL = `SELECT v FROM scan WHERE v BETWEEN 50 AND 50.05`
	b.Run("index-range-narrow", func(b *testing.B) { benchPlan(b, db, narrowSQL) })
	// About 20% of the rows, in random row order: under the chooser's 25%
	// cut, and wide enough that orderHits restores row order by bitmap.
	const wideSQL = `SELECT v FROM scan WHERE v BETWEEN 40 AND 60`
	b.Run("index-range-wide", func(b *testing.B) { benchPlan(b, db, wideSQL) })
	// A low-selectivity sweep the cost model keeps off the indexes: the
	// chooser leaves it on the full scan, which the vectorized path then
	// runs as a batched columnar filter.
	const sweepSQL = `SELECT v FROM scan WHERE v > 25`
	b.Run("vectorized-filter", func(b *testing.B) { benchPlan(b, db, sweepSQL) })
}

// BenchmarkEngineRangeOrder times the two ways orderHits restores row order
// — copy-and-sort and bitmapSweep — on random hit sets across the crossover
// bitmapOrder draws; the pick=… level names the one it chooses.
func BenchmarkEngineRangeOrder(b *testing.B) {
	for _, nrows := range []int{20000, 100000, 1000000} {
		perm := rand.New(rand.NewSource(1)).Perm(nrows)
		for _, nhits := range []int{10, 100, 1000, 10000} {
			if nhits > nrows/4 {
				continue
			}
			hits := perm[:nhits]
			dst := make([]int32, nhits)
			pick := "sort"
			if bitmapOrder(nrows, nhits) {
				pick = "bitmap"
			}
			name := fmt.Sprintf("rows=%d/hits=%d/pick=%s", nrows, nhits, pick)
			b.Run(name+"/sort", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for k, r := range hits {
						dst[k] = int32(r)
					}
					slices.Sort(dst)
				}
			})
			b.Run(name+"/bitmap", func(b *testing.B) {
				bm := make([]uint64, (nrows+63)/64)
				for i := 0; i < b.N; i++ {
					clear(bm)
					bitmapSweep(bm, hits, dst)
				}
			})
		}
	}
}

// BenchmarkEngineJoinBuildSide measures a join whose big side carries a
// scan predicate, which defeats index reuse. The query is vectorizable, so
// it runs the vectorized join over the filtered build side. The row path
// never filters a build side: its hash levels build over whole sources
// (BenchmarkEngineJoin/row-reversed).
func BenchmarkEngineJoinBuildSide(b *testing.B) {
	db := benchScanDB()
	benchPlan(b, db, `SELECT t.lbl, s.v FROM tiny AS t, scan AS s WHERE t.k = s.k AND s.v > 25`)
}

// covidDB builds a Covid-dashboard table (Figure 15b): 50 states, WA, CA and
// NY among them, with one row per state and day for the days ending at the
// DB's today().
func covidDB(days int) *DB {
	r := rand.New(rand.NewSource(2020))
	db := NewDB("2020-12-31")
	covid := &Table{Name: "covid", Cols: []string{"state", "date", "cases", "deaths"},
		Types: []ColType{TStr, TStr, TNum, TNum}}
	states := []string{"WA", "CA", "NY"}
	for len(states) < 50 {
		states = append(states, fmt.Sprintf("S%02d", len(states)))
	}
	end := time.Date(2020, 12, 31, 0, 0, 0, 0, time.UTC)
	for _, st := range states {
		for d := days - 1; d >= 0; d-- {
			covid.Rows = append(covid.Rows, []Value{
				StrVal(st),
				StrVal(end.AddDate(0, 0, -d).Format("2006-01-02")),
				NumVal(float64(r.Intn(10000))),
				NumVal(float64(r.Intn(200))),
			})
		}
	}
	db.Add(covid)
	return db
}

// BenchmarkEngineCovidDateWindow times the Covid dashboard's date-windowed
// read over a 50-state × 730-day table: one prepared plan executed
// repeatedly, the way a served widget re-reads it. The window bound is
// written as date(today(), …), a literal-only call.
func BenchmarkEngineCovidDateWindow(b *testing.B) {
	db := covidDB(730)
	ast, err := sqlparser.Parse(`SELECT date, cases FROM covid WHERE state = 'WA' AND date > date(today(), '-30 days')`)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := Prepare(db, ast)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := plan.Exec()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 30 {
			b.Fatalf("got %d rows, want 30", len(t.Rows))
		}
	}
}

// BenchmarkEngineAppendThenRead times the live Covid dashboard's write/read
// cycle over a 50-state × 730-day table: each op appends one 4-row batch
// (the next day for four states, CA among them), then prepares and executes
// the CA read against the new snapshot, so it pays whatever the write costs
// the first read's statistics, hash index and column image.
func BenchmarkEngineAppendThenRead(b *testing.B) {
	db := covidDB(730)
	ast, err := sqlparser.Parse(`SELECT date, cases FROM covid WHERE state = 'CA'`)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(2021))
	day := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		date := StrVal(day.AddDate(0, 0, i).Format("2006-01-02"))
		batch := make([][]Value, 0, 4)
		for _, st := range []string{"WA", "CA", "NY", "S03"} {
			batch = append(batch, []Value{StrVal(st), date, NumVal(float64(r.Intn(10000))), NumVal(float64(r.Intn(200)))})
		}
		if err := db.Append("covid", batch); err != nil {
			b.Fatal(err)
		}
		plan, err := Prepare(db, ast)
		if err != nil {
			b.Fatal(err)
		}
		t, err := plan.Exec()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 731+i {
			b.Fatalf("got %d rows, want %d", len(t.Rows), 731+i)
		}
	}
}

// flightsDB builds a flights table shaped like the cross-filter demo's
// (Figure 14d): rows rows of hour (6–21), delay (0–90 in steps of 5, skewed
// low) and dist (250–4500 in steps of 250), every cell a number.
func flightsDB(rows int) *DB {
	r := rand.New(rand.NewSource(1))
	db := NewDB("2020-12-31")
	t := &Table{Name: "flights", Cols: []string{"hour", "delay", "dist"}, Types: []ColType{TNum, TNum, TNum}}
	for i := 0; i < rows; i++ {
		hour, delay, dist := 6+r.Intn(16), 5*r.Intn(19), 250*(1+r.Intn(18))
		if r.Float64() < 0.3 && delay > 30 {
			delay = 5 * r.Intn(6)
		}
		t.Rows = append(t.Rows, []Value{NumVal(float64(hour)), NumVal(float64(delay)), NumVal(float64(dist))})
	}
	db.Add(t)
	return db
}

// BenchmarkEngineCrossFilter times cross-filter reads over a 100k-row
// flights table: each op prepares and executes one of the Filter log's three
// grouped query shapes under a fresh brush on the other two columns, as a
// served brush that reaches a new binding state does. The brushes are drawn
// from a fixed seed, uniformly inside the spans the log's own literals cover,
// so some are narrow enough for the chooser to seed the scan from a sorted
// index and the rest sweep the table.
func BenchmarkEngineCrossFilter(b *testing.B) {
	db := flightsDB(100_000)
	type dim struct {
		col    string
		lo, hi float64
	}
	dims := []dim{{"hour", 8, 20}, {"delay", 0, 61}, {"dist", 10, 800}}
	r := rand.New(rand.NewSource(1))
	brush := func(d dim) string {
		a, c := d.lo+r.Float64()*(d.hi-d.lo), d.lo+r.Float64()*(d.hi-d.lo)
		return fmt.Sprintf("%s BETWEEN %.1f AND %.1f", d.col, min(a, c), max(a, c))
	}
	var queries []*dt.Node
	for i := 0; i < 256; i++ {
		g := i % 3
		sql := fmt.Sprintf("SELECT %s, count(*) FROM flights WHERE %s AND %s GROUP BY %s",
			dims[g].col, brush(dims[(g+1)%3]), brush(dims[(g+2)%3]), dims[g].col)
		ast, err := sqlparser.Parse(sql)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, ast)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := Prepare(db, queries[i%len(queries)])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.Exec(); err != nil {
			b.Fatal(err)
		}
	}
}
