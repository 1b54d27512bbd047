package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pi2/internal/sqlparser"
)

// Micro-benchmarks for the operator pipeline. CI runs these for one
// iteration under -race to exercise the pipeline's shared scan/build caches
// concurrently-safely.

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
		// Re-prepare each iteration so the per-plan scan/build caches do
		// not amortize away the work being measured.
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

func BenchmarkEngineJoin(b *testing.B) {
	db := benchDB(2000, 200)
	b.Run("hash", func(b *testing.B) { benchPlan(b, db, benchJoinSQL) })
}

// BenchmarkEngineJoinCached measures the serving-shaped case: one prepared
// plan executed repeatedly, where the pipeline's scan/build caches kick in.
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
	// About 10 of the 20k rows: narrow enough that rangeRows restores row
	// order by sorting the hits rather than by bitmap.
	const narrowSQL = `SELECT v FROM scan WHERE v BETWEEN 50 AND 50.05`
	b.Run("index-range-narrow", func(b *testing.B) { benchPlan(b, db, narrowSQL) })
	// About 20% of the rows, in random row order: under the chooser's 25%
	// cut, and wide enough that rangeRows restores row order by bitmap.
	const wideSQL = `SELECT v FROM scan WHERE v BETWEEN 40 AND 60`
	b.Run("index-range-wide", func(b *testing.B) { benchPlan(b, db, wideSQL) })
	// A low-selectivity sweep the cost model keeps off the indexes: the
	// chooser leaves it on the full scan, which the vectorized path then
	// runs as a batched columnar filter.
	const sweepSQL = `SELECT v FROM scan WHERE v > 25`
	b.Run("vectorized-filter", func(b *testing.B) { benchPlan(b, db, sweepSQL) })
}

// BenchmarkEngineRangeOrder times the two ways rangeRows restores row order
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
			pick := "sort"
			if bitmapOrder(nrows, nhits) {
				pick = "bitmap"
			}
			name := fmt.Sprintf("rows=%d/hits=%d/pick=%s", nrows, nhits, pick)
			b.Run(name+"/sort", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					out := append([]int(nil), hits...)
					sort.Ints(out)
				}
			})
			b.Run(name+"/bitmap", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bitmapSweep(nrows, hits)
				}
			})
		}
	}
}

// BenchmarkEngineJoinBuildSide measures the reversed hash join: the scan
// predicate on the big side defeats index reuse, and the two-row tiny side
// wins the build by estimated cardinality, leaving an order-restoring merge
// on the probe output.
func BenchmarkEngineJoinBuildSide(b *testing.B) {
	db := benchScanDB()
	benchPlan(b, db, `SELECT t.lbl, s.v FROM tiny AS t, scan AS s WHERE t.k = s.k AND s.v > 25`)
}
