// Benchmarks regenerating the paper's evaluation artifacts — one bench per
// table and figure (see DESIGN.md §3 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results). Benches report the paper's
// metrics (generation time, interface cost, quality) via ReportMetric.
package pi2

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"pi2/internal/catalog"
	"pi2/internal/core"
	"pi2/internal/dataset"
	"pi2/internal/experiment"
	"pi2/internal/iface"
	"pi2/internal/ingest"
	"pi2/internal/sqlparser"
	"pi2/internal/transform"
	"pi2/internal/vis"
	"pi2/internal/widget"
	"pi2/internal/workload"
)

var benchEnv = experiment.NewEnv()

// benchGenerate measures the generation hot path in isolation — a direct
// core.Generate call (parse + MCTS + final mapping), no experiment-harness
// bookkeeping.
func benchGenerate(b *testing.B, log workload.Log) {
	db := dataset.NewDB()
	cat := catalog.Build(db, dataset.Keys())
	cfg := core.DefaultConfig()
	b.ReportAllocs()
	var lastCost float64
	var ints int
	for i := 0; i < b.N; i++ {
		res, err := core.Generate(log.Queries, db, cat, cfg)
		if err != nil {
			b.Fatal(err)
		}
		lastCost = res.Interface.Cost
		ints = res.Interface.InteractionCount()
	}
	b.ReportMetric(lastCost, "cost")
	b.ReportMetric(float64(ints), "interactions")
}

func BenchmarkGenerateExplore(b *testing.B) { benchGenerate(b, workload.Explore()) }
func BenchmarkGenerateCovid(b *testing.B)   { benchGenerate(b, workload.Covid()) }
func BenchmarkGenerateSDSS(b *testing.B)    { benchGenerate(b, workload.SDSS()) }

// benchLog generates the given log once per iteration and reports cost and
// interaction counts.
func benchLog(b *testing.B, log workload.Log) {
	b.ReportAllocs()
	var lastCost float64
	var ints int
	for i := 0; i < b.N; i++ {
		r, res, err := benchEnv.RunOnce(log, 30, 3, 10, 1)
		if err != nil {
			b.Fatal(err)
		}
		lastCost = r.Cost
		ints = res.Interface.InteractionCount()
	}
	b.ReportMetric(lastCost, "cost")
	b.ReportMetric(float64(ints), "interactions")
}

// Figure 14: interaction-taxonomy expressiveness (one bench per panel).
func BenchmarkFigure14Explore(b *testing.B)  { benchLog(b, workload.Explore()) }
func BenchmarkFigure14Abstract(b *testing.B) { benchLog(b, workload.Abstract()) }
func BenchmarkFigure14Connect(b *testing.B)  { benchLog(b, workload.Connect()) }
func BenchmarkFigure14Filter(b *testing.B)   { benchLog(b, workload.Filter()) }

// Figure 15: case studies.
func BenchmarkFigure15SDSS(b *testing.B)  { benchLog(b, workload.SDSS()) }
func BenchmarkFigure15Covid(b *testing.B) { benchLog(b, workload.Covid()) }
func BenchmarkFigure15Sales(b *testing.B) { benchLog(b, workload.Sales()) }

// Figure 16: runtime-quality trade-off (reduced grid; pi2bench -fig 16
// prints the full series).
func BenchmarkFigure16Tradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := experiment.Figure16(io.Discard, benchEnv,
			[]workload.Log{workload.Explore()}, false)
		if len(runs) == 0 {
			b.Fatal("no runs")
		}
		q := experiment.Quality(runs)
		best := 0.0
		for _, v := range q {
			if v > best {
				best = v
			}
		}
		b.ReportMetric(best, "best_quality")
	}
}

// Figure 17: parameter sensitivity on Explore/Filter/Covid.
func BenchmarkFigure17Sensitivity(b *testing.B) {
	if testing.Short() {
		b.Skip("short mode")
	}
	for i := 0; i < b.N; i++ {
		runs := experiment.Figure17(io.Discard, benchEnv)
		if len(runs) == 0 {
			b.Fatal("no runs")
		}
	}
}

// §7.3 scalability: runtime versus duplicated-query count.
func BenchmarkScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := experiment.Scalability(io.Discard, benchEnv, []int{1, 2, 4})
		if len(runs) != 3 {
			b.Fatal("scalability runs missing")
		}
		// report ms per query at the largest factor for trend tracking
		last := runs[len(runs)-1]
		b.ReportMetric(float64(last.Total().Milliseconds())/36, "ms_per_query")
	}
}

// Headline latency distribution (paper: 2–19 s, median 6 s on 4×2.2 GHz).
func BenchmarkEndToEndLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runs := experiment.Latency(io.Discard, benchEnv)
		if len(runs) != 7 {
			b.Fatalf("logs = %d", len(runs))
		}
	}
}

// BenchmarkSessionInteraction measures the serving hot path: one widget
// event (a binding change) followed by re-executing every bound query. The
// "cold" variant runs each iteration on a fresh session (built with the
// timer stopped), paying the full resolve+plan+execute cost the interpreter
// paid on every event; the
// "cached" variant repeats the same two binding states, so after warmup
// each event is answered from memoized results.
func BenchmarkSessionInteraction(b *testing.B) {
	wl := workload.Explore()
	db := dataset.NewDB()
	gen := NewGenerator(db, dataset.Keys())
	res, err := gen.Generate(wl.Queries)
	if err != nil {
		b.Fatal(err)
	}
	asts, err := sqlparser.ParseAll(wl.Queries)
	if err != nil {
		b.Fatal(err)
	}
	ctx := &transform.Context{Queries: asts, Cat: gen.Cat}
	newSession := func(b *testing.B) *iface.Session {
		sess, err := iface.NewSession(res.Interface, ctx, db)
		if err != nil {
			b.Fatal(err)
		}
		return sess
	}
	// The Explore interface maps the log onto a pan interaction covering the
	// four BETWEEN bounds (Figure 14a); panning between the two viewports of
	// the input queries is the repeated interaction.
	if len(res.Interface.VisInts) == 0 {
		b.Fatal("Explore interface has no visualization interactions")
	}
	vi := res.Interface.VisInts[0]
	srcElem := res.Interface.Vis[vi.SourceVis].ElemID
	kind := string(vi.Kind)
	viewports := [][]string{
		{"50", "60", "27", "38"},
		{"60", "90", "16", "30"},
	}
	interact := func(b *testing.B, sess *iface.Session, i int) {
		if err := sess.Brush(srcElem, kind, viewports[i%2]...); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Results(); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sess := newSession(b)
			b.StartTimer()
			interact(b, sess, i)
		}
	})
	b.Run("cached", func(b *testing.B) {
		sess := newSession(b)
		for i := 0; i < len(wl.Queries); i++ { // warm every state once
			interact(b, sess, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			interact(b, sess, i)
		}
		b.StopTimer()
		st := sess.Stats()
		b.ReportMetric(float64(st.ResultHits)/float64(st.ResultHits+st.ResultMisses), "hit_rate")
	})
}

// Table 1: visualization schema catalog + candidate mapping generation.
func BenchmarkTable1VisCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		total := 0
		for _, s := range vis.Catalog() {
			total += len(vis.InteractionsFor(s.Type))
		}
		if total == 0 {
			b.Fatal("empty catalog")
		}
	}
}

// Table 2: widget schema catalog + cost polynomial evaluation.
func BenchmarkTable2WidgetCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		total := 0.0
		for _, k := range widget.Kinds() {
			for d := 0; d < 10; d++ {
				a0, a1, a2 := widget.CostCoeffs(k)
				total += a0 + a1*float64(d) + a2*float64(d*d)
			}
		}
		if total <= 0 {
			b.Fatal("bad coefficients")
		}
	}
}

// Figures 18/19: quality spread of non-optimal interfaces under tight
// search budgets.
func BenchmarkFigure18Quality(b *testing.B) {
	if testing.Short() {
		b.Skip("short mode")
	}
	for i := 0; i < b.N; i++ {
		runs := experiment.QualitySpread(io.Discard, benchEnv, workload.Explore())
		if len(runs) == 0 {
			b.Fatal("no runs")
		}
	}
}

// Ablations for the design choices DESIGN.md calls out.
func BenchmarkAblations(b *testing.B) {
	if testing.Short() {
		b.Skip("short mode")
	}
	for i := 0; i < b.N; i++ {
		runs := experiment.Ablations(io.Discard, benchEnv, workload.Explore())
		if len(runs) == 0 {
			b.Fatal("no ablation runs")
		}
	}
}

// Ingestion throughput: one-pass type inference + materialization over a
// ~100k-row CSV with mixed int/float/str/date columns (the bring-your-own-
// data hot path; rows/sec is the headline metric).
func BenchmarkIngestCSV(b *testing.B) {
	const rows = 100_000
	var buf bytes.Buffer
	buf.WriteString("id,val,ratio,label,date\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&buf, "%d,%d,%.4f,cat%d,2020-%02d-%02d\n",
			i, i%1000, float64(i)/3.0, i%7, 1+i%12, 1+i%28)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, _, err := ingest.ReadTable(bytes.NewReader(data), "bench", ingest.FormatCSV, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) != rows {
			b.Fatalf("ingested %d rows", len(tbl.Rows))
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
}
