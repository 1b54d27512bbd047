package iface

import (
	"runtime"
	"strconv"
	"sync"
	"testing"

	"pi2/internal/dataset"
	dt "pi2/internal/difftree"
	"pi2/internal/engine"
	"pi2/internal/sqlparser"
	"pi2/internal/transform"
	"pi2/internal/vis"
)

// sumCount adds up the count column of a slider-interface result.
func sumCount(tbl *engine.Table) float64 {
	n := 0.0
	for _, row := range tbl.Rows {
		n += row[1].Num
	}
	return n
}

// statsDelta is the traffic counted between two snapshots of one cache.
func statsDelta(after, before CacheStats) CacheStats {
	return CacheStats{
		ResultHits:    after.ResultHits - before.ResultHits,
		ResultMisses:  after.ResultMisses - before.ResultMisses,
		PlanHits:      after.PlanHits - before.PlanHits,
		PlanMisses:    after.PlanMisses - before.PlanMisses,
		Invalidations: after.Invalidations - before.Invalidations,
	}
}

// A result one session computed is served to every other session at the
// same resolved query and table generations, without executing; a write to
// the table it read makes the next reader re-execute and see the new rows,
// while a write to an unrelated table leaves it served.
func TestSharedResultAcrossSessions(t *testing.T) {
	plans := NewPlanCache()
	a, db := liveSession(t, plans)
	b, err := NewSessionWithPlans(a.Ifc, a.Ctx, db, plans)
	if err != nil {
		t.Fatal(err)
	}
	first, err := a.Result(0)
	if err != nil {
		t.Fatal(err)
	}
	execs := plans.execs.Load()
	before := plans.stats()
	got, err := b.Result(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != first || plans.execs.Load() != execs {
		t.Fatalf("session B executed (%d -> %d execs) instead of reading A's result", execs, plans.execs.Load())
	}
	if d := statsDelta(plans.stats(), before); d != (CacheStats{ResultHits: 1}) {
		t.Fatalf("B's read counted %+v, want one result hit and nothing else", d)
	}

	appendT(t, db) // (p=1, a=1): matches the initial binding a = 1
	before = plans.stats()
	after, err := b.Result(0)
	if err != nil {
		t.Fatal(err)
	}
	if plans.execs.Load() != execs+1 {
		t.Fatalf("after a write to T: %d execs, want %d", plans.execs.Load(), execs+1)
	}
	if sumCount(after) != sumCount(first)+1 {
		t.Fatalf("after a write to T: count %v, want %v", sumCount(after), sumCount(first)+1)
	}
	if d := statsDelta(plans.stats(), before); d.ResultMisses != 1 || d.ResultHits != 0 || d.Invalidations != 1 {
		t.Fatalf("B's read after the write counted %+v, want one miss and one invalidation", d)
	}

	if err := db.Append("Cars", [][]engine.Value{{
		engine.NumVal(9999), engine.NumVal(100), engine.NumVal(30), engine.NumVal(200), engine.StrVal("USA"),
	}}); err != nil {
		t.Fatal(err)
	}
	again, err := a.Result(0)
	if err != nil {
		t.Fatal(err)
	}
	if again != after || plans.execs.Load() != execs+1 {
		t.Fatalf("after an unrelated write: A re-executed (%d execs)", plans.execs.Load())
	}
}

// N sessions that ask for one new state at once cause exactly one Exec and
// are all served its table.
func TestSharedResultSingleFlight(t *testing.T) {
	const n = 16
	plans := NewPlanCache()
	ifc, ctx := buildSliderInterface(t)
	db := dataset.NewDB()
	sessions := make([]*Session, n)
	for i := range sessions {
		s, err := NewSessionWithPlans(ifc, ctx, db, plans)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetSlider("w0", 2); err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	before := plans.stats()
	start := make(chan struct{})
	tables := make([]*engine.Table, n)
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			<-start
			tbl, err := s.Result(0)
			if err != nil {
				t.Error(err)
				return
			}
			tables[i] = tbl
		}(i, s)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if x := plans.execs.Load(); x != 1 {
		t.Fatalf("%d concurrent sessions caused %d execs, want 1", n, x)
	}
	for i := range sessions {
		if tables[i] != tables[0] {
			t.Fatalf("session %d got a different table", i)
		}
	}
	if d := statsDelta(plans.stats(), before); d.ResultMisses != 1 || d.ResultHits != n-1 {
		t.Fatalf("result hits/misses = %d/%d, want %d/1", d.ResultHits, d.ResultMisses, n-1)
	}
}

// Results are charged rows × columns against the registry-wide budget: a
// stream of distinct large results keeps the kept cells within it, every
// shard within its share, and drops the least recently used results first.
func TestResultCacheChargedByCells(t *testing.T) {
	const rows = 20_000
	db := engine.NewDB(dataset.Now)
	big := &engine.Table{Name: "big", Cols: []string{"k", "v"}, Types: []engine.ColType{engine.TNum, engine.TNum}}
	for i := 0; i < rows; i++ {
		big.Rows = append(big.Rows, []engine.Value{engine.NumVal(float64(i)), engine.NumVal(float64(i % 7))})
	}
	db.Add(big)
	pc := NewPlanCache()
	read := func(i int) *engine.Table {
		ast := sqlparser.MustParse("SELECT k, v FROM big WHERE k >= " + strconv.Itoa(i))
		e, sh, _ := pc.entry(db, ast)
		tbl, _, err := pc.result(sh, e, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	// Each result is about 40k cells; 200 of them are ~8M cells, far over
	// the budget.
	for i := 0; i < 200; i++ {
		read(i)
	}
	if cells := pc.resultCells(); cells > maxResultCells || cells == 0 {
		t.Fatalf("kept %d cells, want 1..%d", cells, maxResultCells)
	}
	for i := range pc.shards {
		if c := pc.shards[i].cells; c > maxResultCellsPerShard {
			t.Fatalf("shard %d keeps %d cells, over its share %d", i, c, maxResultCellsPerShard)
		}
	}
	// The most recent result is still served; the oldest was dropped.
	execs := pc.execs.Load()
	read(199)
	if pc.execs.Load() != execs {
		t.Fatal("the most recent result was dropped")
	}
	read(0)
	if pc.execs.Load() != execs+1 {
		t.Fatal("the oldest result was kept over budget")
	}
}

// brushInterface hand-builds a one-chart interface over a rows-row flights
// table, SELECT hour, count(*) FROM F WHERE delay BETWEEN lo AND hi GROUP BY
// hour, whose brush binds both bounds.
func brushInterface(t *testing.T, rows int) (*Interface, *transform.Context, *engine.DB) {
	t.Helper()
	db := engine.NewDB(dataset.Now)
	f := &engine.Table{Name: "F", Cols: []string{"hour", "delay", "dist"},
		Types: []engine.ColType{engine.TNum, engine.TNum, engine.TNum}}
	for i := 0; i < rows; i++ {
		f.Rows = append(f.Rows, []engine.Value{
			engine.NumVal(float64(i % 24)), engine.NumVal(float64(i * 37 % 100)), engine.NumVal(float64(i * 13 % 1000)),
		})
	}
	db.Add(f)
	q1 := sqlparser.MustParse("SELECT hour, count(*) FROM F WHERE delay BETWEEN 0 AND 20 GROUP BY hour")
	q2 := sqlparser.MustParse("SELECT hour, count(*) FROM F WHERE delay BETWEEN 10 AND 30 GROUP BY hour")
	tree := q1.Clone()
	between := tree.Children[2].Children[0].Children[0] // WHERE → AND → BETWEEN
	between.Children[1] = dt.New(dt.KindVal, "num", dt.Number("0"), dt.Number("10"))
	between.Children[2] = dt.New(dt.KindVal, "num", dt.Number("20"), dt.Number("30"))
	tree.Renumber()
	ctx := &transform.Context{Queries: []*dt.Node{q1, q2}, Cat: testCat}
	state := &transform.State{Trees: []*transform.Tree{{Root: tree, Queries: []int{0, 1}}}}
	ifc := &Interface{
		State: state,
		Vis: []VisSpec{{
			ElemID: "vis0", Tree: 0,
			Mapping: vis.Mapping{Vis: vis.Catalog()[2], Assign: map[string]int{"x": 0, "y": 1}},
			Cols:    []string{"hour", "count"},
		}},
		VisInts: []VisIntSpec{{SourceVis: 0, Kind: vis.BrushX, Tree: 0, NodeID: between.ID}},
	}
	ifc.Arrange()
	return ifc, ctx, db
}

// 2,000 distinct brush states over a 100k-row table must leave the heap
// after GC flat: compiled plans hold no per-execution state (selection
// vectors, filtered scans), and kept results stay within their budget.
func TestRetainedHeapFlatUnderDistinctBrushes(t *testing.T) {
	const states, flatMB = 2000, 12
	ifc, ctx, db := brushInterface(t, 100_000)
	sess, err := NewSession(ifc, ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	brush := func(i int) {
		lo := float64(i) / 100
		if err := sess.Brush("vis0", string(vis.BrushX), formatNum(lo), formatNum(lo+20)); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Results(); err != nil {
			t.Fatal(err)
		}
	}
	brush(0) // builds the table's column image, statistics and indexes
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 1; i <= states; i++ {
		brush(i)
	}
	after := heap()
	if st := sess.Stats(); st.ResultMisses != states+1 {
		t.Fatalf("stats = %+v, want %d distinct executions", st, states+1)
	}
	grown := (float64(after) - float64(before)) / (1 << 20)
	t.Logf("heap after GC grew %.1f MB over %d distinct brush states", grown, states)
	if grown > flatMB {
		t.Fatalf("heap after GC grew %.1f MB over %d distinct brush states, want at most %d MB", grown, states, flatMB)
	}
	runtime.KeepAlive(sess)
}
