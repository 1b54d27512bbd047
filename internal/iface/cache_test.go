package iface

import (
	"reflect"
	"sync"
	"testing"

	"pi2/internal/dataset"
	"pi2/internal/engine"
)

// A repeated identical interaction must be answered from the result cache:
// no parse, no plan, no execution.
func TestSecondIdenticalInteractionHitsCache(t *testing.T) {
	ifc, ctx := buildSliderInterface(t)
	sess, err := NewSession(ifc, ctx, testDB)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SetSlider("w0", 3); err != nil {
		t.Fatal(err)
	}
	first, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.ResultMisses == 0 || st.ResultHits != 0 {
		t.Fatalf("cold stats = %+v, want misses only", st)
	}
	// the same widget event again: identical binding state
	if err := sess.SetSlider("w0", 3); err != nil {
		t.Fatal(err)
	}
	second, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	st2 := sess.Stats()
	if st2.ResultHits == 0 {
		t.Fatalf("stats after repeat = %+v, want a result hit", st2)
	}
	if st2.ResultMisses != st.ResultMisses {
		t.Fatalf("repeat interaction re-executed: %+v -> %+v", st, st2)
	}
	if !reflect.DeepEqual(first[0].Rows, second[0].Rows) {
		t.Fatal("cached result differs from computed result")
	}
}

// Sliding away and back must hit for both states once each was computed —
// the slider back-and-forth pattern the cache exists for.
func TestSliderBackAndForthHitsCache(t *testing.T) {
	ifc, ctx := buildSliderInterface(t)
	sess, _ := NewSession(ifc, ctx, testDB)
	for _, v := range []float64{1, 2, 1, 2, 1, 2} {
		if err := sess.SetSlider("w0", v); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Results(); err != nil {
			t.Fatal(err)
		}
	}
	st := sess.Stats()
	if st.ResultMisses != 2 {
		t.Fatalf("misses = %d, want 2 (one per distinct state)", st.ResultMisses)
	}
	if st.ResultHits != 4 {
		t.Fatalf("hits = %d, want 4", st.ResultHits)
	}
}

// Each distinct resolved query compiles exactly one plan.
func TestPlanCachePerDistinctQuery(t *testing.T) {
	ifc, ctx := buildSliderInterface(t)
	sess, _ := NewSession(ifc, ctx, testDB)
	for _, v := range []float64{1, 2, 3} {
		if err := sess.SetSlider("w0", v); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Results(); err != nil {
			t.Fatal(err)
		}
	}
	st := sess.Stats()
	// three distinct literals -> three distinct queries -> three plans
	if st.PlanMisses != 3 || st.PlanHits != 0 {
		t.Fatalf("plan stats = %+v", st)
	}
}

// When a resolved query's kept result is gone (dropped) but its plan
// survives, the plan is reused: only execution runs, once, and the next
// read is served without executing.
func TestPlanCacheHitAfterResultEviction(t *testing.T) {
	ifc, ctx := buildSliderInterface(t)
	sess, _ := NewSession(ifc, ctx, testDB)
	if err := sess.SetSlider("w0", 3); err != nil {
		t.Fatal(err)
	}
	first, err := sess.Result(0)
	if err != nil {
		t.Fatal(err)
	}
	// drop the result only, as budget pressure would
	dropResults(sess.plans)
	second, err := sess.Result(0)
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.PlanHits != 1 || st.PlanMisses != 1 {
		t.Fatalf("plan stats = %+v, want one miss then one hit", st)
	}
	if st.ResultMisses != 2 || sess.plans.execs.Load() != 2 || sess.plans.compiles.Load() != 1 {
		t.Fatalf("result stats = %+v, %d execs, %d compiles; want two misses, two execs, one compile",
			st, sess.plans.execs.Load(), sess.plans.compiles.Load())
	}
	if !reflect.DeepEqual(first.Rows, second.Rows) {
		t.Fatal("plan-hit execution disagrees with original")
	}
	if _, err := sess.Result(0); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.ResultHits != 1 || sess.plans.execs.Load() != 2 {
		t.Fatalf("re-read executed: %+v, %d execs; want one hit, still two execs", st, sess.plans.execs.Load())
	}
}

// dropResults detaches every kept result of pc, leaving its plans resident.
func dropResults(pc *PlanCache) {
	for i := range pc.shards {
		sh := &pc.shards[i]
		sh.mu.Lock()
		sh.lru.oldest(func(e *planEntry) bool {
			sh.drop(e)
			return true
		})
		sh.mu.Unlock()
	}
}

// Mutating the database must invalidate both cache layers: the next
// interaction recomputes against fresh data.
func TestCacheInvalidatesOnDBMutation(t *testing.T) {
	ifc, ctx := buildSliderInterface(t)
	db := dataset.NewDB()
	sess, err := NewSession(ifc, ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	before, err := sess.Result(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Rows) == 0 {
		t.Fatal("no rows before mutation")
	}
	// replace T with an empty table of the same shape
	db.Add(&engine.Table{Name: "T", Cols: []string{"p", "a", "b"},
		Types: []engine.ColType{engine.TNum, engine.TNum, engine.TNum}})
	after, err := sess.Result(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rows) != 0 {
		t.Fatalf("stale rows served after mutation: %v", after.Rows)
	}
	if st := sess.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
}

// The plan and result cache must stay bounded under an unbounded stream of
// distinct binding states (every drag step of a slider is a new state).
func TestResultCacheBounded(t *testing.T) {
	ifc, ctx := buildSliderInterface(t)
	sess, _ := NewSession(ifc, ctx, testDB)
	maxPlans := planShards * maxSharedPlansPerShd
	for i := 0; i < maxPlans*3/2; i++ {
		if err := sess.SetSlider("w0", float64(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Results(); err != nil {
			t.Fatal(err)
		}
	}
	sess.mu.Lock()
	nPlans := sess.plans.Len()
	cells := sess.plans.resultCells()
	sess.mu.Unlock()
	if nPlans > maxPlans {
		t.Fatalf("plan cache grew to %d entries (cap %d)", nPlans, maxPlans)
	}
	if cells > maxResultCells {
		t.Fatalf("kept results grew to %d cells (budget %d)", cells, maxResultCells)
	}
}

// Concurrent interactions and reads must be race-free under the session
// mutex (run with -race to check).
func TestSessionConcurrentAccess(t *testing.T) {
	ifc, ctx := buildSliderInterface(t)
	sess, _ := NewSession(ifc, ctx, testDB)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := sess.SetSlider("w0", float64(1+(g+i)%3)); err != nil {
					t.Error(err)
					return
				}
				if _, err := sess.Results(); err != nil {
					t.Error(err)
					return
				}
				if _, err := sess.CurrentSQL(0); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := sess.Stats()
	if st.ResultHits+st.ResultMisses != 4*25 {
		t.Fatalf("stats = %+v, want 100 result lookups", st)
	}
}

// LRU unit behavior: lookups refresh recency, the least recently used entry
// is the one evicted, and replacing a key does not grow the cache.
func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRU[uint64, int](3)
	c.put(1, 10)
	c.put(2, 20)
	c.put(3, 30)
	if _, ok := c.get(1); !ok { // refresh 1: order now 1,3,2
		t.Fatal("entry 1 missing")
	}
	c.put(4, 40) // evicts 2
	if _, ok := c.get(2); ok {
		t.Fatal("least recently used entry 2 survived")
	}
	for _, k := range []uint64{1, 3, 4} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("entry %d evicted, want resident", k)
		}
	}
	c.put(4, 44) // replace in place
	if c.len() != 3 {
		t.Fatalf("len = %d after replace, want 3", c.len())
	}
	if v, _ := c.get(4); v != 44 {
		t.Fatalf("replaced value = %d, want 44", v)
	}
}

// The session's hottest binding state must survive cap pressure: under the
// old arbitrary-entry eviction a full cache could drop the state the user
// keeps returning to; under LRU it cannot.
func TestHotEntrySurvivesEviction(t *testing.T) {
	ifc, ctx := buildSliderInterface(t)
	sess, _ := NewSession(ifc, ctx, testDB)
	if err := sess.SetSlider("w0", -1); err != nil { // the hot state
		t.Fatal(err)
	}
	if _, err := sess.Results(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < planShards*maxSharedPlansPerShd; i++ {
		// a cold stream of distinct states, re-touching the hot state each
		// time so it stays the most recently used
		if err := sess.SetSlider("w0", float64(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Results(); err != nil {
			t.Fatal(err)
		}
		if err := sess.SetSlider("w0", -1); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Results(); err != nil {
			t.Fatal(err)
		}
	}
	before := sess.Stats()
	if err := sess.SetSlider("w0", -1); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Results(); err != nil {
		t.Fatal(err)
	}
	after := sess.Stats()
	if after.ResultHits != before.ResultHits+1 || after.ResultMisses != before.ResultMisses {
		t.Fatalf("hot state evicted under pressure: %+v -> %+v", before, after)
	}
}

// resultCells reports the cells of the results kept across all shards.
func (pc *PlanCache) resultCells() int {
	n := 0
	for i := range pc.shards {
		sh := &pc.shards[i]
		sh.mu.Lock()
		n += sh.cells
		sh.mu.Unlock()
	}
	return n
}
