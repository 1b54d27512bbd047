package iface

import (
	"strings"
	"testing"
	"time"
)

// fakeClock is an injectable registry clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_000_000, 0)} }
func sliderFactory(t testing.TB, pc *PlanCache) func() (*Session, error) {
	ifc, ctx := buildSliderInterface(t)
	return func() (*Session, error) { return NewSessionWithPlans(ifc, ctx, testDB, pc) }
}

func TestRegistryAcquireReusesLiveSession(t *testing.T) {
	reg := NewRegistry(sliderFactory(t, nil), RegistryOptions{})
	a1, err := reg.Acquire("alice")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := reg.Acquire("alice")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("same key returned different sessions")
	}
	b, err := reg.Acquire("bob")
	if err != nil {
		t.Fatal(err)
	}
	if b == a1 {
		t.Fatal("distinct keys share a session")
	}
	st := reg.Stats()
	if st.Created != 2 || st.Hits != 1 || st.LiveSessions != 2 {
		t.Fatalf("stats = %+v, want 2 created / 1 hit / 2 live", st)
	}
}

// Two sessions must hold independent binding state: a manipulation in one
// must not leak into the other.
func TestRegistrySessionsIndependent(t *testing.T) {
	reg := NewRegistry(sliderFactory(t, NewPlanCache()), RegistryOptions{})
	a, _ := reg.Acquire("alice")
	b, _ := reg.Acquire("bob")
	if err := a.SetSlider("w0", 3); err != nil {
		t.Fatal(err)
	}
	aSQL, _ := a.CurrentSQL(0)
	bSQL, _ := b.CurrentSQL(0)
	if !strings.Contains(aSQL, "a = 3") {
		t.Fatalf("alice sql = %s", aSQL)
	}
	if !strings.Contains(bSQL, "a = 1") {
		t.Fatalf("bob sql leaked alice's manipulation: %s", bSQL)
	}
}

func TestRegistryMaxSessionsEvictsLRU(t *testing.T) {
	clock := newFakeClock()
	reg := NewRegistry(sliderFactory(t, nil), RegistryOptions{MaxSessions: 2, Now: clock.now})
	reg.Acquire("a")
	clock.advance(time.Second)
	reg.Acquire("b")
	clock.advance(time.Second)
	reg.Acquire("a") // refresh a: b is now least recently used
	clock.advance(time.Second)
	reg.Acquire("c") // at cap: must evict b, not a
	if reg.Len() != 2 {
		t.Fatalf("live = %d, want 2", reg.Len())
	}
	st := reg.Stats()
	if st.EvictedLRU != 1 {
		t.Fatalf("evicted = %d, want 1", st.EvictedLRU)
	}
	// "a" must still be live: acquiring it is a hit, not a creation.
	before := reg.Stats().Created
	reg.Acquire("a")
	if after := reg.Stats().Created; after != before {
		t.Fatal("recently used session was evicted instead of the LRU one")
	}
	// "b" was evicted: acquiring it recreates.
	reg.Acquire("b")
	if got := reg.Stats(); got.Created != before+1 || got.EvictedLRU != 2 {
		t.Fatalf("after reacquiring b: %+v", got)
	}
}

func TestRegistryTTLExpiry(t *testing.T) {
	clock := newFakeClock()
	reg := NewRegistry(sliderFactory(t, nil), RegistryOptions{TTL: time.Minute, Now: clock.now})
	reg.Acquire("a")
	reg.Acquire("b")
	clock.advance(30 * time.Second)
	reg.Acquire("a") // keep a warm
	clock.advance(45 * time.Second)
	if n := reg.Sweep(); n != 1 {
		t.Fatalf("sweep retired %d sessions, want 1 (only b is past the TTL)", n)
	}
	if st := reg.Stats(); st.ExpiredTTL != 1 || st.LiveSessions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// An expired session is also replaced on direct Acquire, not resumed.
	clock.advance(2 * time.Minute)
	before := reg.Stats().Created
	reg.Acquire("a")
	if st := reg.Stats(); st.Created != before+1 || st.ExpiredTTL != 2 {
		t.Fatalf("expired session resumed instead of recreated: %+v", st)
	}
}

// An evicted key, when reacquired, must answer exactly like the original
// fresh session did — eviction loses cached work, never correctness.
func TestRegistryEvictedSessionRecreatedIdentically(t *testing.T) {
	clock := newFakeClock()
	reg := NewRegistry(sliderFactory(t, NewPlanCache()), RegistryOptions{MaxSessions: 1, Now: clock.now})
	a1, _ := reg.Acquire("a")
	if err := a1.SetSlider("w0", 2); err != nil {
		t.Fatal(err)
	}
	ref, err := a1.Results()
	if err != nil {
		t.Fatal(err)
	}
	refSQL, _ := a1.CurrentSQL(0)
	clock.advance(time.Second)
	reg.Acquire("other") // cap 1: evicts a
	clock.advance(time.Second)
	a2, _ := reg.Acquire("a")
	if a2 == a1 {
		t.Fatal("session was not evicted")
	}
	// Recreated sessions restart at the interface's initial state...
	if sql, _ := a2.CurrentSQL(0); !strings.Contains(sql, "a = 1") {
		t.Fatalf("recreated session sql = %s, want initial state", sql)
	}
	// ...and answer the same manipulation identically.
	if err := a2.SetSlider("w0", 2); err != nil {
		t.Fatal(err)
	}
	got, err := a2.Results()
	if err != nil {
		t.Fatal(err)
	}
	if sql, _ := a2.CurrentSQL(0); sql != refSQL {
		t.Fatalf("recreated sql = %s, want %s", sql, refSQL)
	}
	if len(got) != len(ref) || got[0].String() != ref[0].String() {
		t.Fatalf("recreated session answers differently:\n%s\nvs\n%s", got[0], ref[0])
	}
}

// Eviction must not lose cache-traffic accounting: the shared cache's
// counters equal the total interactions ever served, by live and evicted
// sessions alike.
func TestRegistryEvictionAccounting(t *testing.T) {
	clock := newFakeClock()
	pc := NewPlanCache()
	reg := NewRegistry(sliderFactory(t, pc), RegistryOptions{MaxSessions: 2, Now: clock.now, Plans: pc})
	total := 0
	for i, key := range []string{"a", "b", "c", "d", "a"} {
		sess, err := reg.Acquire(key)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= i; j++ {
			if err := sess.SetSlider("w0", float64(j)); err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Results(); err != nil {
				t.Fatal(err)
			}
			total++
		}
		clock.advance(time.Second)
	}
	st := reg.Stats()
	if got := st.Cache.ResultHits + st.Cache.ResultMisses; got != uint64(total) {
		t.Fatalf("aggregate result lookups = %d, want %d (evictions lost counters: %+v)", got, total, st)
	}
	if st.EvictedLRU != 3 {
		t.Fatalf("evictions = %d, want 3", st.EvictedLRU)
	}
}

// A request still holding an evicted session keeps counting after the
// registry has long forgotten the session: its reads land in the shared
// cache's counters, however late they come.
func TestRegistryStragglerAfterEvictionCounted(t *testing.T) {
	clock := newFakeClock()
	pc := NewPlanCache()
	reg := NewRegistry(sliderFactory(t, pc), RegistryOptions{MaxSessions: 1, Now: clock.now, Plans: pc})
	straggler, err := reg.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := straggler.Results(); err != nil {
		t.Fatal(err)
	}
	clock.advance(time.Second)
	if _, err := reg.Acquire("b"); err != nil { // cap 1: evicts a
		t.Fatal(err)
	}
	clock.advance(2 * time.Minute)
	reg.Sweep()
	for _, v := range []float64{5, 6, 5} {
		if err := straggler.SetSlider("w0", v); err != nil {
			t.Fatal(err)
		}
		if _, err := straggler.Results(); err != nil {
			t.Fatal(err)
		}
	}
	st := reg.Stats()
	if st.EvictedLRU != 1 {
		t.Fatalf("evictions = %d, want 1", st.EvictedLRU)
	}
	if st.Cache.ResultMisses != 3 || st.Cache.ResultHits != 1 {
		t.Fatalf("cache stats = %+v, want 3 misses + 1 hit (the straggler's reads after the sweep count)", st.Cache)
	}
}

// Every compile is one plan miss, whoever asked and however: page reads,
// plan-only and profiled explains, recompiles after a write, and reads from
// a session the registry already evicted.
func TestRegistryPlanMissesEqualCompiles(t *testing.T) {
	clock := newFakeClock()
	pc := NewPlanCache()
	sess, db := liveSession(t, pc)
	reg := NewRegistry(func() (*Session, error) {
		return NewSessionWithPlans(sess.Ifc, sess.Ctx, db, pc)
	}, RegistryOptions{MaxSessions: 2, Now: clock.now, Plans: pc})
	var evicted *Session
	for i, key := range []string{"a", "b", "a", "c", "d"} {
		s, err := reg.Acquire(key)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			evicted = s
		}
		if err := s.SetSlider("w0", float64(i%3)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Results(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.ExplainPlan(0); err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			appendT(t, db)
			if _, _, err := s.ExplainAnalyze(0); err != nil {
				t.Fatal(err)
			}
		}
		clock.advance(time.Second)
	}
	clock.advance(2 * time.Minute)
	reg.Sweep()
	if err := evicted.SetSlider("w0", 9); err != nil {
		t.Fatal(err)
	}
	if _, err := evicted.Results(); err != nil {
		t.Fatal(err)
	}
	st := reg.Stats()
	if st.EvictedLRU == 0 {
		t.Fatal("no session was evicted")
	}
	if st.Cache.PlanMisses != st.PlanCompiles {
		t.Fatalf("plan misses %d, compiles %d: want equal", st.Cache.PlanMisses, st.PlanCompiles)
	}
}

func TestRegistryCloseDrains(t *testing.T) {
	pc := NewPlanCache()
	reg := NewRegistry(sliderFactory(t, pc), RegistryOptions{Plans: pc})
	sess, _ := reg.Acquire("a")
	if _, err := sess.Results(); err != nil {
		t.Fatal(err)
	}
	reg.Close()
	if _, err := reg.Acquire("b"); err != ErrRegistryClosed {
		t.Fatalf("Acquire after Close = %v, want ErrRegistryClosed", err)
	}
	if _, err := reg.Acquire("a"); err != ErrRegistryClosed {
		t.Fatalf("Acquire of a drained session = %v, want ErrRegistryClosed", err)
	}
	// The drained sessions' counters survive in the aggregate.
	if st := reg.Stats(); st.LiveSessions != 0 || st.Cache.ResultMisses == 0 {
		t.Fatalf("post-close stats = %+v", st)
	}
	reg.Close() // idempotent
}

// The /stats fix: aggregation must not take session locks, so a session
// stuck mid-interaction (here: its mutex held outright) cannot stall the
// registry aggregate.
func TestRegistryStatsDoesNotTakeSessionLocks(t *testing.T) {
	pc := NewPlanCache()
	reg := NewRegistry(sliderFactory(t, pc), RegistryOptions{Plans: pc})
	sess, _ := reg.Acquire("stuck")
	if _, err := sess.Results(); err != nil {
		t.Fatal(err)
	}
	sess.mu.Lock() // simulate a long-running interaction
	defer sess.mu.Unlock()
	done := make(chan RegistryStats, 1)
	go func() { done <- reg.Stats() }()
	select {
	case st := <-done:
		if st.Cache.ResultMisses == 0 {
			t.Fatalf("aggregate missing the stuck session's counters: %+v", st)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Stats blocked on a busy session's lock")
	}
	// The lock-free path must also hold for the session's own snapshot.
	if st := sess.Stats(); st.ResultMisses == 0 {
		t.Fatalf("session snapshot = %+v", st)
	}
}

// The shared plan cache compiles and executes each distinct resolved query
// once across sessions: later sessions are served without executing.
func TestSharedPlanCacheCompilesOnceAcrossSessions(t *testing.T) {
	pc := NewPlanCache()
	reg := NewRegistry(sliderFactory(t, pc), RegistryOptions{Plans: pc})
	for _, key := range []string{"a", "b", "c"} {
		sess, _ := reg.Acquire(key)
		if err := sess.SetSlider("w0", 2); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Results(); err != nil {
			t.Fatal(err)
		}
	}
	if n := pc.compiles.Load(); n != 1 {
		t.Fatalf("compiles = %d, want 1 (one distinct resolved query)", n)
	}
	if n := pc.execs.Load(); n != 1 {
		t.Fatalf("execs = %d, want 1 (sessions b and c served without executing)", n)
	}
	st := reg.Stats()
	if st.Cache.ResultMisses != 1 || st.Cache.ResultHits != 2 || st.Cache.PlanMisses != 1 || st.Cache.PlanHits != 0 {
		t.Fatalf("cache stats = %+v, want 1 result miss + 2 shared result hits, 1 plan miss", st.Cache)
	}
	if st.SharedPlans != 1 || st.PlanCompiles != 1 {
		t.Fatalf("registry plan stats = %+v", st)
	}
	// Different resolved query -> new compilation.
	sess, _ := reg.Acquire("a")
	if err := sess.SetSlider("w0", 7); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Results(); err != nil {
		t.Fatal(err)
	}
	if n, x := pc.compiles.Load(), pc.execs.Load(); n != 2 || x != 2 {
		t.Fatalf("compiles, execs = %d, %d, want 2, 2", n, x)
	}
}
