package iface

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRegistryStress hammers one registry from many goroutines across many
// session keys, with the capacity bound set low enough that LRU eviction
// churns continuously. It runs in CI under -race (the short suite shrinks
// the iteration counts, not the shape) and asserts three contracts:
//
//  1. No lost updates: with one goroutine per key, every interaction's
//     result matches the single-session reference for the value just set —
//     sessions never leak binding state into each other, and an evicted
//     session recreated mid-stream answers identically.
//  2. Exact eviction accounting: after quiescence, the shared cache's
//     counters equal the interactions issued, evicted sessions included.
//  3. Race freedom across the registry fast path, eviction, the shared
//     plan and result cache's single flight, and concurrent same-session
//     traffic.
func TestRegistryStress(t *testing.T) {
	goroutines, iters := 8, 120
	if testing.Short() {
		goroutines, iters = 4, 40
	}

	ifc, ctx := buildSliderInterface(t)
	pc := NewPlanCache()
	factory := func() (*Session, error) { return NewSessionWithPlans(ifc, ctx, testDB, pc) }
	// Capacity below the key count so eviction churns the whole run.
	reg := NewRegistry(factory, RegistryOptions{MaxSessions: goroutines/2 + 1, Plans: pc})

	// Reference answers from a plain standalone session, value -> rendered
	// result table.
	refSess, err := NewSession(ifc, ctx, testDB)
	if err != nil {
		t.Fatal(err)
	}
	values := []float64{1, 2, 3}
	ref := map[float64]string{}
	for _, v := range values {
		if err := refSess.SetSlider("w0", v); err != nil {
			t.Fatal(err)
		}
		res, err := refSess.Results()
		if err != nil {
			t.Fatal(err)
		}
		ref[v] = res[0].String()
	}

	var interactions atomic.Uint64
	var wg sync.WaitGroup

	// Phase 1: one goroutine per key — per-key traffic is sequential, so
	// every Results must reflect the SetSlider just issued even when the
	// session is evicted and recreated between iterations.
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("user-%d", g)
			for i := 0; i < iters; i++ {
				v := values[(g+i)%len(values)]
				sess, err := reg.Acquire(key)
				if err != nil {
					t.Errorf("acquire %s: %v", key, err)
					return
				}
				if err := sess.SetSlider("w0", v); err != nil {
					t.Errorf("%s: %v", key, err)
					return
				}
				res, err := sess.Results()
				if err != nil {
					t.Errorf("%s: %v", key, err)
					return
				}
				interactions.Add(1)
				if got := res[0].String(); got != ref[v] {
					t.Errorf("%s iter %d: result for %v diverged:\n%s\nwant\n%s", key, i, v, got, ref[v])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Phase 2: all goroutines share two keys — concurrent traffic on the
	// same session serializes on its mutex; results must come back healthy
	// (they reflect whichever slider write landed last, so only errors and
	// races are checkable here).
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("shared-%d", g%2)
			for i := 0; i < iters; i++ {
				sess, err := reg.Acquire(key)
				if err != nil {
					t.Errorf("acquire %s: %v", key, err)
					return
				}
				if err := sess.SetSlider("w0", values[(g+i)%len(values)]); err != nil {
					t.Errorf("%s: %v", key, err)
					return
				}
				if _, err := sess.Results(); err != nil {
					t.Errorf("%s: %v", key, err)
					return
				}
				interactions.Add(1)
				if _, statErr := sess.CurrentSQL(0); statErr != nil {
					t.Errorf("%s: %v", key, statErr)
					return
				}
				_ = reg.Stats() // aggregate reads race-tested against everything above
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	st := reg.Stats()
	want := interactions.Load()
	if got := st.Cache.ResultHits + st.Cache.ResultMisses; got != want {
		t.Fatalf("aggregate result lookups = %d, want %d — eviction lost counter updates (%+v)", got, want, st)
	}
	if st.LiveSessions > goroutines/2+1 {
		t.Fatalf("live sessions = %d exceeds the cap %d", st.LiveSessions, goroutines/2+1)
	}
	if st.EvictedLRU == 0 {
		t.Fatal("stress run never evicted — capacity bound not exercised")
	}
	if st.Created != st.EvictedLRU+uint64(st.LiveSessions) {
		t.Fatalf("session accounting inconsistent: created %d != evicted %d + live %d",
			st.Created, st.EvictedLRU, st.LiveSessions)
	}
	// Three distinct slider values resolve to three distinct queries; the
	// shared single-flight cache must have compiled and executed each
	// exactly once no matter how many sessions raced for it: every other
	// read was served without executing.
	if n := pc.compiles.Load(); n != uint64(len(values)) {
		t.Fatalf("shared plan compiles = %d, want %d", n, len(values))
	}
	if n := pc.execs.Load(); n != uint64(len(values)) {
		t.Fatalf("shared executions = %d, want %d", n, len(values))
	}
	if st.Cache.ResultMisses != uint64(len(values)) {
		t.Fatalf("aggregate result misses = %d, want %d (one per distinct query)", st.Cache.ResultMisses, len(values))
	}

	// Evicted-then-recreated sessions answer identically after the storm.
	sess, err := reg.Acquire("user-0")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SetSlider("w0", values[0]); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].String(); got != ref[values[0]] {
		t.Fatalf("post-stress session diverged:\n%s\nwant\n%s", got, ref[values[0]])
	}
}
