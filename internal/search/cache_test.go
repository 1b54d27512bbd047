package search

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestRewardCacheSingleFlight: concurrent get calls for one hash run the
// compute function exactly once and all callers see its value.
func TestRewardCacheSingleFlight(t *testing.T) {
	rc := newRewardCache()
	var computes atomic.Int64
	const goroutines = 32
	results := make([]float64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = rc.get(42, func() float64 {
				computes.Add(1)
				return -123.5
			})
		}(g)
	}
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", got)
	}
	for g := range results {
		if results[g] != -123.5 {
			t.Fatalf("goroutine %d saw %g", g, results[g])
		}
	}
	if rc.size() != 1 {
		t.Fatalf("size = %d, want 1", rc.size())
	}
}

// TestRewardCacheDistinctHashes: different hashes compute independently.
func TestRewardCacheDistinctHashes(t *testing.T) {
	rc := newRewardCache()
	for h := uint64(0); h < 100; h++ {
		h := h
		got := rc.get(h, func() float64 { return float64(h) })
		if got != float64(h) {
			t.Fatalf("get(%d) = %g", h, got)
		}
	}
	if rc.size() != 100 {
		t.Fatalf("size = %d, want 100", rc.size())
	}
	// second pass: all hits, computes must not run
	for h := uint64(0); h < 100; h++ {
		got := rc.get(h, func() float64 {
			t.Fatalf("compute re-ran for %d", h)
			return 0
		})
		if got != float64(h) {
			t.Fatalf("cached get(%d) = %g", h, got)
		}
	}
}

// TestParallelSearchDeterministicWithSharedCaches: repeat multi-worker runs
// with one seed converge on the identical state even though workers race on
// the shared caches.
func TestParallelSearchDeterministicWithSharedCaches(t *testing.T) {
	ctx := ctxFor(t,
		"SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p",
		"SELECT p, count(*) FROM T WHERE a = 2 GROUP BY p")
	p := fastParams()
	p.Workers = 3
	p.SyncInterval = 5
	a := Run(ctx, testDB, p)
	b := Run(ctx, testDB, p)
	if a.State.Hash() != b.State.Hash() || a.BestReward != b.BestReward {
		t.Fatalf("same seed, different outcomes: %g vs %g", a.BestReward, b.BestReward)
	}
}
