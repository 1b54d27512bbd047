package iface

import (
	"sync"
	"sync/atomic"

	dt "pi2/internal/difftree"
	"pi2/internal/engine"
)

// PlanCache is the registry-wide cache of compiled plans and their results,
// shared across sessions.
//
// A Difftree's result is a function of the resolved query and the table
// generations it read; it does not depend on which session asked. So one
// cache serves every session: entries are keyed by difftree.Hash(ast) alone
// (difftree.Equal guards against collisions) and validated per use against
// the referenced tables' generations (engine.Plan.Stale). A write to one
// table replaces only the entries whose plans read it; every other entry
// stays resident and hot.
//
// Each entry holds the compiled plan and the last result executed from it.
// The result read exactly the table snapshots the plan was prepared
// against, so its dependencies are the plan's and it is served while the
// plan is fresh, by the same rule. Sessions keep no tables.
//
// Compilation and execution are single-flighted like the search layer's
// rewardCache: Prepare runs at most once per entry (its errors are
// deterministic for a fixed AST and generation, so they are memoized too),
// and a result is executed at most once per entry while it is kept, with
// concurrent requesters waiting for it. Execution errors are not kept.
// Sharding keeps sessions from serializing on one lock. Each shard's LRU
// bounds the number of resident plans, and results are charged rows ×
// columns against a registry-wide budget (maxResultCells), which drops the
// results of the shard's least recently used entries first.
//
// The cache also counts the serving traffic of every session it serves, in
// lock-free atomics (see CacheStats): each read is counted once, here, so
// the counts need no per-session bookkeeping and survive session eviction.
type PlanCache struct {
	shards [planShards]planShard

	resultHits    atomic.Uint64
	resultMisses  atomic.Uint64
	planHits      atomic.Uint64
	invalidations atomic.Uint64
	compiles      atomic.Uint64 // Prepare calls actually run: the plan misses
	execs         atomic.Uint64 // result executions actually run (for tests)
}

// CacheStats counts the serving traffic of one PlanCache, summed over every
// session it serves.
//
// A result hit is a tree read served without executing on the request's
// behalf: from a result any session executed, or by waiting for one in
// flight. A result miss is a read that executed, or failed.
//
// A plan miss is one compilation (Prepare). A plan hit is a request that
// used a resident plan it did not compile: an EXPLAIN, or a read whose
// entry holds a plan but no result — the result was dropped for the cell
// budget, or not kept because its execution failed. Since the result is
// cached beside its plan, a read that finds the plan almost always finds
// the result too, so plan hits are rare on the read path, and PlanHits over
// all plan lookups says little about plan reuse; ResultHits and PlanMisses
// carry that.
type CacheStats struct {
	ResultHits    uint64
	ResultMisses  uint64
	PlanHits      uint64
	PlanMisses    uint64
	Invalidations uint64 // kept results discarded because a table they read mutated
}

// stats returns a snapshot of the traffic counters without taking a lock.
func (pc *PlanCache) stats() CacheStats {
	return CacheStats{
		ResultHits:    pc.resultHits.Load(),
		ResultMisses:  pc.resultMisses.Load(),
		PlanHits:      pc.planHits.Load(),
		PlanMisses:    pc.compiles.Load(),
		Invalidations: pc.invalidations.Load(),
	}
}

// countResult counts one served tree read: a miss when the request
// executed it.
func (pc *PlanCache) countResult(executed bool) {
	if executed {
		pc.resultMisses.Add(1)
	} else {
		pc.resultHits.Add(1)
	}
}

const (
	planShards           = 8
	maxSharedPlansPerShd = 128 // 8 shards × 128 = 1024 plans registry-wide

	// maxResultCells bounds the cells (rows × columns) of the result tables
	// kept registry-wide, about 40 MB of engine.Value cells; each shard
	// keeps at most its equal share.
	maxResultCells         = 1 << 20
	maxResultCellsPerShard = maxResultCells / planShards
)

// planShard is one lock's worth of entries. cells and every entry's res
// field are guarded by mu.
type planShard struct {
	mu    sync.Mutex
	lru   *lruCache[uint64, *planEntry]
	cells int // cells of the results kept in this shard
}

// planEntry single-flights one resolved-AST compilation and holds the last
// result executed from it. ast guards against 64-bit key collisions; it is
// set before the entry is published and never written again. plan/err are
// written once inside once.Do; res is guarded by the shard mutex.
type planEntry struct {
	once sync.Once
	ast  *dt.Node
	plan *engine.Plan
	err  error

	res *resultCall // nil when no result is kept or being executed
}

// resultCall single-flights one execution of an entry's plan. tbl/err are
// written once inside once.Do; kept and cells are guarded by the shard
// mutex.
type resultCall struct {
	once  sync.Once
	tbl   *engine.Table
	err   error
	kept  bool // tbl is served from the cache and charged to the shard
	cells int
}

// NewPlanCache returns an empty shared plan cache.
func NewPlanCache() *PlanCache {
	pc := &PlanCache{}
	for i := range pc.shards {
		pc.shards[i].lru = newLRU[uint64, *planEntry](maxSharedPlansPerShd)
	}
	return pc
}

// planStaleRetries bounds how many times entry replaces a stale entry and
// recompiles before giving up and returning the (possibly still stale) plan
// — under a sustained writer the caller's Exec surfaces ErrStalePlan and
// the request layer decides what to do.
const planStaleRetries = 3

// Get returns the compiled plan for ast, compiling at most once across all
// sessions. It counts a plan hit when the plan was compiled by another
// request (the caller may have waited for its in-flight compilation, but no
// compilation ran on its behalf).
func (pc *PlanCache) Get(db *engine.DB, ast *dt.Node) (*engine.Plan, error) {
	e, _, compiled := pc.entry(db, ast)
	if !compiled {
		pc.planHits.Add(1)
	}
	return e.plan, e.err
}

// entry returns the resident entry for ast with its plan compiled. Resident
// plans are validated against the generations of the tables they read
// (engine.Plan.Stale); a stale entry is replaced in place, dropping its
// result (counted as an invalidation when one was kept), and recompiled,
// which touches only the written table's entries. compiled reports whether
// this call ran Prepare.
func (pc *PlanCache) entry(db *engine.DB, ast *dt.Node) (e *planEntry, sh *planShard, compiled bool) {
	key := dt.Hash(ast)
	sh = &pc.shards[key%planShards]
	for attempt := 0; ; attempt++ {
		sh.mu.Lock()
		e, ok := sh.lru.get(key)
		if !ok || !dt.Equal(e.ast, ast) {
			// A miss, or a 64-bit collision: replace rather than serve a
			// stranger's plan.
			e = &planEntry{ast: ast}
			sh.put(key, e)
		}
		sh.mu.Unlock()
		e.once.Do(func() {
			compiled = true
			pc.compiles.Add(1)
			e.plan, e.err = engine.Prepare(db, ast)
		})
		if e.err == nil && e.plan.Stale() && attempt < planStaleRetries {
			// Replace the stale entry (only if it is still the resident one —
			// another session may have already swapped it) and recompile.
			sh.mu.Lock()
			if cur, live := sh.lru.get(key); live && cur == e {
				if e.res != nil && e.res.kept {
					pc.invalidations.Add(1)
				}
				sh.put(key, &planEntry{ast: ast})
			}
			sh.mu.Unlock()
			continue
		}
		return e, sh, compiled
	}
}

// kept returns e's kept result, if any.
func (sh *planShard) kept(e *planEntry) (*engine.Table, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c := e.res; c != nil && c.kept {
		return c.tbl, true
	}
	return nil, false
}

// result returns the result of e's plan, executing it at most once across
// all sessions while the result is kept; a request arriving during an
// execution waits for it. ran reports whether this call executed the plan.
// before, when non-nil, runs in the executing call just before Exec.
func (pc *PlanCache) result(sh *planShard, e *planEntry, before func()) (tbl *engine.Table, ran bool, err error) {
	sh.mu.Lock()
	c := e.res
	if c == nil {
		c = &resultCall{}
		e.res = c
	}
	sh.mu.Unlock()
	c.once.Do(func() {
		ran = true
		if before != nil {
			before()
		}
		pc.execs.Add(1)
		c.tbl, c.err = e.plan.Exec()
		sh.settle(e, c)
	})
	return c.tbl, ran, c.err
}

// settle keeps a finished execution's result in its entry and charges it
// to the shard, then drops least recently used results until the shard is
// within its budget, the new one included when it alone exceeds it. A
// failed execution is detached instead, so the next request re-executes;
// so is a result whose entry was replaced while it ran.
func (sh *planShard) settle(e *planEntry, c *resultCall) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e.res != c {
		return
	}
	if c.err != nil {
		e.res = nil
		return
	}
	c.kept, c.cells = true, len(c.tbl.Rows)*len(c.tbl.Cols)
	sh.cells += c.cells
	sh.lru.oldest(func(old *planEntry) bool {
		if sh.cells <= maxResultCellsPerShard {
			return false
		}
		sh.drop(old)
		return true
	})
}

// put makes e the resident entry for key, dropping the result of the entry
// it displaces (the key's previous entry, or the shard's least recently
// used one at capacity).
func (sh *planShard) put(key uint64, e *planEntry) {
	if old, ok := sh.lru.put(key, e); ok {
		sh.drop(old)
	}
}

// drop detaches e's result, uncharging it if it was kept. A request still
// waiting on a detached execution gets its table, but the cache no longer
// serves it.
func (sh *planShard) drop(e *planEntry) {
	if c := e.res; c != nil {
		if c.kept {
			sh.cells -= c.cells
		}
		e.res = nil
	}
}

// Len reports the number of resident plans across all shards.
func (pc *PlanCache) Len() int {
	n := 0
	for i := range pc.shards {
		sh := &pc.shards[i]
		sh.mu.Lock()
		n += sh.lru.len()
		sh.mu.Unlock()
	}
	return n
}
