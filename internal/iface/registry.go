package iface

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrRegistryClosed is returned by Acquire after Close: the server is
// draining and no new sessions may be created or resumed.
var ErrRegistryClosed = errors.New("iface: session registry closed")

// DefaultMaxSessions is the registry capacity when RegistryOptions leaves
// MaxSessions unset.
const DefaultMaxSessions = 64

// RegistryOptions configures a Registry.
type RegistryOptions struct {
	// MaxSessions bounds the number of live sessions; at the cap the least
	// recently used session is evicted to admit a new one. <= 0 means
	// DefaultMaxSessions.
	MaxSessions int
	// TTL evicts sessions idle longer than this (checked on Acquire and
	// Sweep). 0 disables idle expiry.
	TTL time.Duration
	// Plans is the PlanCache the factory's sessions share (see
	// NewSessionWithPlans). Stats reports its occupancy, compile count and
	// traffic counters, which read zero when Plans is nil. The registry
	// does not manage it: the factory decides which cache sessions use.
	Plans *PlanCache
	// Now is the clock, injectable for TTL tests. nil means time.Now.
	Now func() time.Time
}

// RegistryStats is the multi-session serving aggregate: registry occupancy
// and eviction counters plus the traffic counters of the shared PlanCache
// (RegistryOptions.Plans). Every session's reads are counted in that cache,
// so the aggregate covers sessions evicted long ago, and requests still
// holding them, without tracking any session.
type RegistryStats struct {
	LiveSessions int    `json:"live_sessions"`
	Created      uint64 `json:"created"`      // sessions built by the factory
	Hits         uint64 `json:"hits"`         // Acquires answered by a live session
	EvictedLRU   uint64 `json:"evicted_lru"`  // evicted for capacity
	ExpiredTTL   uint64 `json:"expired_ttl"`  // evicted for idleness
	SharedPlans  int    `json:"shared_plans"` // resident entries in the shared PlanCache
	PlanCompiles uint64 `json:"plan_compiles"`

	Cache CacheStats `json:"cache"` // the shared PlanCache's traffic counters
}

// Registry serves per-user sessions created on demand: Acquire(key) returns
// the live session for the key or builds one via the factory, enforcing an
// LRU capacity bound and an idle TTL. It is the multi-tenant core of the
// serving layer — one generated interface, many concurrent users, each with
// independent binding state.
//
// Locking hierarchy (top to bottom; a holder may only take locks below its
// own):
//
//	registry.mu  >  session.mu  >  PlanCache shard mu
//
// The registry mutex is an RWMutex guarding only the session table: the
// Acquire fast path takes the read lock for a map lookup (recency is an
// atomic timestamp, so no list juggling under a write lock), and all query
// execution happens after release, under the per-session mutex. Sessions
// therefore never serialize on each other — two users brushing two sessions
// run concurrently, contending only for microseconds on the table lock and
// on one shard of the shared PlanCache. The registry never calls into a
// session: Stats reads the registry's own counters and the shared
// PlanCache, whose traffic counters are atomics.
//
// An evicted session stays valid for requests already holding its pointer
// (its own mutex still protects it); it has merely left the table, so the
// next Acquire of its key builds a fresh session back at the interface's
// initial state.
type Registry struct {
	factory func() (*Session, error)
	max     int
	ttl     time.Duration
	now     func() time.Time
	plans   *PlanCache

	mu       sync.RWMutex
	sessions map[string]*regEntry
	closed   bool
	// Bumped only under mu (write), so Stats reads them consistently with
	// the session table; atomic so metrics scrapes read them lock-free.
	created, evictedLRU, expiredTTL atomic.Uint64

	hits atomic.Uint64 // bumped on the read-locked fast path
}

// regEntry is one live session. lastAccess is atomic so the Acquire fast
// path can refresh recency under the registry's read lock.
type regEntry struct {
	key        string
	sess       *Session
	lastAccess atomic.Int64 // unix nanoseconds
}

// NewRegistry builds a registry over a session factory. The factory runs
// under the registry write lock (session creation is rare and cheap next to
// query execution) and must not call back into the registry.
func NewRegistry(factory func() (*Session, error), opts RegistryOptions) *Registry {
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = DefaultMaxSessions
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Registry{
		factory:  factory,
		max:      opts.MaxSessions,
		ttl:      opts.TTL,
		now:      opts.Now,
		plans:    opts.Plans,
		sessions: map[string]*regEntry{},
	}
}

// Lookup returns the live session for key without creating one on miss.
// Read-only endpoints use it so scrapes, typos, and probes can never churn
// session creation or evict an active user. A hit refreshes recency.
func (r *Registry) Lookup(key string) (*Session, bool) {
	now := r.now()
	r.mu.RLock()
	e := r.sessions[key]
	r.mu.RUnlock()
	if e == nil || r.expired(e, now) {
		return nil, false
	}
	e.lastAccess.Store(now.UnixNano())
	r.hits.Add(1)
	return e.sess, true
}

// Acquire returns the session for key, creating it on demand. The returned
// session remains valid even if it is later evicted.
func (r *Registry) Acquire(key string) (*Session, error) {
	now := r.now()
	r.mu.RLock()
	e, closed := r.sessions[key], r.closed
	r.mu.RUnlock()
	if e != nil && !r.expired(e, now) {
		e.lastAccess.Store(now.UnixNano())
		r.hits.Add(1)
		return e.sess, nil
	}
	if closed {
		return nil, ErrRegistryClosed
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrRegistryClosed
	}
	if e := r.sessions[key]; e != nil {
		if !r.expired(e, now) { // lost the race to another creator: reuse
			e.lastAccess.Store(now.UnixNano())
			r.hits.Add(1)
			return e.sess, nil
		}
		r.retireLocked(e, &r.expiredTTL)
	}
	r.sweepLocked(now)
	for len(r.sessions) >= r.max {
		r.retireLocked(r.lruVictimLocked(), &r.evictedLRU)
	}
	sess, err := r.factory()
	if err != nil {
		return nil, err
	}
	e = &regEntry{key: key, sess: sess}
	e.lastAccess.Store(now.UnixNano())
	r.sessions[key] = e
	r.created.Add(1)
	return sess, nil
}

func (r *Registry) expired(e *regEntry, now time.Time) bool {
	return r.ttl > 0 && now.Sub(time.Unix(0, e.lastAccess.Load())) > r.ttl
}

// lruVictimLocked picks the least recently used entry; ties break toward
// the smaller key so eviction under an injected coarse clock stays
// deterministic.
func (r *Registry) lruVictimLocked() *regEntry {
	var victim *regEntry
	for _, e := range r.sessions {
		if victim == nil {
			victim = e
			continue
		}
		ea, va := e.lastAccess.Load(), victim.lastAccess.Load()
		if ea < va || (ea == va && e.key < victim.key) {
			victim = e
		}
	}
	return victim
}

// retireLocked removes the entry and bumps the given eviction counter.
// Nothing here touches the session, so retiring never blocks on an
// in-flight request still using it.
func (r *Registry) retireLocked(e *regEntry, counter *atomic.Uint64) {
	delete(r.sessions, e.key)
	counter.Add(1)
}

// sweepLocked retires every TTL-expired session, returning how many.
func (r *Registry) sweepLocked(now time.Time) int {
	if r.ttl <= 0 {
		return 0
	}
	n := 0
	for _, e := range r.sessions {
		if r.expired(e, now) {
			r.retireLocked(e, &r.expiredTTL)
			n++
		}
	}
	return n
}

// Sweep retires idle sessions past the TTL; servers call it periodically so
// an abandoned fleet shrinks without waiting for the next Acquire.
func (r *Registry) Sweep() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sweepLocked(r.now())
}

// Len reports the number of live sessions.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sessions)
}

// Stats reports registry occupancy and eviction counters plus the shared
// PlanCache's occupancy and traffic. It reads no session, so it never
// stalls behind (or stalls) a long-running interaction.
func (r *Registry) Stats() RegistryStats {
	r.mu.RLock()
	st := RegistryStats{
		LiveSessions: len(r.sessions),
		Created:      r.created.Load(),
		Hits:         r.hits.Load(),
		EvictedLRU:   r.evictedLRU.Load(),
		ExpiredTTL:   r.expiredTTL.Load(),
	}
	r.mu.RUnlock()
	if r.plans != nil {
		st.SharedPlans = r.plans.Len()
		st.Cache = r.plans.stats()
		st.PlanCompiles = st.Cache.PlanMisses // one load: the two always agree
	}
	return st
}

// Close drains the registry: every live session leaves the table (their
// pointers stay valid for requests still finishing, which keep counting in
// the shared PlanCache) and subsequent Acquires fail with
// ErrRegistryClosed. Safe to call more than once.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	clear(r.sessions)
}
