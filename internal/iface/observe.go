package iface

import (
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"pi2/internal/engine"
	"pi2/internal/obs"
)

// servedEndpoints is the fixed label set for per-endpoint serving metrics.
// The list is closed on purpose: labels from request paths would let a
// client mint unbounded time series.
var servedEndpoints = []string{
	"/", "/widget", "/interact", "/reset", "/sql", "/ingest", "/stats", "/healthz", "/metrics",
}

// servedPhases are the span-name prefixes (the part before the first '.')
// aggregated into per-phase latency histograms: acquire = session lookup or
// construction, plan = resolve+compile on a cache miss, exec = query
// execution, render = HTML assembly, apply = widget/interaction mutation.
var servedPhases = []string{"acquire", "plan", "exec", "render", "apply"}

// ServerObs is the serving observability bundle: a metrics registry fed by
// per-endpoint middleware, per-phase latency histograms fed from request
// traces, and an optional slow-query log. A nil *ServerObs disables
// everything — Server.Handler wires routes straight through and the request
// path carries no trace.
type ServerObs struct {
	Metrics *obs.Registry
	Slow    *obs.SlowLog

	start     time.Time
	inFlight  *obs.Gauge
	slowTotal *obs.Counter
	lat       map[string]*obs.Histogram
	phase     map[string]*obs.Histogram
}

// NewServerObs builds the serving instruments on m (which must be non-nil)
// and attaches slow (which may be nil: no slow log).
func NewServerObs(m *obs.Registry, slow *obs.SlowLog) *ServerObs {
	o := &ServerObs{
		Metrics: m,
		Slow:    slow,
		start:   time.Now(),
		lat:     make(map[string]*obs.Histogram, len(servedEndpoints)),
		phase:   make(map[string]*obs.Histogram, len(servedPhases)),
	}
	o.inFlight = m.Gauge("pi2_http_in_flight", "Requests currently being served.")
	o.slowTotal = m.Counter("pi2_http_slow_requests_total", "Requests that exceeded the slow-query threshold.")
	m.GaugeFunc("pi2_uptime_seconds", "Seconds since the server started.", func() float64 {
		return time.Since(o.start).Seconds()
	})
	for _, p := range servedEndpoints {
		h := m.Histogram("pi2_http_request_seconds", "HTTP request latency in seconds, by endpoint.", nil, "path", p)
		o.lat[p] = h
		// The request count is the latency histogram's observation count,
		// read at scrape time — one fewer atomic write (and cache line) on
		// the per-request hot path than a separate counter.
		m.CounterFunc("pi2_http_requests_total", "HTTP requests served, by endpoint.", func() float64 {
			return float64(h.Count())
		}, "path", p)
	}
	for _, ph := range servedPhases {
		o.phase[ph] = m.Histogram("pi2_phase_seconds", "Request phase latency in seconds (from trace spans).", nil, "phase", ph)
	}
	return o
}

// wrap instruments one route: it opens a request trace (propagated via the
// request context so session/engine layers can attach spans), counts the
// request, observes its latency and per-phase span durations, and feeds the
// slow log when the request exceeds the threshold. On a nil receiver it
// returns h unchanged — the disabled server serves exactly the seed handler
// chain.
func (o *ServerObs) wrap(path string, h http.HandlerFunc) http.HandlerFunc {
	if o == nil {
		return h
	}
	lat := o.lat[path]
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := obs.NowMono()
		o.inFlight.Inc()
		tr := obs.NewTrace("")
		w.Header().Set("X-Trace-Id", tr.ID)
		h(w, r.WithContext(obs.WithTrace(r.Context(), tr)))
		d := obs.NowMono() - t0
		o.inFlight.Dec()
		lat.ObserveDuration(d)
		for _, sp := range tr.Spans() {
			if ph := o.phase[phaseOf(sp.Name)]; ph != nil {
				ph.ObserveDuration(sp.Dur)
			}
		}
		if o.Slow.Slow(d) {
			o.slowTotal.Inc()
			o.Slow.Record("http", r.Method+" "+path, d, tr)
		}
	}
}

// phaseOf maps a span name to its phase bucket: the prefix before the first
// '.' ("exec.t1" -> "exec"), or the whole name when there is none.
func phaseOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// ObserveEngine exposes the engine's access-path instrumentation for db:
// func-backed counters for index builds, index hits, and statistics builds
// (read at scrape time from the DB's own atomics — no double counting, no
// extra work on the query path) plus a per-kind build-latency histogram fed
// by the engine's build hook, and likewise for the columnar and live-table
// layers. Either nil is a no-op.
func (o *ServerObs) ObserveEngine(db *engine.DB) {
	if o == nil || db == nil {
		return
	}
	m := o.Metrics
	m.CounterFunc("pi2_engine_index_builds_total", "Per-column indexes built (hash and sorted).", func() float64 {
		return float64(db.IndexCounters().Builds)
	})
	m.CounterFunc("pi2_engine_index_hits_total", "Scans and join builds served from a per-column index.", func() float64 {
		return float64(db.IndexCounters().Hits)
	})
	m.CounterFunc("pi2_engine_stats_builds_total", "Table-statistics computations.", func() float64 {
		return float64(db.IndexCounters().StatsBuilds)
	})
	// An Append's first reader extends the written table's hash indexes and
	// statistics instead of rebuilding them; extensions time under their
	// own kinds and leave the build counters alone.
	hists := make(map[string]*obs.Histogram, 5)
	for _, kind := range []string{"hash", "sorted", "stats", "hash-extend", "stats-extend"} {
		hists[kind] = m.Histogram("pi2_engine_index_build_seconds",
			"Index and statistics build (and extension) latency in seconds, by kind.", nil, "kind", kind)
	}
	db.OnIndexBuild(func(kind string, d time.Duration) {
		if h := hists[kind]; h != nil {
			h.ObserveDuration(d)
		}
	})

	// Columnar-layer instruments: func-backed counters over the engine's
	// atomics, plus a rows-per-batch histogram fed by the batch hook. The
	// bucket edges cover the power-of-two sub-batch sizes up to the full
	// batch — a healthy vectorized workload should pile up in the last one.
	m.CounterFunc("pi2_engine_column_builds_total", "Columnar storage builds, one per column.", func() float64 {
		return float64(db.ColumnarCounters().ColumnBuilds)
	})
	m.CounterFunc("pi2_engine_batches_total", "Vectorized batches processed.", func() float64 {
		return float64(db.ColumnarCounters().Batches)
	})
	batchHist := m.Histogram("pi2_engine_batch_rows",
		"Rows per vectorized batch.", []float64{64, 256, 512, 1024})
	db.OnBatch(func(rows int) {
		batchHist.Observe(float64(rows))
	})

	// Live-table instruments: append traffic and per-table invalidation
	// counters. The table label set is closed at registration time (mirrors
	// servedEndpoints: labels minted from runtime state would be unbounded)
	// — tables added after startup are still counted in the aggregate
	// append counters, just not per-label.
	m.CounterFunc("pi2_engine_appends_total", "Append batches committed to live tables.", func() float64 {
		return float64(db.AppendCounters().Appends)
	})
	m.CounterFunc("pi2_engine_append_rows_total", "Rows appended to live tables.", func() float64 {
		return float64(db.AppendCounters().Rows)
	})
	for _, name := range db.TableNames() {
		name := name
		m.CounterFunc("pi2_engine_table_invalidations_total", "Cache invalidations caused by writes, by table.", func() float64 {
			return float64(db.InvalidationCount(name))
		}, "table", name)
	}
}

// RegisterServingMetrics exposes a Registry's session counters and its
// shared PlanCache's counters on m as func-backed metrics, read at scrape
// time from the same atomics /stats reports — no double counting, no
// bookkeeping on the serving path, and no session is read. Without a shared
// PlanCache (RegistryOptions.Plans) the cache series read 0. Either nil is
// a no-op.
func RegisterServingMetrics(m *obs.Registry, reg *Registry) {
	if m == nil || reg == nil {
		return
	}
	counter := func(name, help string, c *atomic.Uint64, labels ...string) {
		m.CounterFunc(name, help, func() float64 { return float64(c.Load()) }, labels...)
	}
	m.GaugeFunc("pi2_sessions_live", "Sessions currently resident in the registry.", func() float64 {
		return float64(reg.Len())
	})
	counter("pi2_sessions_created_total", "Sessions built by the factory.", &reg.created)
	counter("pi2_sessions_hits_total", "Acquires answered by a live session.", &reg.hits)
	counter("pi2_sessions_evicted_total", "Sessions evicted from the registry.", &reg.evictedLRU, "reason", "lru")
	counter("pi2_sessions_evicted_total", "Sessions evicted from the registry.", &reg.expiredTTL, "reason", "ttl")

	pc := reg.plans
	if pc == nil {
		pc = NewPlanCache() // stays empty: its series read 0
	}
	m.GaugeFunc("pi2_shared_plans", "Compiled plans resident in the shared cross-session cache.", func() float64 {
		return float64(pc.Len())
	})
	counter("pi2_plan_compiles_total", "Queries compiled by the shared plan cache.", &pc.compiles)
	counter("pi2_cache_hits_total", "Interaction-cache hits, by layer.", &pc.resultHits, "layer", "result")
	counter("pi2_cache_misses_total", "Interaction-cache misses, by layer.", &pc.resultMisses, "layer", "result")
	counter("pi2_cache_hits_total", "Interaction-cache hits, by layer.", &pc.planHits, "layer", "plan")
	counter("pi2_cache_misses_total", "Interaction-cache misses, by layer.", &pc.compiles, "layer", "plan")
	counter("pi2_cache_invalidations_total", "Cache flushes triggered by DB mutation.", &pc.invalidations)
}
