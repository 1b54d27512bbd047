package iface

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"pi2/internal/engine"
	"pi2/internal/obs"
	"pi2/internal/sqlparser"
)

// newObsHandler builds a registry-mode server with full observability
// attached, driven synchronously via ResponseRecorders (no test server, no
// goroutines — after ServeHTTP returns, every metric and slow-log line is
// written).
func newObsHandler(t *testing.T, slow *obs.SlowLog) (http.Handler, *ServerObs, *Registry) {
	t.Helper()
	ifc, ctx := buildSliderInterface(t)
	pc := NewPlanCache()
	reg := NewRegistry(func() (*Session, error) {
		return NewSessionWithPlans(ifc, ctx, testDB, pc)
	}, RegistryOptions{Plans: pc})
	m := obs.NewRegistry()
	o := NewServerObs(m, slow)
	RegisterServingMetrics(m, reg)
	o.ObserveEngine(testDB)
	return NewRegistryServer(reg).WithObs(o).Handler(), o, reg
}

func doReq(h http.Handler, method, target string, form url.Values) *httptest.ResponseRecorder {
	var req *http.Request
	if form != nil {
		req = httptest.NewRequest(method, target, strings.NewReader(form.Encode()))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func TestMetricsEndpointScrape(t *testing.T) {
	h, _, _ := newObsHandler(t, nil)
	doReq(h, "GET", "/?session=alice", nil)
	doReq(h, "GET", "/?session=alice", nil)
	doReq(h, "POST", "/widget", url.Values{"session": {"alice"}, "id": {"w0"}, "value": {"3"}})

	rr := doReq(h, "GET", "/metrics", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body := rr.Body.String()
	if err := obs.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		`pi2_http_requests_total{path="/"} 2`,
		`pi2_http_request_seconds_bucket{path="/",le="+Inf"} 2`,
		`pi2_http_request_seconds_count{path="/"} 2`,
		`pi2_phase_seconds_count{phase="acquire"}`,
		`pi2_cache_hits_total{layer="result"}`,
		`pi2_cache_misses_total{layer="plan"}`,
		"pi2_sessions_live 1",
		"pi2_sessions_created_total 1",
		"pi2_uptime_seconds",
		"pi2_http_in_flight",
		"pi2_engine_index_builds_total",
		"pi2_engine_index_hits_total",
		"pi2_engine_stats_builds_total",
		`pi2_engine_index_build_seconds_bucket{kind="hash",le="+Inf"}`,
		"pi2_engine_column_builds_total",
		"pi2_engine_batches_total",
		`pi2_engine_batch_rows_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

func TestMetricsRouteAbsentWithoutObs(t *testing.T) {
	srv, _ := newTestServer(t) // no WithObs
	// Without observability /metrics is not routed: the catch-all "/" serves
	// the interface page, and no Prometheus text leaks anywhere.
	_, body := get(t, srv.URL+"/metrics")
	if strings.Contains(body, "pi2_http_requests_total") {
		t.Fatalf("uninstrumented server exposes metrics:\n%s", body)
	}
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Trace-Id") != "" {
		t.Fatal("uninstrumented response carries X-Trace-Id")
	}
}

func TestTraceIDHeader(t *testing.T) {
	h, _, _ := newObsHandler(t, nil)
	rr := doReq(h, "GET", "/healthz", nil)
	if rr.Header().Get("X-Trace-Id") == "" {
		t.Fatal("instrumented response missing X-Trace-Id")
	}
}

func TestIndexRecordsPhaseHistograms(t *testing.T) {
	h, o, _ := newObsHandler(t, nil)
	doReq(h, "GET", "/?session=alice", nil)
	for _, phase := range []string{"acquire", "plan", "exec", "render"} {
		if n := o.phase[phase].Count(); n == 0 {
			t.Errorf("phase %q recorded no observations", phase)
		}
	}
	// Second hit: results come from the cache, so no new plan/exec spans.
	plans := o.phase["plan"].Count()
	doReq(h, "GET", "/?session=alice", nil)
	if n := o.phase["plan"].Count(); n != plans {
		t.Errorf("cached page load recorded %d new plan spans", n-plans)
	}
	if n := o.phase["render"].Count(); n < 2 {
		t.Errorf("render spans = %d, want one per page load", n)
	}
}

// scrape fetches /metrics and parses each sample line into series name
// (with its labels, as exposed) -> value.
func scrape(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rr := doReq(h, "GET", "/metrics", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rr.Code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(rr.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// Every figure /metrics reports for the server and the engine equals its
// source: the request middleware's own state, and the DB's counters.
func TestMetricsMatchSources(t *testing.T) {
	plans := NewPlanCache()
	sess, db := liveSession(t, plans)
	reg := NewRegistry(func() (*Session, error) {
		return NewSessionWithPlans(sess.Ifc, sess.Ctx, db, plans)
	}, RegistryOptions{Plans: plans})
	m := obs.NewRegistry()
	before := time.Now()
	o := NewServerObs(m, nil)
	after := time.Now()
	RegisterServingMetrics(m, reg)
	o.ObserveEngine(db)
	h := NewRegistryServer(reg).WithObs(o).WithIngest(db).Handler()

	doReq(h, "GET", "/?session=alice", nil)
	doReq(h, "POST", "/widget", url.Values{"session": {"alice"}, "id": {"w0"}, "value": {"3"}})
	doReq(h, "GET", "/?session=alice", nil)
	doReq(h, "GET", "/stats", nil)
	for _, body := range []string{`{"p": 1, "a": 3, "b": 2}` + "\n", `{"p": 2, "a": 1, "b": 1}` + "\n" + `{"p": 3, "a": 3, "b": 5}` + "\n"} {
		req := httptest.NewRequest("POST", "/ingest?table=T", strings.NewReader(body))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			t.Fatalf("/ingest status = %d: %s", rr.Code, rr.Body.String())
		}
	}
	doReq(h, "GET", "/?session=bob", nil)
	// A grouped read over a large table runs the columnar path and builds
	// indexes and statistics, so those series move too.
	for _, q := range []string{
		"SELECT hour, count(*) FROM flights WHERE dist > 500 GROUP BY hour",
		"SELECT hour, avg(dist) FROM flights WHERE delay = 45 GROUP BY hour",
	} {
		plan, err := engine.Prepare(db, sqlparser.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.Exec(); err != nil {
			t.Fatal(err)
		}
	}

	lo := time.Since(after).Seconds()
	got := scrape(t, h)
	hi := time.Since(before).Seconds()
	if v := got["pi2_uptime_seconds"]; v < lo || v > hi {
		t.Errorf("pi2_uptime_seconds = %v, want within [%v, %v]", v, lo, hi)
	}
	// The scrape runs inside the middleware, so it counts itself as in flight.
	if v := got["pi2_http_in_flight"]; v != 1 {
		t.Errorf("pi2_http_in_flight = %v, want 1 (the scrape itself)", v)
	}
	for path, want := range map[string]float64{"/": 3, "/widget": 1, "/stats": 1, "/ingest": 2, "/metrics": 0, "/sql": 0} {
		for _, series := range []string{
			`pi2_http_requests_total{path="` + path + `"}`,
			`pi2_http_request_seconds_count{path="` + path + `"}`,
		} {
			if v, ok := got[series]; !ok || v != want {
				t.Errorf("%s = %v (exposed %v), want %v", series, v, ok, want)
			}
		}
	}

	idx, col, app := db.IndexCounters(), db.ColumnarCounters(), db.AppendCounters()
	if idx.Builds == 0 || idx.StatsBuilds == 0 || col.ColumnBuilds == 0 || col.Batches == 0 || app.Appends != 2 {
		t.Fatalf("workload left engine counters idle: %+v %+v %+v", idx, col, app)
	}
	var invalidations float64
	for _, name := range db.TableNames() {
		v, ok := got[`pi2_engine_table_invalidations_total{table="`+name+`"}`]
		if !ok {
			t.Errorf("no invalidation series for table %s", name)
		}
		invalidations += v
	}
	for series, want := range map[string]uint64{
		"pi2_engine_index_builds_total":  idx.Builds,
		"pi2_engine_index_hits_total":    idx.Hits,
		"pi2_engine_stats_builds_total":  idx.StatsBuilds,
		"pi2_engine_column_builds_total": col.ColumnBuilds,
		"pi2_engine_batches_total":       col.Batches,
		"pi2_engine_batch_rows_count":    col.Batches,
		"pi2_engine_batch_rows_sum":      col.BatchRows,
		"pi2_engine_appends_total":       app.Appends,
		"pi2_engine_append_rows_total":   app.Rows,
	} {
		if v, ok := got[series]; !ok || v != float64(want) {
			t.Errorf("%s = %v (exposed %v), want %d", series, v, ok, want)
		}
	}
	if invalidations != float64(app.Invalidations) || app.Invalidations == 0 {
		t.Errorf("per-table invalidations sum to %v, want %d", invalidations, app.Invalidations)
	}

	st := reg.Stats()
	for series, want := range map[string]uint64{
		"pi2_sessions_created_total":             st.Created,
		"pi2_plan_compiles_total":                st.PlanCompiles,
		`pi2_cache_hits_total{layer="result"}`:   st.Cache.ResultHits,
		`pi2_cache_misses_total{layer="result"}`: st.Cache.ResultMisses,
		`pi2_cache_hits_total{layer="plan"}`:     st.Cache.PlanHits,
		`pi2_cache_misses_total{layer="plan"}`:   st.Cache.PlanMisses,
		"pi2_cache_invalidations_total":          st.Cache.Invalidations,
		"pi2_sessions_live":                      uint64(st.LiveSessions),
		"pi2_shared_plans":                       uint64(st.SharedPlans),
	} {
		if v, ok := got[series]; !ok || v != float64(want) {
			t.Errorf("%s = %v (exposed %v), want %d", series, v, ok, want)
		}
	}
}

func TestSlowLogEmission(t *testing.T) {
	var buf bytes.Buffer
	slow := obs.NewSlowLog(&buf, time.Nanosecond) // everything is slow
	h, _, _ := newObsHandler(t, slow)
	doReq(h, "GET", "/?session=alice", nil)
	line, _, _ := strings.Cut(buf.String(), "\n")
	var entry struct {
		Kind   string  `json:"kind"`
		Detail string  `json:"detail"`
		Ms     float64 `json:"ms"`
		Trace  string  `json:"trace"`
		Spans  []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("slow log line not JSON: %v\n%q", err, line)
	}
	if entry.Kind != "http" || entry.Detail != "GET /" || entry.Trace == "" {
		t.Fatalf("entry = %+v", entry)
	}
	names := map[string]bool{}
	for _, sp := range entry.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"acquire", "plan.t0", "exec.t0", "render"} {
		if !names[want] {
			t.Errorf("slow entry missing span %q (have %v)", want, entry.Spans)
		}
	}
}

func TestSQLExplainAnalyze(t *testing.T) {
	srv, _ := newTestServer(t)
	code, body := get(t, srv.URL+"/sql?explain=1&session="+oneKey)
	if code != http.StatusOK {
		t.Fatalf("status = %d\n%s", code, body)
	}
	for _, want := range []string{"tree 0:", "operator", "rows in", "rows out", "total"} {
		if !strings.Contains(body, want) {
			t.Errorf("explain output missing %q:\n%s", want, body)
		}
	}
	// Explaining must not disturb the plain /sql view.
	_, plain := get(t, srv.URL+"/sql?session="+oneKey)
	if strings.Contains(plain, "operator") {
		t.Fatalf("plain /sql shows profile output:\n%s", plain)
	}
}

func TestSQLExplainPlan(t *testing.T) {
	srv, _ := newTestServer(t)
	code, body := get(t, srv.URL+"/sql?explain=plan&session="+oneKey)
	if code != http.StatusOK {
		t.Fatalf("status = %d\n%s", code, body)
	}
	for _, want := range []string{"tree 0:", "scan"} {
		if !strings.Contains(body, want) {
			t.Errorf("plan output missing %q:\n%s", want, body)
		}
	}
	// Plan-only: no per-operator execution report.
	for _, ban := range []string{"operator", "rows in", "total"} {
		if strings.Contains(body, ban) {
			t.Errorf("explain=plan leaked execution output %q:\n%s", ban, body)
		}
	}
}
