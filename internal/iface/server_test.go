package iface

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"pi2/internal/engine"
)

// oneKey addresses the only entry of the registries oneSessionRegistry builds.
const oneKey = "t"

// oneSessionRegistry holds sess as its only entry, under oneKey. Its
// factory hands back sess itself, so a request carrying any other key (or
// none) also reaches sess.
func oneSessionRegistry(t *testing.T, sess *Session) *Registry {
	t.Helper()
	reg := NewRegistry(func() (*Session, error) { return sess, nil }, RegistryOptions{MaxSessions: 1})
	if _, err := reg.Acquire(oneKey); err != nil {
		t.Fatal(err)
	}
	return reg
}

// serveOne serves sess over HTTP through a one-entry registry; a non-nil
// db also enables POST /ingest.
func serveOne(t *testing.T, sess *Session, db *engine.DB) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewRegistryServer(oneSessionRegistry(t, sess)).WithIngest(db).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func newTestServer(t *testing.T) (*httptest.Server, *Session) {
	t.Helper()
	ifc, ctx := buildSliderInterface(t)
	sess, err := NewSession(ifc, ctx, testDB)
	if err != nil {
		t.Fatal(err)
	}
	return serveOne(t, sess, nil), sess
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func postForm(t *testing.T, u string, form url.Values) int {
	t.Helper()
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.PostForm(u, form)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestServerIndexRendersInterface(t *testing.T) {
	srv, _ := newTestServer(t)
	code, body := get(t, srv.URL+"/")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"<svg", "Manipulations", "slider"} {
		if !strings.Contains(body, want) {
			t.Errorf("page missing %q", want)
		}
	}
}

func TestServerWidgetManipulationRewritesSQL(t *testing.T) {
	srv, sess := newTestServer(t)
	code := postForm(t, srv.URL+"/widget", url.Values{"session": {oneKey}, "id": {"w0"}, "value": {"3"}})
	if code != http.StatusSeeOther {
		t.Fatalf("status = %d", code)
	}
	sql, _ := sess.CurrentSQL(0)
	if !strings.Contains(sql, "a = 3") {
		t.Fatalf("sql = %s", sql)
	}
	_, body := get(t, srv.URL+"/sql?session="+oneKey)
	if !strings.Contains(body, "a = 3") {
		t.Fatalf("/sql = %s", body)
	}
}

func TestServerRejectsBadManipulation(t *testing.T) {
	srv, _ := newTestServer(t)
	if code := postForm(t, srv.URL+"/widget", url.Values{"id": {"nope"}, "value": {"3"}}); code != http.StatusBadRequest {
		t.Fatalf("unknown widget status = %d", code)
	}
	if code := postForm(t, srv.URL+"/widget", url.Values{"id": {"w0"}}); code != http.StatusBadRequest {
		t.Fatalf("missing parameter status = %d", code)
	}
	if code := postForm(t, srv.URL+"/interact", url.Values{"vis": {"vis0"}, "kind": {"brush-x"}}); code != http.StatusBadRequest {
		t.Fatalf("missing interaction parameter status = %d", code)
	}
}

func TestServerHealthz(t *testing.T) {
	srv, _ := newTestServer(t)
	code, body := get(t, srv.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if strings.TrimSpace(body) != "ok" {
		t.Fatalf("body = %q", body)
	}
}

// newRegistryTestServer serves the slider interface multi-tenant, with a
// shared plan cache, like pi2serve does.
func newRegistryTestServer(t *testing.T, opts RegistryOptions) (*httptest.Server, *Registry) {
	t.Helper()
	ifc, ctx := buildSliderInterface(t)
	pc := NewPlanCache()
	if opts.Plans == nil {
		opts.Plans = pc
	}
	reg := NewRegistry(func() (*Session, error) {
		return NewSessionWithPlans(ifc, ctx, testDB, opts.Plans)
	}, opts)
	srv := httptest.NewServer(NewRegistryServer(reg).Handler())
	t.Cleanup(srv.Close)
	return srv, reg
}

// Two explicitly keyed sessions must hold independent widget state end to
// end over HTTP.
func TestServerMultiSessionIndependentState(t *testing.T) {
	srv, reg := newRegistryTestServer(t, RegistryOptions{})
	if code := postForm(t, srv.URL+"/widget", url.Values{"session": {"alice"}, "id": {"w0"}, "value": {"3"}}); code != http.StatusSeeOther {
		t.Fatalf("alice widget status = %d", code)
	}
	if code := postForm(t, srv.URL+"/widget", url.Values{"session": {"bob"}, "id": {"w0"}, "value": {"4"}}); code != http.StatusSeeOther {
		t.Fatalf("bob widget status = %d", code)
	}
	_, aliceSQL := get(t, srv.URL+"/sql?session=alice")
	_, bobSQL := get(t, srv.URL+"/sql?session=bob")
	if !strings.Contains(aliceSQL, "a = 3") {
		t.Fatalf("alice /sql = %s", aliceSQL)
	}
	if !strings.Contains(bobSQL, "a = 4") {
		t.Fatalf("bob /sql = %s", bobSQL)
	}
	if st := reg.Stats(); st.LiveSessions != 2 || st.Created != 2 {
		t.Fatalf("registry stats = %+v, want 2 live sessions", st)
	}
}

// A manipulation POSTed with an explicit key must redirect back to that
// session so cookie-less clients stay on it.
func TestServerExplicitKeyRedirectKeepsSession(t *testing.T) {
	srv, _ := newRegistryTestServer(t, RegistryOptions{})
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.PostForm(srv.URL+"/widget", url.Values{"session": {"alice"}, "id": {"w0"}, "value": {"3"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if loc := resp.Header.Get("Location"); loc != "/?session=alice" {
		t.Fatalf("redirect location = %q, want /?session=alice", loc)
	}
}

// A request without a key gets a fresh session via Set-Cookie, and the
// cookie routes subsequent requests back to it.
func TestServerCookieAssignsSession(t *testing.T) {
	srv, reg := newRegistryTestServer(t, RegistryOptions{})
	jar, _ := cookiejar.New(nil)
	client := &http.Client{Jar: jar}
	resp, err := client.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	u, _ := url.Parse(srv.URL)
	var key string
	for _, c := range jar.Cookies(u) {
		if c.Name == "pi2session" {
			key = c.Value
		}
	}
	if key == "" {
		t.Fatal("no pi2session cookie assigned")
	}
	// The cookie-bound manipulation must land on the cookie's session.
	resp, err = client.PostForm(srv.URL+"/widget", url.Values{"id": {"w0"}, "value": {"3"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	_, body := get(t, srv.URL+"/sql?session="+key)
	if !strings.Contains(body, "a = 3") {
		t.Fatalf("cookie session /sql = %s", body)
	}
	if st := reg.Stats(); st.Created != 1 {
		t.Fatalf("created = %d, want 1 (cookie reuses the assigned session)", st.Created)
	}
}

// Malformed session keys are the client's fault: 400, not 500.
func TestServerRejectsBadSessionKey(t *testing.T) {
	srv, _ := newRegistryTestServer(t, RegistryOptions{})
	for _, bad := range []string{"has space", "semi;colon", "sl/ash", strings.Repeat("x", 65)} {
		code := postForm(t, srv.URL+"/widget", url.Values{"session": {bad}, "id": {"w0"}, "value": {"3"}})
		if code != http.StatusBadRequest {
			t.Errorf("session %q status = %d, want 400", bad, code)
		}
	}
}

// A closed (draining) registry answers 503, not 500.
func TestServerClosedRegistryUnavailable(t *testing.T) {
	srv, reg := newRegistryTestServer(t, RegistryOptions{})
	reg.Close()
	code, _ := get(t, srv.URL+"/?session=alice")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status after Close = %d, want 503", code)
	}
}

// The read-only /sql never creates a session: an unknown key is a 404 and
// the registry stays untouched, so scrapes cannot churn eviction.
func TestServerSQLDoesNotCreateSessions(t *testing.T) {
	srv, reg := newRegistryTestServer(t, RegistryOptions{})
	if code, _ := get(t, srv.URL+"/sql?session=ghost"); code != http.StatusNotFound {
		t.Fatalf("/sql for unknown session = %d, want 404", code)
	}
	if code, _ := get(t, srv.URL+"/sql"); code != http.StatusNotFound {
		t.Fatalf("/sql with no key = %d, want 404", code)
	}
	if code, _ := get(t, srv.URL+"/sql?session=bad%20key"); code != http.StatusBadRequest {
		t.Fatalf("/sql with malformed key = %d, want 400", code)
	}
	if st := reg.Stats(); st.Created != 0 || st.LiveSessions != 0 {
		t.Fatalf("read-only traffic created sessions: %+v", st)
	}
}

// Malformed manipulations are rejected before the registry is touched:
// garbage POSTs with fresh keys must not create sessions (or evict live
// users' to make room).
func TestServerBadManipulationDoesNotCreateSession(t *testing.T) {
	srv, reg := newRegistryTestServer(t, RegistryOptions{})
	// no manipulation parameter at all
	if code := postForm(t, srv.URL+"/widget", url.Values{"session": {"fresh1"}, "id": {"w0"}}); code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", code)
	}
	// malformed manipulation values
	if code := postForm(t, srv.URL+"/widget", url.Values{"session": {"fresh2"}, "id": {"w0"}, "option": {"frog"}}); code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", code)
	}
	if code := postForm(t, srv.URL+"/interact", url.Values{"session": {"fresh3"}, "vis": {"vis0"}, "kind": {"click"}, "row": {"NaNrow"}}); code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", code)
	}
	if st := reg.Stats(); st.Created != 0 {
		t.Fatalf("malformed manipulations created %d sessions", st.Created)
	}
	// A well-formed manipulation on an unknown widget still resolves the
	// session first (it must: widget existence is interface state).
	if code := postForm(t, srv.URL+"/widget", url.Values{"session": {"fresh4"}, "id": {"zombie"}, "value": {"3"}}); code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", code)
	}
	if st := reg.Stats(); st.Created != 1 {
		t.Fatalf("created = %d, want 1", st.Created)
	}
}

// The assigned session cookie must carry HttpOnly and SameSite=Lax: the
// key is the session's sole credential.
func TestServerCookieHardened(t *testing.T) {
	srv, _ := newRegistryTestServer(t, RegistryOptions{})
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var found bool
	for _, c := range resp.Cookies() {
		if c.Name != sessionCookie {
			continue
		}
		found = true
		if !c.HttpOnly {
			t.Error("session cookie missing HttpOnly")
		}
		if c.SameSite != http.SameSiteLaxMode {
			t.Errorf("session cookie SameSite = %v, want Lax", c.SameSite)
		}
	}
	if !found {
		t.Fatal("no session cookie assigned")
	}
}

// /stats in registry mode reports the multi-session aggregate.
func TestServerStatsAggregates(t *testing.T) {
	srv, _ := newRegistryTestServer(t, RegistryOptions{})
	postForm(t, srv.URL+"/widget", url.Values{"session": {"alice"}, "id": {"w0"}, "value": {"3"}})
	get(t, srv.URL+"/?session=alice") // render: executes and caches results
	get(t, srv.URL+"/?session=bob")
	code, body := get(t, srv.URL+"/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats status = %d", code)
	}
	var st RegistryStats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/stats not RegistryStats JSON: %v\n%s", err, body)
	}
	if st.LiveSessions != 2 || st.Created != 2 {
		t.Fatalf("stats = %+v, want 2 live sessions", st)
	}
	if st.Cache.ResultMisses == 0 {
		t.Fatalf("aggregate cache counters empty: %+v", st)
	}
	if st.PlanCompiles == 0 || st.SharedPlans == 0 {
		t.Fatalf("shared plan cache not reported: %+v", st)
	}
	// A third session at bob's state is served bob's result without
	// executing: one more result hit, no new miss or compile.
	get(t, srv.URL+"/?session=carol")
	_, body = get(t, srv.URL+"/stats")
	var st2 RegistryStats
	if err := json.Unmarshal([]byte(body), &st2); err != nil {
		t.Fatal(err)
	}
	if st2.Cache.ResultHits != st.Cache.ResultHits+1 || st2.Cache.ResultMisses != st.Cache.ResultMisses ||
		st2.PlanCompiles != st.PlanCompiles {
		t.Fatalf("third session executed: %+v -> %+v", st, st2)
	}
}

func TestServerReset(t *testing.T) {
	srv, sess := newTestServer(t)
	postForm(t, srv.URL+"/widget", url.Values{"id": {"w0"}, "value": {"4"}})
	if code := postForm(t, srv.URL+"/reset", nil); code != http.StatusSeeOther {
		t.Fatalf("reset status = %d", code)
	}
	sql, _ := sess.CurrentSQL(0)
	if !strings.Contains(sql, "a = 1") {
		t.Fatalf("after reset sql = %s", sql)
	}
}
