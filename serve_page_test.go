package pi2

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"pi2/internal/dataset"
	"pi2/internal/iface"
	"pi2/internal/obs"
	"pi2/internal/sqlparser"
	"pi2/internal/transform"
	"pi2/internal/workload"
)

// TestPageLoadReadsEachTreeOnce loads the Covid interface's page once with
// serving observability off and once with it on. Either way the page reads
// each of the three trees once — three result misses, no hits in the shared
// cache — and the page bytes are the same: the traced read that attributes
// plan and exec spans to the request is the read the page renders from.
func TestPageLoadReadsEachTreeOnce(t *testing.T) {
	db := dataset.NewDB()
	gen := NewGenerator(db, dataset.Keys())
	wl := workload.Covid()
	res, err := gen.Generate(wl.Queries)
	if err != nil {
		t.Fatal(err)
	}
	asts, err := sqlparser.ParseAll(wl.Queries)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &transform.Context{Queries: asts, Cat: gen.Cat}
	if n := len(res.Interface.State.Trees); n != 3 {
		t.Fatalf("Covid interface has %d trees, want 3", n)
	}

	var pages [2]string
	for i, withObs := range []bool{false, true} {
		pc := iface.NewPlanCache()
		reg := iface.NewRegistry(func() (*iface.Session, error) {
			return iface.NewSessionWithPlans(res.Interface, ctx, db, pc)
		}, iface.RegistryOptions{Plans: pc})
		srv := iface.NewRegistryServer(reg)
		if withObs {
			srv.WithObs(iface.NewServerObs(obs.NewRegistry(), nil))
		}
		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/?session=a", nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("observability %v: GET / = %d: %s", withObs, rr.Code, rr.Body.String())
		}
		pages[i] = rr.Body.String()
		if c := reg.Stats().Cache; c.ResultMisses != 3 || c.ResultHits != 0 {
			t.Errorf("observability %v: first page load counted %d result misses and %d hits, want 3 and 0",
				withObs, c.ResultMisses, c.ResultHits)
		}
		reg.Close()
	}
	if pages[0] != pages[1] {
		t.Fatal("the page differs with observability on")
	}
}
