package pi2

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"pi2/internal/dataset"
	"pi2/internal/iface"
	"pi2/internal/sqlparser"
	"pi2/internal/transform"
	"pi2/internal/workload"
)

// interactionSnapshot captures what a session serves after an interaction:
// the rendered HTML page (text — charts are SVG over the executed results)
// and a JSON encoding of every tree's result table.
func interactionSnapshot(t *testing.T, sess *iface.Session) (string, []byte) {
	t.Helper()
	text, err := iface.RenderHTML(sess)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := sess.Results()
	if err != nil {
		t.Fatal(err)
	}
	type tableJSON struct {
		Cols []string   `json:"cols"`
		Rows [][]string `json:"rows"`
	}
	out := make([]tableJSON, len(tables))
	for ti, tbl := range tables {
		out[ti].Cols = tbl.Cols
		for _, row := range tbl.Rows {
			r := make([]string, len(row))
			for ci, v := range row {
				r[ci] = v.Text()
			}
			out[ti].Rows = append(out[ti].Rows, r)
		}
	}
	js, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return text, js
}

// TestSharedPlanCacheServingEquivalence proves the cache-sharing contract
// of the session registry: serving through one shared cross-session
// PlanCache must be invisible in output. For every query in every built-in
// workload log, a session with a private plan cache and two sessions
// sharing one PlanCache (the second riding entirely on results the first
// executed) produce byte-identical interaction results — rendered HTML text
// and the JSON encoding of every result table — across two full passes over
// the log (the second pass exercises the warm caches).
func TestSharedPlanCacheServingEquivalence(t *testing.T) {
	logs := workload.All()
	if testing.Short() {
		// The full matrix generates all seven paper interfaces; the short
		// suite keeps the cheap ones and leaves the rest to CI's full run.
		logs = []workload.Log{workload.Explore(), workload.Connect()}
	}
	for _, wl := range logs {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			db := dataset.NewDB()
			gen := NewGenerator(db, dataset.Keys())
			res, err := gen.Generate(wl.Queries)
			if err != nil {
				t.Fatal(err)
			}
			asts, err := sqlparser.ParseAll(wl.Queries)
			if err != nil {
				t.Fatal(err)
			}
			ctx := &transform.Context{Queries: asts, Cat: gen.Cat}

			private, err := iface.NewSession(res.Interface, ctx, db)
			if err != nil {
				t.Fatal(err)
			}
			pc := iface.NewPlanCache()
			sharedA, err := iface.NewSessionWithPlans(res.Interface, ctx, db, pc)
			if err != nil {
				t.Fatal(err)
			}
			sharedB, err := iface.NewSessionWithPlans(res.Interface, ctx, db, pc)
			if err != nil {
				t.Fatal(err)
			}

			// bReads is the traffic sharedB's reads add to the shared cache.
			var bReads iface.CacheStats
			for pass := 0; pass < 2; pass++ {
				for qi := range wl.Queries {
					label := fmt.Sprintf("pass %d query %d", pass, qi)
					var wantText string
					var wantJSON []byte
					for si, sess := range []*iface.Session{private, sharedA, sharedB} {
						if err := sess.ApplyQuery(qi); err != nil {
							t.Fatalf("%s session %d: %v", label, si, err)
						}
						before := sess.Stats()
						text, js := interactionSnapshot(t, sess)
						if sess == sharedB {
							after := sess.Stats()
							bReads.ResultHits += after.ResultHits - before.ResultHits
							bReads.ResultMisses += after.ResultMisses - before.ResultMisses
							bReads.PlanMisses += after.PlanMisses - before.PlanMisses
						}
						if si == 0 {
							wantText, wantJSON = text, js
							continue
						}
						if text != wantText {
							t.Fatalf("%s: session %d rendered text differs from private-cache serving", label, si)
						}
						if !bytes.Equal(js, wantJSON) {
							t.Fatalf("%s: session %d result JSON differs from private-cache serving:\n%s\nvs\n%s",
								label, si, js, wantJSON)
						}
					}
				}
			}
			// The sharing must actually have engaged: sharedB read every
			// query after sharedA, so it was served every result without
			// executing or compiling anything.
			if bReads.ResultHits == 0 || bReads.ResultMisses != 0 {
				t.Fatalf("sharedB executed instead of reading sharedA's results: %+v", bReads)
			}
			if private.Stats().PlanMisses <= bReads.PlanMisses {
				t.Fatalf("shared serving compiled as much as private serving: private %+v vs sharedB %+v",
					private.Stats(), bReads)
			}
		})
	}
}
