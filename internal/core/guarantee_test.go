package core

import (
	"testing"

	"pi2/internal/catalog"
	"pi2/internal/dataset"
	"pi2/internal/iface"
	"pi2/internal/sqlparser"
	"pi2/internal/transform"
	"pi2/internal/workload"
)

// TestExpressivenessGuarantee is the paper's central guarantee, verified
// end to end for every workload: the generated interface can express every
// input query exactly (§3.2.4, §6.1 "any reachable set of Difftrees can
// also express those queries").
func TestExpressivenessGuarantee(t *testing.T) {
	db := dataset.NewDB()
	cat := catalog.Build(db, dataset.Keys())
	for _, log := range workload.All() {
		log := log
		t.Run(log.Name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Search.Workers = 1
			cfg.Search.MaxIterations = 80
			cfg.Search.EarlyStop = 15
			res, err := Generate(log.Queries, db, cat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			asts, err := sqlparser.ParseAll(log.Queries)
			if err != nil {
				t.Fatal(err)
			}
			ctx := &transform.Context{Queries: asts, Cat: cat}
			sess, err := iface.NewSession(res.Interface, ctx, db)
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.ExpressesAll(); err != nil {
				t.Fatalf("expressiveness violated: %v", err)
			}
			// every choice node must be covered by exactly one interaction
			covered := map[[2]int]int{}
			for _, w := range res.Interface.Widgets {
				for _, id := range w.Cover {
					covered[[2]int{w.Tree, id}]++
				}
			}
			for _, v := range res.Interface.VisInts {
				for _, id := range v.Cover {
					covered[[2]int{v.Tree, id}]++
				}
			}
			for ti, tree := range res.Interface.State.Trees {
				for _, c := range tree.Root.ChoiceNodes() {
					if covered[[2]int{ti, c.ID}] != 1 {
						t.Errorf("tree %d node %d covered %d times",
							ti, c.ID, covered[[2]int{ti, c.ID}])
					}
				}
			}
		})
	}
}
