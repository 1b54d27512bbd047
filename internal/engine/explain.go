package engine

import (
	"fmt"
	"strings"
)

// Explain renders the compiled plan without executing anything: per-source
// access paths, join strategy and build sides, predicate placement, and the
// output stages. This is the plan-only EXPLAIN
// surface behind pi2sql's `EXPLAIN <query>` and /sql?explain=plan;
// EXPLAIN ANALYZE (ExecProfiled) reports what actually ran.
func (p *Plan) Explain() string {
	var sb strings.Builder
	p.root.explain(&sb, "")
	return sb.String()
}

func (pq *planQuery) explain(sb *strings.Builder, ind string) {
	if pq.err != nil {
		fmt.Fprintf(sb, "%serror: %v\n", ind, pq.err)
		return
	}
	for i, ps := range pq.sources {
		if ps.sub != nil {
			fmt.Fprintf(sb, "%sderived %s:\n", ind, ps.alias)
			ps.sub.explain(sb, ind+"  ")
			continue
		}
		if pq.vec != nil {
			// Columnar batch execution; absence of a vectorized marker means
			// the operator runs row-at-a-time.
			if n := len(pq.vec.scanPreds[i]); n > 0 {
				seed := ""
				if pq.vecIndexed(i) {
					seed = pq.vec.access[i].path() + " → "
				}
				fmt.Fprintf(sb, "%sscan %s [%svectorized-filter, %d pushed pred(s), batch %d]\n", ind, ps.alias, seed, n, batchSize)
			} else {
				fmt.Fprintf(sb, "%sscan %s [vectorized, batch %d]\n", ind, ps.alias, batchSize)
			}
			continue
		}
		fmt.Fprintf(sb, "%sscan %s [full-scan]\n", ind, ps.alias)
	}
	switch {
	case pq.vec != nil:
		if pq.vec.nsrc == 2 {
			mode := "vectorized nested-loop"
			if pq.vec.hasKey {
				mode = "vectorized hash build=" + pq.sources[1].alias
				if len(pq.vec.scanPreds[1]) == 0 {
					mode += " (reuses columnar(" + pq.sources[1].cols[pq.vec.key1] + "))"
				}
			}
			if len(pq.vec.cross) > 0 {
				mode += fmt.Sprintf(" +%d cross pred(s)", len(pq.vec.cross))
			}
			fmt.Fprintf(sb, "%sjoin %s: %s\n", ind, pq.sources[1].alias, mode)
		}
	case pq.hasJoin:
		for i := range pq.levels {
			if lv := &pq.levels[i]; lv.typ != "cross" {
				fmt.Fprintf(sb, "%sjoin %s %s: %s\n", ind, lv.typ, pq.sources[i].alias, pq.levelMode(i))
			}
		}
		if len(pq.residual) > 0 {
			fmt.Fprintf(sb, "%sfilter: WHERE (monolithic, post-join)\n", ind)
		}
	case len(pq.sources) > 1:
		for i := 1; i < len(pq.sources); i++ {
			fmt.Fprintf(sb, "%sjoin %s: %s\n", ind, pq.sources[i].alias, pq.levelMode(i))
		}
		if len(pq.residual) > 0 {
			fmt.Fprintf(sb, "%sresidual: %d conjunct(s), original order\n", ind, len(pq.residual))
		}
	case len(pq.residual) > 0:
		fmt.Fprintf(sb, "%sfilter: WHERE (monolithic)\n", ind)
	}
	vecMark := ""
	if pq.vec != nil {
		vecMark = " (vectorized)"
	}
	if pq.grouped {
		if pq.hasGroupBy {
			fmt.Fprintf(sb, "%sgroup by: %d key(s)%s\n", ind, len(pq.groupBy), vecMark)
		} else {
			fmt.Fprintf(sb, "%sgroup: implicit (aggregates without GROUP BY)%s\n", ind, vecMark)
		}
	}
	if pq.having != nil {
		fmt.Fprintf(sb, "%shaving\n", ind)
	}
	if pq.distinct {
		mark := ""
		if pq.vec != nil && pq.vec.distinct {
			mark = " (vectorized)"
		}
		fmt.Fprintf(sb, "%sdistinct%s\n", ind, mark)
	}
	if len(pq.order) > 0 {
		line := fmt.Sprintf("%sorder by: %d key(s)", ind, len(pq.order))
		if pq.limitErr == nil && pq.limit >= 0 {
			line += fmt.Sprintf(" (top-k heap, limit %d)", pq.limit)
		}
		sb.WriteString(line + "\n")
	}
	if pq.limitErr == nil && pq.limit >= 0 {
		fmt.Fprintf(sb, "%slimit: %d\n", ind, pq.limit)
	}
}

// levelMode names how level i joins for EXPLAIN output.
func (pq *planQuery) levelMode(i int) string {
	lv := &pq.levels[i]
	switch {
	case len(lv.build) == 0:
		return "nested-loop"
	case pq.buildReusable(i):
		return "hash build=" + pq.sources[i].alias + " (reuses index(" + pq.sources[i].cols[lv.buildCol] + "))"
	}
	return "hash build=" + pq.sources[i].alias
}
