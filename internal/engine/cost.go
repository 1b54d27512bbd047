package engine

import (
	"strconv"

	dt "pi2/internal/difftree"
)

// The cost-based access-path chooser of the batch path. Its candidates are
// the batch plan's own pushed predicates (vecPred, the one classification of
// pushed conjuncts): `col op literal` with op in =,<,<=,>,>=, and `col
// BETWEEN literal AND literal`. chooseAccess judges them against the table's
// statistics and picks at most one per source. The row path never probes an
// index for a scan (from.go).
//
// Two invariants keep this layer incapable of changing results:
//
//   - a chosen index only narrows the candidate row set fed to the scan's
//     predicate kernels — every pushed conjunct (including the one the index
//     serves) still evaluates over the candidates, so the index must merely
//     produce a superset of the matching rows in ascending row order;
//   - eligibility (accessEstimate) is a semantic judgment, not a cost one:
//     NaN columns and mixed-type range probes are rejected even under
//     forced-index mode, because there the sweep and the index disagree.

// Cost model knobs. The constants are deliberately coarse: the point is to
// avoid indexing tables where a sweep is already cheap.
const (
	minIndexRows   = 64 // below this a sweep beats probe + order bookkeeping
	indexAdvantage = 4  // index must beat the sweep by this factor
)

type accessMode uint8

const (
	accessFull accessMode = iota
	accessEq
	accessRange
)

// scanAccess is the chosen (or candidate) access path for one source.
type scanAccess struct {
	mode           accessMode
	col            int    // column index in the base table
	colName        string // lowercased, for EXPLAIN and profiles
	eqKey          Value  // accessEq probe key
	lo, hi         Value  // accessRange bounds
	hasLo, hasHi   bool
	loExcl, hiExcl bool
}

// path renders a chosen index the way EXPLAIN and Profile report it.
func (a scanAccess) path() string {
	if a.mode == accessEq {
		return "index-scan(" + a.colName + ")"
	}
	return "range-scan(" + a.colName + ")"
}

// litValue evaluates a plan-time literal. NaN literals cannot be written in
// the grammar, but reject them defensively: NaN keys poison both index kinds.
func litValue(e *dt.Node) (Value, bool) {
	switch e.Kind {
	case dt.KindNumber:
		f, err := strconv.ParseFloat(e.Label, 64)
		if err != nil || f != f {
			return Value{}, false
		}
		return NumVal(f), true
	case dt.KindString:
		return StrVal(e.Label), true
	}
	return Value{}, false
}

// access maps a pushed predicate an index could serve to its probe:
// `col op literal` with op in =,<,<=,>,>= (vecConjunct already put the
// column on the left) or `col BETWEEN literal AND literal`.
func (p *vecPred) access() (scanAccess, bool) {
	a := scanAccess{col: p.col}
	switch {
	case p.kind == predBetween:
		a.mode, a.lo, a.hasLo, a.hi, a.hasHi = accessRange, p.lo, true, p.hi, true
	case p.kind != predCmpLit:
		return a, false
	case p.op == vecEq:
		a.mode, a.eqKey = accessEq, p.lit
	case p.op == vecLt:
		a.mode, a.hi, a.hasHi, a.hiExcl = accessRange, p.lit, true, true
	case p.op == vecLe:
		a.mode, a.hi, a.hasHi = accessRange, p.lit, true
	case p.op == vecGt:
		a.mode, a.lo, a.hasLo, a.loExcl = accessRange, p.lit, true, true
	case p.op == vecGe:
		a.mode, a.lo, a.hasLo = accessRange, p.lit, true
	default:
		return a, false
	}
	return a, true
}

// accessEstimate judges a candidate against the table's statistics. eligible
// reports whether the index agrees with the sweep semantics at all — false
// is binding even under forced-index mode. est is the predicted surviving
// row count under the usual uniformity assumptions. ndv returns a column's
// number of distinct non-null values under `=`; only an eligible equality
// candidate reads it.
func accessEstimate(st *TableStats, a scanAccess, ndv func(col int) int) (est int, eligible bool) {
	if a.col >= len(st.Cols) {
		return 0, false
	}
	cs := st.Cols[a.col]
	if cs.HasNaN {
		// Compare treats NaN as equal to every number, so under the sweep a
		// NaN row matches every numeric comparison — no index reproduces that.
		return 0, false
	}
	nonNull := st.Rows - cs.Nulls
	switch a.mode {
	case accessEq:
		if (cs.negZero && a.eqKey.IsStr) || (!a.eqKey.IsStr && isNegZero(a.eqKey.Num) && cs.Strs > 0) {
			return 0, false // -0 meets a string: see hashIndex.rowsFor
		}
		d := ndv(a.col)
		if d == 0 {
			return 0, true
		}
		est = nonNull / d
		if est < 1 {
			est = 1
		}
		return est, true
	case accessRange:
		// Binary search needs Compare to be a total order along the sorted
		// run: only true for type-homogeneous columns, and only for bounds
		// of the column's own type (text order is not numeric order).
		if !cs.Homogeneous() {
			return 0, false
		}
		if nonNull == 0 {
			return 0, true
		}
		isStr := cs.Strs > 0
		if (a.hasLo && a.lo.IsStr != isStr) || (a.hasHi && a.hi.IsStr != isStr) {
			return 0, false
		}
		return rangeEstimate(cs, nonNull, a), true
	}
	return st.Rows, true
}

// rangeEstimate interpolates a numeric range against the column's [min,max]
// span; string ranges fall back to a fixed 1/3 selectivity.
func rangeEstimate(cs ColStats, nonNull int, a scanAccess) int {
	if cs.Min.IsStr {
		return (nonNull + 2) / 3
	}
	mn, mx := cs.Min.Num, cs.Max.Num
	lo, hi := mn, mx
	if a.hasLo {
		lo = a.lo.Num
	}
	if a.hasHi {
		hi = a.hi.Num
	}
	if lo < mn {
		lo = mn
	}
	if hi > mx {
		hi = mx
	}
	if lo > hi {
		return 0
	}
	span := mx - mn
	if span <= 0 {
		return nonNull
	}
	est := int((hi - lo) / span * float64(nonNull))
	if est < 1 {
		est = 1
	}
	return est
}

// chooseAccess picks, for each source of the batch plan, at most one
// eligible candidate among its pushed predicates — the one with the smallest
// estimate, the first in conjunct order on a tie — and installs it when it
// beats a sweep by indexAdvantage on a table of at least minIndexRows.
// Forced mode skips the cost threshold but never the eligibility judgment.
func (c *compiler) chooseAccess(pq *planQuery, vp *vecPlan) {
	vp.access = make([]scanAccess, vp.nsrc)
	for i, preds := range vp.scanPreds {
		var cands []scanAccess
		for k := range preds {
			if a, ok := preds[k].access(); ok {
				cands = append(cands, a)
			}
		}
		if len(cands) == 0 {
			continue
		}
		t := vp.tabs[i]
		st := c.db.tableStats(t)
		if !c.force && st.Rows < minIndexRows {
			continue
		}
		// The distinct count is the bucket count of the column's hash index,
		// the index an equality candidate would probe.
		ndv := func(col int) int { return c.db.hashIndexFor(t, col).size() }
		best, bestEst := -1, 0
		for k := range cands {
			est, ok := accessEstimate(st, cands[k], ndv)
			if !ok {
				continue
			}
			if best < 0 || est < bestEst {
				best, bestEst = k, est
			}
		}
		if best < 0 || (!c.force && bestEst*indexAdvantage > st.Rows) {
			continue
		}
		vp.access[i] = cands[best]
		vp.access[i].colName = pq.sources[i].cols[cands[best].col]
	}
}

// hashKeyable reports whether the equi-join conjunct a = b, two local
// column references, can be served by hashing on the `=` key. It cannot
// where one side may hold -0 and the other a string: `=` is not transitive
// there (see hashIndex.rowsFor). Nor where one side may hold NaN and the
// other a number: Compare(NaN, x) == 0 for every number x, so `=` matches a
// NaN row to every number while the hash keys NaN apart. Such a conjunct is
// evaluated as a filter instead. A derived table's column that copies a base
// column holds that column's kinds; any other derived column may hold
// anything.
func (c *compiler) hashKeyable(a, b *dt.Node) bool {
	ka, kb := c.keyKinds(a), c.keyKinds(b)
	return !(ka.negZero && kb.str) && !(kb.negZero && ka.str) &&
		!(ka.nan && kb.num) && !(kb.nan && ka.num)
}

// keyKind says what the cells of one join-key column may hold.
type keyKind struct{ negZero, nan, num, str bool }

// keyKinds reports what the local column e may hold.
func (c *compiler) keyKinds(e *dt.Node) keyKind {
	fi, ci, _ := c.localColumn(e.Label)
	return c.sourceKinds(c.sc.sources[fi], ci)
}

// sourceKinds reports what column ci of a FROM source may hold: a base
// table's column flags, or, for a derived table, the flags of the source
// column its output column copies cell for cell (planQuery.origin).
func (c *compiler) sourceKinds(ps *planSource, ci int) keyKind {
	if t := ps.table; t != nil {
		cd := &c.db.columnsFor(t).cols[ci]
		return keyKind{negZero: cd.negZero, nan: cd.hasNaN, num: cd.numCells > 0, str: cd.strCells > 0}
	}
	if ps.sub != nil {
		if src, col, ok := ps.sub.origin(ci); ok {
			return c.sourceKinds(ps.sub.sources[src], col)
		}
	}
	return keyKind{true, true, true, true}
}

// origin maps output column ci of a derived table's query to the column of
// its own sources that every cell of ci is copied from: a bare local column
// reference, or a '*' expansion over base tables whose rows all have their
// schema's width (a ragged row would shift every later column). ok is false
// for a computed column. An implicitly grouped query has no origins: over no
// rows its one empty group resolves bare names outward and '*' expands to
// nothing.
func (pq *planQuery) origin(ci int) (src, col int, ok bool) {
	if pq.err != nil || (pq.grouped && !pq.hasGroupBy) {
		return 0, 0, false
	}
	lc := &compiler{sc: &scope{sources: pq.sources}}
	pos := 0
	for _, item := range pq.sel {
		e := item.Children[0]
		if e.Kind != dt.KindStar {
			if pos == ci {
				if e.Kind != dt.KindIdent {
					return 0, 0, false
				}
				return lc.localColumn(e.Label)
			}
			pos++
			continue
		}
		for si, ps := range pq.sources {
			if ps.table == nil || !fullWidth(ps.table) {
				return 0, 0, false
			}
			if ci < pos+len(ps.cols) {
				return si, ci - pos, true
			}
			pos += len(ps.cols)
		}
	}
	return 0, 0, false
}

// fullWidth reports whether every row of t has exactly one cell per column.
func fullWidth(t *Table) bool {
	for _, row := range t.Rows {
		if len(row) != len(t.Cols) {
			return false
		}
	}
	return true
}
