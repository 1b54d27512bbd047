package engine

import (
	"fmt"
	"math"

	dt "pi2/internal/difftree"
)

// The vectorized execution path: compile-time half. compileVec recognizes a
// restricted query class and attaches a vecPlan when — and only when — every
// piece of the query is vectorizable:
//
//   - one or two base-table FROM sources joined by comma (no JOIN keyword,
//     no derived tables), with canonical columnar images (colstore.go);
//   - every WHERE conjunct is a recognized pure shape: `col op literal`,
//     `col op col` (same source), `col BETWEEN lit AND lit`, `col LIKE lit`,
//     `col [NOT] IN (literals)`, or a cross-source comparison `a.x op b.y`;
//   - for two sources, any `a.x = b.y` hash key joins columns that are both
//     all-numeric NaN-free or both all-string — the classes where keying on
//     raw column data reproduces appendJoinKey's `=` coercion bit for bit
//     (key.go: joinKeyBits / raw strings). Mixed-type or NaN-bearing key
//     columns fall back to the row path's encoded-key hash join;
//   - a non-grouped query's select items and ORDER BY keys are bare local
//     columns;
//   - a grouped query's GROUP BY keys are bare local columns, and each of
//     its aggregates is count(*) or count/sum/avg/min/max over a bare local
//     column, which the batch path accumulates (internAgg). Its select
//     items, HAVING and ORDER BY keys may be any expression, subqueries
//     included: they run as the plan's compiled closures, once per group.
//
// Everything else keeps the row path. The WHERE conjuncts vecConjunct
// pushes down to a source (vecPred) are the engine's one classification of
// pushed predicates: the cost chooser (cost.go) takes its index candidates
// from them once the plan is known to be eligible. A chosen index's
// candidate rows seed that source's selection in place of the whole table,
// and every pushed predicate, the served one included, re-checks them, so an
// index only narrows a scan, never changes its result.
//
// Because every recognized conjunct is provably pure (no evaluation errors),
// pushing it below the join and dropping rows early is unobservable — the
// soundness argument from.go makes for hash keys — and the runtime
// (vecexec.go) re-materializes batch output in the interpreter's nested-loop
// scan order, so the vectorized path is bit-identical to the other paths —
// including error text: a grouped plan runs the row path's own per-group
// step (planQuery.emitGroup), HAVING → select items → order keys, over the
// batch-accumulated aggregates.

// vecCol identifies one column of one FROM source.
type vecCol struct{ src, col int }

type vecCmpOp uint8

const (
	vecEq vecCmpOp = iota
	vecNe
	vecLt
	vecLe
	vecGt
	vecGe
)

// cmpTest applies op to a Compare result.
func cmpTest(op vecCmpOp, c int) bool {
	switch op {
	case vecEq:
		return c == 0
	case vecNe:
		return c != 0
	case vecLt:
		return c < 0
	case vecLe:
		return c <= 0
	case vecGt:
		return c > 0
	default:
		return c >= 0
	}
}

func vecOpFor(label string) (vecCmpOp, bool) {
	switch label {
	case "=":
		return vecEq, true
	case "<>":
		return vecNe, true
	case "<":
		return vecLt, true
	case "<=":
		return vecLe, true
	case ">":
		return vecGt, true
	case ">=":
		return vecGe, true
	}
	return 0, false
}

func flipOp(op vecCmpOp) vecCmpOp {
	switch op {
	case vecLt:
		return vecGt
	case vecGt:
		return vecLt
	case vecLe:
		return vecGe
	case vecGe:
		return vecLe
	}
	return op // = and <> are symmetric
}

type vecPredKind uint8

const (
	predCmpLit vecPredKind = iota
	predCmpCol
	predBetween
	predLike
	predIn
)

// Fast-path class resolved at compile time from the columnar image.
type vecFast uint8

const (
	fastNone vecFast = iota // generic: reconstruct Values, Compare
	fastNum                 // all-numeric column, numeric literal(s)
	fastStr                 // all-string column, string literal(s)
)

// vecPred is one pushed-down single-source conjunct.
type vecPred struct {
	kind    vecPredKind
	col     int
	col2    int // predCmpCol: right-hand column, same source
	op      vecCmpOp
	lit     Value
	lo, hi  Value   // predBetween bounds
	pattern string  // predLike
	elems   []Value // predIn literal list
	negate  bool    // NOT IN / NOT LIKE
	fast    vecFast

	// A fastNum comparison or BETWEEN runs as one range test over raw
	// floats (filterRange): the row is outside when v < dlo || v > dhi, and
	// kept when inside, or when outside if outside is set. BETWEEN, = and
	// <= / >= are inside tests ([lo, hi], [lit, lit], [-Inf, lit] /
	// [lit, +Inf]); <>, < and > are outside tests ([lit, lit], [lit, +Inf],
	// [-Inf, lit]). Literals are never NaN (litValue). dense marks a column
	// holding a number in every row (no NULL, no string cell), whose test
	// needs no NULL probe (filterDense).
	dlo, dhi float64
	outside  bool
	dense    bool
}

// setRange sets the range test of a fastNum predicate over cd, a column of
// rows rows, and marks it dense when every row holds a number.
func (p *vecPred) setRange(cd *colData, rows int) {
	if p.fast != fastNum {
		return
	}
	inf := math.Inf(1)
	switch p.kind {
	case predBetween:
		p.dlo, p.dhi = p.lo.Num, p.hi.Num
	case predCmpLit:
		lit := p.lit.Num
		switch p.op {
		case vecEq:
			p.dlo, p.dhi = lit, lit
		case vecLe:
			p.dlo, p.dhi = -inf, lit
		case vecGe:
			p.dlo, p.dhi = lit, inf
		case vecNe:
			p.dlo, p.dhi, p.outside = lit, lit, true
		case vecLt:
			p.dlo, p.dhi, p.outside = lit, inf, true
		case vecGt:
			p.dlo, p.dhi, p.outside = -inf, lit, true
		}
	}
	p.dense = cd.numCells == rows
}

// vecCross is a cross-source pair predicate, evaluated per joined pair via
// Compare (NULL on either side drops the pair, exactly like the row path).
type vecCross struct {
	op   vecCmpOp
	l, r vecCol
}

type vecAggKind uint8

const (
	aggCountStar vecAggKind = iota
	aggCount
	aggSum
	aggAvg
	aggMin
	aggMax
)

// vecAgg is one distinct aggregate computed over the group's pairs.
type vecAgg struct {
	kind   vecAggKind
	col    vecCol // unused for aggCountStar
	strErr error  // precomputed "engine: sum()/avg() over strings"
}

// vecPlan is the compiled vectorized query.
type vecPlan struct {
	nsrc      int
	tabs      []*Table
	cols      []*tableCols
	scanPreds [][]vecPred
	access    []scanAccess // per source: the index chooseAccess picked, or accessFull

	// two-source join
	hasKey bool
	key0   int // key column in source 0 (probe side)
	key1   int // key column in source 1 (build side)
	keyNum bool
	cross  []vecCross

	// non-grouped output
	items     []vecCol
	orderCols []vecCol
	distinct  bool // vec dedupes itself; the sink's distinct is disabled

	// grouped output: group ids from bare-column keys, then the level's
	// aggregates (planQuery.aggs) accumulated per group
	groupBy []vecCol
}

// compileVec attaches a vectorized plan to pq when the query is eligible,
// with the access path chosen for each source (chooseAccess). Must run after
// the select items, HAVING and ORDER BY keys compiled, interning their
// aggregates. c must be the inner (scoped) compiler.
func (c *compiler) compileVec(pq *planQuery, sel, where, groupby, orderby *dt.Node) {
	if pq.err != nil || pq.hasJoin || pq.hasStar {
		return
	}
	n := len(pq.sources)
	if n < 1 || n > 2 {
		return
	}
	for _, ps := range pq.sources {
		if ps.sub != nil || ps.table == nil {
			return
		}
	}

	vp := &vecPlan{
		nsrc:      n,
		tabs:      make([]*Table, n),
		cols:      make([]*tableCols, n),
		scanPreds: make([][]vecPred, n),
		key0:      -1, key1: -1,
	}
	for i, ps := range pq.sources {
		tc := c.db.columnsFor(ps.table)
		if !tc.ok {
			return // ragged rows or non-canonical cells: row semantics only
		}
		vp.tabs[i] = ps.table
		vp.cols[i] = tc
	}

	// WHERE: every conjunct must be a recognized shape.
	type equi struct{ l, r vecCol }
	var equis []equi
	if where != nil {
		for _, e := range flattenAnd(where, nil) {
			p, cr, eq, ok := c.vecConjunct(vp, e)
			switch {
			case !ok:
				return
			case eq != nil:
				equis = append(equis, equi{eq[0], eq[1]})
			case cr != nil:
				vp.cross = append(vp.cross, *cr)
			default:
				vp.scanPreds[p.colSrc] = append(vp.scanPreds[p.colSrc], p.pred)
			}
		}
	}
	// Pick the first hash-keyable equi conjunct; the rest become Compare
	// cross predicates (exact `=` semantics). An equi conjunct that cannot
	// be keyed (mixed-type or NaN column) makes the whole query ineligible —
	// the row path's encoded-key hash join handles it better than a
	// vectorized nested loop would.
	for _, eq := range equis {
		if !vp.hasKey {
			c0, c1 := &vp.cols[0].cols[eq.l.col], &vp.cols[1].cols[eq.r.col]
			switch {
			case c0.allNum() && c1.allNum() && !c0.hasNaN && !c1.hasNaN:
				vp.hasKey, vp.keyNum = true, true
				vp.key0, vp.key1 = eq.l.col, eq.r.col
				continue
			case c0.allStr() && c1.allStr():
				vp.hasKey, vp.keyNum = true, false
				vp.key0, vp.key1 = eq.l.col, eq.r.col
				continue
			default:
				return
			}
		}
		vp.cross = append(vp.cross, vecCross{op: vecEq, l: vecCol{0, eq.l.col}, r: vecCol{1, eq.r.col}})
	}

	// Output shapes. A grouped level needs bare-column GROUP BY keys and
	// every aggregate interned; its HAVING, select items and order keys run
	// as the compiled closures, per group (vecEmitGrouped).
	if pq.grouped {
		if pq.aggMiss {
			return
		}
		if groupby.Kind == dt.KindGroupBy {
			for _, g := range groupby.Children {
				col, ok := c.vecLocalCol(g)
				if !ok {
					return
				}
				vp.groupBy = append(vp.groupBy, col)
			}
		}
	} else {
		for _, item := range sel.Children {
			col, ok := c.vecLocalCol(item.Children[0])
			if !ok {
				return
			}
			vp.items = append(vp.items, col)
		}
		for _, oi := range orderItems(orderby) {
			col, ok := c.vecLocalCol(oi.Children[0])
			if !ok {
				return
			}
			vp.orderCols = append(vp.orderCols, col)
		}
		vp.distinct = pq.distinct
	}

	c.chooseAccess(pq, vp)
	pq.vec = vp
}

// vecLocalCol recognizes a bare reference to one of this query's own columns.
func (c *compiler) vecLocalCol(e *dt.Node) (vecCol, bool) {
	if e.Kind != dt.KindIdent {
		return vecCol{}, false
	}
	fi, ci, ok := c.localColumn(e.Label)
	if !ok {
		return vecCol{}, false
	}
	return vecCol{src: fi, col: ci}, true
}

// vecConjResult distinguishes the three destinations of a recognized
// conjunct: a pushed single-source predicate, a cross-source predicate, or
// an equi-join key candidate.
type vecPushed struct {
	colSrc int
	pred   vecPred
}

// vecConjunct classifies one WHERE conjunct. Exactly one of (pushed, cross,
// equi) is set on ok; equi is the [probe, build] column pair for `a.x = b.y`
// across the two sources.
func (c *compiler) vecConjunct(vp *vecPlan, e *dt.Node) (pushed vecPushed, cross *vecCross, equi *[2]vecCol, ok bool) {
	switch e.Kind {
	case dt.KindNot:
		// NOT LIKE only: a non-NULL operand yields a definite boolean to
		// negate, and a NULL operand stays NULL under NOT, dropping the row
		// either way. Other negations keep the row path.
		if len(e.Children) == 1 && e.Children[0].Kind == dt.KindBinary && e.Children[0].Label == "like" {
			p, _, _, okLike := c.vecConjunct(vp, e.Children[0])
			if okLike && p.pred.kind == predLike {
				p.pred.negate = true
				return p, nil, nil, true
			}
		}
		return pushed, nil, nil, false
	case dt.KindBinary:
		if e.Label == "like" {
			col, okCol := c.vecLocalCol(e.Children[0])
			lit, okLit := litValue(e.Children[1])
			if !okCol || !okLit {
				return pushed, nil, nil, false
			}
			return vecPushed{col.src, vecPred{kind: predLike, col: col.col, pattern: lit.Text()}}, nil, nil, true
		}
		op, okOp := vecOpFor(e.Label)
		if !okOp || len(e.Children) != 2 {
			return pushed, nil, nil, false
		}
		l, okL := c.vecLocalCol(e.Children[0])
		r, okR := c.vecLocalCol(e.Children[1])
		switch {
		case okL && okR:
			if l.src == r.src {
				return vecPushed{l.src, vecPred{kind: predCmpCol, col: l.col, col2: r.col, op: op}}, nil, nil, true
			}
			// Orient so l references source 0.
			if l.src != 0 {
				l, r, op = r, l, flipOp(op)
			}
			if op == vecEq {
				return pushed, nil, &[2]vecCol{l, r}, true
			}
			return pushed, &vecCross{op: op, l: l, r: r}, nil, true
		case okL:
			lit, okLit := litValue(e.Children[1])
			if !okLit {
				return pushed, nil, nil, false
			}
			return vecPushed{l.src, c.cmpLitPred(vp, l, op, lit)}, nil, nil, true
		case okR:
			lit, okLit := litValue(e.Children[0])
			if !okLit {
				return pushed, nil, nil, false
			}
			return vecPushed{r.src, c.cmpLitPred(vp, r, flipOp(op), lit)}, nil, nil, true
		}
		return pushed, nil, nil, false
	case dt.KindBetween:
		if len(e.Children) != 3 {
			return pushed, nil, nil, false
		}
		col, okCol := c.vecLocalCol(e.Children[0])
		lo, okLo := litValue(e.Children[1])
		hi, okHi := litValue(e.Children[2])
		if !okCol || !okLo || !okHi {
			return pushed, nil, nil, false
		}
		p := vecPred{kind: predBetween, col: col.col, lo: lo, hi: hi}
		cd := &vp.cols[col.src].cols[col.col]
		switch {
		case cd.allNum() && !lo.IsStr && !hi.IsStr:
			p.fast = fastNum
		case cd.allStr() && lo.IsStr && hi.IsStr:
			p.fast = fastStr
		}
		p.setRange(cd, vp.cols[col.src].rows)
		return vecPushed{col.src, p}, nil, nil, true
	case dt.KindIn:
		if len(e.Children) != 2 || e.Children[1].Kind == dt.KindQuery {
			return pushed, nil, nil, false
		}
		col, okCol := c.vecLocalCol(e.Children[0])
		if !okCol {
			return pushed, nil, nil, false
		}
		p := vecPred{kind: predIn, col: col.col, negate: e.Label == "not in"}
		for _, el := range e.Children[1].Children {
			lit, okLit := litValue(el)
			if !okLit {
				return pushed, nil, nil, false
			}
			p.elems = append(p.elems, lit)
		}
		return vecPushed{col.src, p}, nil, nil, true
	}
	return pushed, nil, nil, false
}

func (c *compiler) cmpLitPred(vp *vecPlan, col vecCol, op vecCmpOp, lit Value) vecPred {
	p := vecPred{kind: predCmpLit, col: col.col, op: op, lit: lit}
	cd := &vp.cols[col.src].cols[col.col]
	switch {
	case cd.allNum() && !lit.IsStr:
		p.fast = fastNum
	case cd.allStr() && lit.IsStr:
		p.fast = fastStr
	}
	p.setRange(cd, vp.cols[col.src].rows)
	return p
}

func (c *compiler) vecAggregate(e *dt.Node) (vecAgg, bool) {
	name := e.Label
	star := len(e.Children) == 1 && e.Children[0].Kind == dt.KindStar
	if name == "count" && (star || len(e.Children) == 0) {
		return vecAgg{kind: aggCountStar}, true
	}
	if len(e.Children) != 1 {
		return vecAgg{}, false
	}
	col, ok := c.vecLocalCol(e.Children[0])
	if !ok {
		return vecAgg{}, false
	}
	switch name {
	case "count":
		return vecAgg{kind: aggCount, col: col}, true
	case "sum", "avg":
		k := aggSum
		if name == "avg" {
			k = aggAvg
		}
		return vecAgg{kind: k, col: col, strErr: fmt.Errorf("engine: %s() over strings", name)}, true
	case "min":
		return vecAgg{kind: aggMin, col: col}, true
	case "max":
		return vecAgg{kind: aggMax, col: col}, true
	}
	return vecAgg{}, false
}

// internAgg adds aggregate e to its level's list when the batch path can
// accumulate it — count(*), or count/sum/avg/min/max over a bare local
// column — and returns its index; equal aggregates share one entry. Any
// other aggregate returns -1 and sets the level's aggMiss. A compiler
// without a query level (a JOIN's ON condition, which only the row path
// runs) interns nothing.
func (c *compiler) internAgg(e *dt.Node) int {
	if c.pq == nil {
		return -1
	}
	a, ok := c.vecAggregate(e)
	if !ok {
		c.pq.aggMiss = true
		return -1
	}
	for i := range c.pq.aggs {
		if c.pq.aggs[i].kind == a.kind && c.pq.aggs[i].col == a.col {
			return i
		}
	}
	c.pq.aggs = append(c.pq.aggs, a)
	return len(c.pq.aggs) - 1
}
