package engine

import (
	"fmt"
	"strings"
	"sync"
	"time"

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
//     columns fall back to the row pipeline's encoded-key hash join;
//   - select items, GROUP BY keys and ORDER BY keys are bare local columns
//     (grouped queries additionally allow literals and count/sum/avg/min/max
//     over a bare column, and HAVING one comparison over those atoms).
//
// Everything else keeps the row pipeline. An index the cost chooser picked
// for a source does not disqualify the query: its candidate rows seed that
// source's selection in place of the whole table, and every pushed
// predicate, the served one included, re-checks them — the same "an index
// only narrows" invariant the row path's scans keep (cost.go).
//
// Because every recognized conjunct is provably pure (no evaluation errors)
// the pushdown/hoisting soundness argument from pipeline.go applies
// wholesale, and the runtime (vecexec.go) re-materializes batch output in
// the interpreter's nested-loop scan order, so the vectorized path is
// bit-identical to the other paths — including
// error text, which for grouped plans is replayed per group in exactly the
// row path's HAVING → select items → order keys evaluation order.

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

type gExprKind uint8

const (
	gLit gExprKind = iota
	gCol
	gAgg
)

// gExpr is a per-group scalar: a literal, a representative-row column, or a
// precomputed aggregate.
type gExpr struct {
	kind       gExprKind
	lit        Value
	col        vecCol
	lower      string // lowered name for the empty-group outer-scope lookup
	errUnknown error  // "unknown column" with the original spelling
	agg        int    // index into vecPlan.aggs
}

// gCmp is the recognized HAVING shape: one comparison (or one bare atom,
// judged by truthiness).
type gCmp struct {
	cmp  bool
	op   vecCmpOp
	l, r gExpr
}

// vecPlan is the compiled vectorized query.
type vecPlan struct {
	nsrc      int
	tabs      []*Table
	cols      []*tableCols
	scanPreds [][]vecPred

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

	// grouped output
	grouped    bool
	hasGroupBy bool
	groupBy    []vecCol
	aggs       []vecAgg
	gItems     []gExpr
	gHaving    *gCmp
	gOrder     []gExpr
}

// vecState is the per-plan runtime cache: selections and the build-side hash
// are pure functions of immutable base tables, so they are computed once and
// shared by every (possibly concurrent) Exec, mirroring scanState. Durations
// and batch counts are kept so a profiled run after an unprofiled cold run
// still reports the warm truth (~0, like a warm scanState scan).
type vecState struct {
	selOnce    sync.Once
	sel        [][]int32 // per source; nil = all rows (no pushed predicates)
	selDur     []time.Duration
	selBatches []int

	buildOnce sync.Once
	numBuild  *numHashIndex
	strBuild  *strHashIndex
	buildDur  time.Duration
}

// minVecRows gates the vectorized path by size: below this the row path is
// already micro-seconds fast and building columnar storage buys nothing.
// Forced mode (prepareForceVec) bypasses the gate but never eligibility.
const minVecRows = 64

// compileVec attaches a vectorized plan to pq when the query is eligible.
// Must run after the pipeline/pred compilation (an index the chooser picked
// there seeds the source's selection, see runVec) and after
// grouped/hasStar/distinct are known. c must be the inner (scoped) compiler.
func (c *compiler) compileVec(pq *planQuery, sel, where, groupby, having, orderby *dt.Node) {
	if pq.err != nil || pq.hasJoin || pq.hasStar {
		return
	}
	n := len(pq.sources)
	if n < 1 || n > 2 {
		return
	}
	total := 0
	for _, ps := range pq.sources {
		if ps.sub != nil || ps.table == nil {
			return
		}
		total += len(ps.table.Rows)
	}
	if !c.vecForce && total < minVecRows {
		return
	}

	vp := &vecPlan{
		nsrc:      n,
		tabs:      make([]*Table, n),
		cols:      make([]*tableCols, n),
		scanPreds: make([][]vecPred, n),
		key0:      -1, key1: -1,
		grouped:    pq.grouped,
		hasGroupBy: pq.hasGroupBy,
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
	// the row pipeline's encoded-key hash join handles it better than a
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

	// Output shapes.
	if pq.grouped {
		if !c.vecGrouped(vp, sel, groupby, having, orderby) {
			return
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

	pq.vec = vp
	pq.vecst = &vecState{}
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
	return p
}

// vecGrouped recognizes the grouped output shapes: GROUP BY keys are bare
// columns; select items, HAVING operands and ORDER BY keys are atoms
// (literal, bare column, or aggregate over a bare column).
func (c *compiler) vecGrouped(vp *vecPlan, sel, groupby, having, orderby *dt.Node) bool {
	if groupby.Kind == dt.KindGroupBy {
		for _, g := range groupby.Children {
			col, ok := c.vecLocalCol(g)
			if !ok {
				return false
			}
			vp.groupBy = append(vp.groupBy, col)
		}
	}
	for _, item := range sel.Children {
		a, ok := c.gAtom(vp, item.Children[0])
		if !ok {
			return false
		}
		vp.gItems = append(vp.gItems, a)
	}
	if having.Kind == dt.KindHaving {
		h := having.Children[0]
		if h.Kind == dt.KindBinary {
			if op, okOp := vecOpFor(h.Label); okOp && len(h.Children) == 2 {
				l, okL := c.gAtom(vp, h.Children[0])
				r, okR := c.gAtom(vp, h.Children[1])
				if !okL || !okR {
					return false
				}
				vp.gHaving = &gCmp{cmp: true, op: op, l: l, r: r}
			} else {
				return false
			}
		} else {
			a, ok := c.gAtom(vp, h)
			if !ok {
				return false
			}
			vp.gHaving = &gCmp{l: a}
		}
	}
	for _, oi := range orderItems(orderby) {
		a, ok := c.gAtom(vp, oi.Children[0])
		if !ok {
			return false
		}
		vp.gOrder = append(vp.gOrder, a)
	}
	return true
}

// gAtom recognizes one grouped-context atom, interning aggregates.
func (c *compiler) gAtom(vp *vecPlan, e *dt.Node) (gExpr, bool) {
	switch e.Kind {
	case dt.KindNumber:
		lit, ok := litValue(e)
		if !ok {
			return gExpr{}, false
		}
		return gExpr{kind: gLit, lit: lit}, true
	case dt.KindString:
		return gExpr{kind: gLit, lit: StrVal(e.Label)}, true
	case dt.KindIdent:
		col, ok := c.vecLocalCol(e)
		if !ok {
			return gExpr{}, false
		}
		return gExpr{
			kind:       gCol,
			col:        col,
			lower:      strings.ToLower(e.Label),
			errUnknown: fmt.Errorf("engine: unknown column %q", e.Label),
		}, true
	case dt.KindFunc:
		if !isAggregate(e.Label) {
			return gExpr{}, false
		}
		a, ok := c.vecAggregate(e)
		if !ok {
			return gExpr{}, false
		}
		return gExpr{kind: gAgg, agg: vp.internAgg(a)}, true
	}
	return gExpr{}, false
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

// internAgg dedupes aggregates by (kind, column) and returns the index.
func (vp *vecPlan) internAgg(a vecAgg) int {
	for i := range vp.aggs {
		if vp.aggs[i].kind == a.kind && vp.aggs[i].col == a.col {
			return i
		}
	}
	vp.aggs = append(vp.aggs, a)
	return len(vp.aggs) - 1
}
