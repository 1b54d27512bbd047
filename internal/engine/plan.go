package engine

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	dt "pi2/internal/difftree"
)

// Plan is a query compiled once against a DB snapshot: table references are
// resolved to *Table pointers, identifiers are pre-lowercased and (where
// possible) bound to (frame, column) indexes, expressions become closures,
// and the output schema (column names and types) is computed up front.
// Executing a Plan re-walks no AST and re-lowercases no strings.
//
// A Plan records the generation of every table it resolved; Exec refuses to
// run once any of *those* tables has mutated (ErrStalePlan) — writes to
// unrelated tables leave the plan valid. Plans whose query referenced an
// unknown name additionally depend on the table-set fingerprint, so
// registering the missing table invalidates the memoized error. A Plan is
// immutable after Prepare: every Exec keeps its run-time state (selections,
// build sides) in a scratch of its own, so Plans are safe for concurrent Exec
// calls and hold no memory between them; table snapshots are immutable.
type Plan struct {
	db   *DB
	root *planQuery

	deps    []planDep // tables read, with the generation each resolved at
	setSnap uint64    // table-set fingerprint at prepare (see setDep)
	setDep  bool      // a name failed to resolve: stale once the set changes
}

// planDep is one resolved table dependency. ctr points at the table's live
// generation counter so Stale can poll it without taking db.mu.
type planDep struct {
	gen uint64
	ctr *atomic.Uint64
}

// depTracker accumulates the table dependencies of one compilation. Shared
// by every (sub)compiler of a prepare call.
type depTracker struct {
	deps    []planDep
	missing bool
}

func (d *depTracker) add(ctr *atomic.Uint64, gen uint64) {
	for _, pd := range d.deps {
		if pd.ctr == ctr {
			return
		}
	}
	d.deps = append(d.deps, planDep{gen: gen, ctr: ctr})
}

// ErrStalePlan is returned by Exec/ExecProfiled when a table the plan reads
// has mutated since Prepare. Callers should re-Prepare and retry.
var ErrStalePlan = errors.New("engine: plan is stale (database mutated since Prepare)")

// Prepare compiles a concrete query AST (no choice nodes) into a Plan. The
// plan executes through the columnar batch path when the query fits it
// (pushed-down scan predicates, index access and hash joins, see vec.go), or
// else through one row-at-a-time FROM operator (hash equi-joins, see
// from.go), type-tagged grouping keys and a bounded top-K heap for ORDER BY +
// LIMIT (see sink.go and ARCHITECTURE.md).
func Prepare(db *DB, q *dt.Node) (*Plan, error) {
	return prepare(db, q, false)
}

// prepareForceIndex compiles like Prepare but makes the access-path chooser
// take an index whenever one is semantically legal, ignoring the cost
// thresholds. Test-only: it lets small fixture tables exercise the index
// paths the cost model reserves for large ones.
func prepareForceIndex(db *DB, q *dt.Node) (*Plan, error) {
	return prepare(db, q, true)
}

// prepare compiles q; force takes every semantically legal index (see
// prepareForceIndex).
func prepare(db *DB, q *dt.Node, force bool) (*Plan, error) {
	if q == nil || q.Kind != dt.KindQuery {
		return nil, fmt.Errorf("engine: expected query node, got %v", q)
	}
	// The set fingerprint is snapshotted before any name resolution: if Add
	// registers a table mid-compile, the fingerprint has already moved and
	// the plan reports stale rather than memoizing a torn view.
	setSnap := db.TableSetGeneration()
	deps := &depTracker{}
	c := &compiler{db: db, deps: deps, force: force}
	root := c.compileQuery(q, nil)
	return &Plan{db: db, root: root, deps: deps.deps, setSnap: setSnap, setDep: deps.missing}, nil
}

// Exec runs the compiled plan and returns the result table. The returned
// table shares its Cols/Types slices across executions; callers must treat
// results as immutable.
func (p *Plan) Exec() (*Table, error) {
	if p.Stale() {
		return nil, ErrStalePlan
	}
	env := newExecEnv()
	defer env.plan.release()
	return p.root.run(env, nil)
}

// execScratch is one Exec's run-time state. Each compiled query level keeps
// the work over its base tables that does not depend on the outer row (its
// hash build sides and vectorized selections) here, computed on first use,
// so a subquery that re-runs once per outer row does that work once per
// Exec. The scratch is dropped when Exec returns, and the pooled
// buffers it kept go back to their pool then.
type execScratch struct {
	qs   map[*planQuery]*queryScratch
	kept []*[]int32 // pooled buffers held until Exec returns (keep)
}

// queryScratch is one query level's part of an execScratch.
type queryScratch struct {
	hash []*hashSide // row path: each base-table level's hash build side, nil until built

	// sel holds the vectorized path's selection per source (nil = all rows),
	// valid once selDone. Each one is a pooled buffer the Exec keeps: it is
	// returned when Exec returns, so no result table may reference it.
	sel     [][]int32
	selDone bool
	build   *hashIndex // vectorized path: hash over source 1's selection; nil until built
}

// Row-id and bitmap buffers are borrowed from these pools, so a run of the
// vectorized path allocates nothing per row. A buffer a single run of a
// query level needs (group ids, join pairs, the bitmap that orders range
// hits) goes back when that run returns, so a subquery re-run once per
// outer row reuses one buffer instead of holding one per run; a buffer the
// Exec keeps (execScratch.keep) goes back when Exec returns.
var (
	int32Pool  = sync.Pool{New: func() any { return new([]int32) }}
	bitmapPool = sync.Pool{New: func() any { return new([]uint64) }}
)

// getInt32s borrows a non-nil buffer of length n; its contents are
// arbitrary. Return it with putInt32s.
func getInt32s(n int) *[]int32 {
	p := int32Pool.Get().(*[]int32)
	if *p == nil || cap(*p) < n {
		*p = make([]int32, n)
	}
	*p = (*p)[:n]
	return p
}

func putInt32s(p *[]int32) { int32Pool.Put(p) }

// getBitmap borrows a zeroed bitmap of the given number of words. Return it
// with putBitmap.
func getBitmap(words int) *[]uint64 {
	p := bitmapPool.Get().(*[]uint64)
	if cap(*p) < words {
		*p = make([]uint64, words)
	} else {
		*p = (*p)[:words]
		clear(*p)
	}
	return p
}

func putBitmap(p *[]uint64) { bitmapPool.Put(p) }

// keep borrows a buffer of length n that stays valid until the Exec
// returns.
func (x *execScratch) keep(n int) []int32 {
	p := getInt32s(n)
	x.kept = append(x.kept, p)
	return *p
}

// release returns every kept buffer to its pool; Exec calls it on return.
func (x *execScratch) release() {
	for _, p := range x.kept {
		putInt32s(p)
	}
	x.kept = nil
}

// planEnv is what a compiled plan attaches to a rowEnv: an Exec's root
// environment carries the Exec's scratch, and a batch group's env the
// group's accumulated aggregates. One field for both keeps rowEnv, which
// the row path allocates per emitted row, at 64 bytes.
type planEnv struct {
	execScratch
	group *vecGroup
}

// newExecEnv returns the root environment of one execution: it binds no
// frames, so every lookup falls through it exactly as past a nil outer, and
// it carries the Exec's scratch.
func newExecEnv() *rowEnv { return &rowEnv{plan: &planEnv{}} }

// scratch returns the execScratch of the execution e belongs to, held by
// the root of its outer chain (newExecEnv).
func (e *rowEnv) scratch() *execScratch {
	for e.outer != nil {
		e = e.outer
	}
	return &e.plan.execScratch
}

// query returns pq's scratch in x, creating it on first use.
func (x *execScratch) query(pq *planQuery) *queryScratch {
	qs := x.qs[pq]
	if qs == nil {
		if x.qs == nil {
			x.qs = map[*planQuery]*queryScratch{}
		}
		qs = &queryScratch{hash: make([]*hashSide, len(pq.sources))}
		x.qs[pq] = qs
	}
	return qs
}

// Stale reports whether any table the plan reads has mutated since the plan
// was prepared, which would make its resolved snapshots out of date. Writes
// to tables the plan does not read never stale it. Lock-free: one atomic
// load per dependency.
func (p *Plan) Stale() bool {
	if p.setDep && p.db.TableSetGeneration() != p.setSnap {
		return true
	}
	for i := range p.deps {
		if p.deps[i].ctr.Load() != p.deps[i].gen {
			return true
		}
	}
	return false
}

// Cols returns the output column names, known without executing.
func (p *Plan) Cols() []string { return p.root.cols }

// Types returns the output column types, known without executing.
func (p *Plan) Types() []ColType { return p.root.types }

// exprFn is a compiled expression: it evaluates against a row (or group)
// environment exactly as evalExpr would evaluate the source AST.
type exprFn func(env *rowEnv) (Value, error)

// planSource is one compiled FROM entry.
type planSource struct {
	alias string   // lowercased alias (or table name)
	cols  []string // lowercased column names, fixed at prepare time
	table *Table   // base table; nil for derived tables
	sub   *planQuery
	meta  *Table // schema used for output naming/typing (original-case cols)
}

// planQuery mirrors execQuery with every per-row decision hoisted to
// prepare time.
type planQuery struct {
	err error // deferred compile error (unknown table, bad table ref)

	// db backs the run-time access-path machinery: index lookups in
	// indexRows and hash-build reuse in levelHash.
	db *DB

	sources []*planSource

	// items holds one compiled closure per select item; a nil entry is a
	// '*' item, which appends every frame's row wholesale at projection
	// time exactly like the interpreter (rows may be ragged in empty-group
	// or derived-table edge cases, so '*' cannot be pre-expanded into
	// per-column accesses).
	items   []exprFn
	hasStar bool
	sel     []*dt.Node // the select items' AST, for derived-column origins (cost.go)

	// levels holds one FROM-operator level per source (from.go); residual
	// is the WHERE left for the last level: a comma FROM's conjuncts other
	// than its hash keys, in order, or a JOIN FROM's monolithic post-join
	// WHERE.
	levels   []level
	residual []exprFn
	hasJoin  bool

	grouped    bool
	hasGroupBy bool
	groupBy    []exprFn
	having     exprFn

	// aggs lists the level's aggregates the batch path accumulates, each
	// once (internAgg, vec.go); aggMiss marks an aggregate it cannot, which
	// keeps a grouped level on the row path.
	aggs    []vecAgg
	aggMiss bool

	order     []exprFn
	orderDesc []bool

	limit    int // -1 when absent
	limitErr error
	distinct bool

	// vec is the columnar batch plan when the query falls in the
	// vectorizable class (vec.go); nil keeps the row paths above untouched.
	vec *vecPlan

	cols  []string
	types []ColType
}

// scope is the compile-time image of the rowEnv chain: one level per query
// nesting, each holding that query's FROM sources.
type scope struct {
	sources []*planSource
	outer   *scope
}

type compiler struct {
	db    *DB
	sc    *scope
	pq    *planQuery  // the level whose expressions compile here (internAgg)
	deps  *depTracker // table dependencies of the whole prepare; may be nil
	force bool        // bypass the chooser's cost thresholds (prepareForceIndex)
}

func (c *compiler) compileQuery(q *dt.Node, outer *scope) *planQuery {
	sel, from, where := q.Children[0], q.Children[1], q.Children[2]
	groupby, having, orderby, limit := q.Children[3], q.Children[4], q.Children[5], q.Children[6]

	pq := &planQuery{db: c.db, limit: -1, distinct: sel.Label == "distinct", sel: sel.Children}

	// FROM: resolve base tables now; compile derived tables against the
	// enclosing scope (they may be correlated with the outer query but not
	// with their siblings).
	var entries []fromEntry
	if from.Kind == dt.KindFrom {
		var entErr error
		entries, pq.hasJoin, entErr = fromEntries(from)
		if entErr != nil {
			pq.err = entErr
			return pq
		}
		// ON and WHERE compile with their literal-only calls folded, so the
		// hash-key and columnar classifiers see literals.
		for i := range entries {
			if entries[i].on != nil {
				entries[i].on = c.foldCalls(entries[i].on)
			}
		}
		for _, en := range entries {
			src, alias := en.ref.Children[0], en.ref.Children[1]
			ps := &planSource{}
			name := ""
			switch src.Kind {
			case dt.KindIdent:
				t, ctr, gen, ok := c.db.tableRef(src.Label)
				if !ok {
					if pq.err == nil {
						pq.err = fmt.Errorf("engine: unknown table %q", src.Label)
					}
					if c.deps != nil {
						c.deps.missing = true
					}
					t = &Table{}
				} else if c.deps != nil {
					c.deps.add(ctr, gen)
				}
				ps.table = t
				ps.meta = t
				name = t.Name
			case dt.KindQuery:
				ps.sub = c.compileQuery(src, outer)
				ps.meta = &Table{Cols: ps.sub.cols, Types: ps.sub.types}
			default:
				if pq.err == nil {
					pq.err = fmt.Errorf("engine: bad table ref %v", src)
				}
				ps.meta = &Table{}
			}
			if alias.Kind == dt.KindIdent {
				name = alias.Label
			}
			if name == "" {
				name = fmt.Sprintf("t%d", len(pq.sources))
			}
			ps.alias = strings.ToLower(name)
			ps.cols = make([]string, len(ps.meta.Cols))
			for j, col := range ps.meta.Cols {
				ps.cols[j] = strings.ToLower(col)
			}
			pq.sources = append(pq.sources, ps)
		}
	}
	pq.grouped = groupby.Kind == dt.KindGroupBy || anyAggregate(sel.Children) ||
		(having.Kind == dt.KindHaving && anyAggregate([]*dt.Node{having}))
	pq.hasGroupBy = groupby.Kind == dt.KindGroupBy

	// Expressions compile in this query's scope.
	sc := &scope{sources: pq.sources, outer: outer}
	inner := &compiler{db: c.db, sc: sc, pq: pq, deps: c.deps, force: c.force}

	var whereExpr *dt.Node
	if where.Kind == dt.KindWhere {
		whereExpr = c.foldCalls(where.Children[0])
	}
	if len(pq.sources) > 0 {
		inner.compileFrom(pq, entries, whereExpr, outer)
	} else if whereExpr != nil {
		pq.residual = []exprFn{inner.compile(whereExpr)}
	}
	for _, item := range sel.Children {
		if item.Children[0].Kind == dt.KindStar {
			pq.items = append(pq.items, nil)
			pq.hasStar = true
			continue
		}
		pq.items = append(pq.items, inner.compile(item.Children[0]))
	}
	if pq.hasGroupBy {
		for _, g := range groupby.Children {
			pq.groupBy = append(pq.groupBy, inner.compile(g))
		}
	}
	if having.Kind == dt.KindHaving {
		pq.having = inner.compile(having.Children[0])
	}
	for _, oi := range orderItems(orderby) {
		pq.order = append(pq.order, inner.compile(oi.Children[0]))
		pq.orderDesc = append(pq.orderDesc, oi.Label == "desc")
	}
	if limit.Kind == dt.KindLimit {
		n, err := strconv.Atoi(limit.Label)
		if err != nil {
			pq.limitErr = fmt.Errorf("engine: bad limit %q", limit.Label)
		} else {
			pq.limit = n
		}
	}

	// Vectorized path (vec.go): attach a columnar batch plan when the whole
	// query is recognizably vectorizable; otherwise pq.vec stays nil and the
	// row paths above run untouched.
	inner.compileVec(pq, sel, whereExpr, groupby, orderby)

	// Output schema, computed once: reuse the interpreter's naming and type
	// inference over pseudo-sources so the result header is bit-identical.
	pseudo := make([]source, len(pq.sources))
	for i, ps := range pq.sources {
		pseudo[i] = source{alias: ps.alias, table: ps.meta}
	}
	pq.cols, _ = outputNames(sel.Children, pseudo)
	expanded := expandItems(sel.Children, pseudo)
	pq.types = make([]ColType, len(pq.cols))
	for i, item := range expanded {
		pq.types[i] = inferColType(c.db, item, pseudo, nil)
	}
	return pq
}

// foldCalls returns e with every literal-only call of a built-in scalar
// function (today, date, abs, round, lower, upper) replaced by a literal of
// its value, folded bottom-up so date(today(), '-7 days') folds whole. A call
// folds only when it evaluates without error to a non-NULL string or a
// finite number; anything else stays a call, so error text and error order
// do not change. DB.Now is fixed for the DB's lifetime, which makes today() a
// constant. Subqueries are left alone (each query level folds its own WHERE
// and ON), and e is never mutated: a changed node is rebuilt with dt.New and
// unchanged subtrees are shared.
func (c *compiler) foldCalls(e *dt.Node) *dt.Node {
	if e.Kind == dt.KindQuery {
		return e
	}
	var kids []*dt.Node
	for i, ch := range e.Children {
		f := c.foldCalls(ch)
		if f != ch && kids == nil {
			kids = append(make([]*dt.Node, 0, len(e.Children)), e.Children[:i]...)
		}
		if kids != nil {
			kids = append(kids, f)
		}
	}
	if kids != nil {
		e = dt.New(e.Kind, e.Label, kids...)
	}
	if e.Kind != dt.KindFunc {
		return e
	}
	switch e.Label {
	case "today", "date", "abs", "round", "lower", "upper":
	default:
		return e
	}
	for _, ch := range e.Children {
		if !ch.Kind.IsLiteral() {
			return e
		}
	}
	v, err := c.compileFunc(e)(&rowEnv{})
	switch {
	case err != nil || v.Null:
		return e
	case v.IsStr:
		return dt.New(dt.KindString, v.Str)
	case math.IsInf(v.Num, 0) || v.Num != v.Num:
		return e
	}
	return dt.New(dt.KindNumber, strconv.FormatFloat(v.Num, 'g', -1, 64))
}

// run executes the compiled query, mirroring execQuery step for step.
//
// prof is nil on every normal execution; ExecProfiled passes a collector
// and each operator then also records rows in/out and wall time. All
// instrumentation is gated on `prof != nil`, so the unprofiled hot path
// pays one branch per operator and takes no timestamps.
func (pq *planQuery) run(outer *rowEnv, prof *Profile) (*Table, error) {
	if pq.err != nil {
		return nil, pq.err
	}

	// 1. FROM: base tables were resolved at prepare time; derived tables
	// execute once per run (they may be correlated with the outer query).
	tables := make([]*Table, len(pq.sources))
	for i, ps := range pq.sources {
		if ps.sub != nil {
			var t0 time.Time
			if prof != nil {
				t0 = time.Now()
			}
			t, err := ps.sub.run(outer, nil)
			if err != nil {
				return nil, err
			}
			if prof != nil {
				prof.add("derived", ps.alias, 0, len(t.Rows), time.Since(t0))
			}
			tables[i] = t
		} else {
			tables[i] = ps.table
		}
	}

	// 2./3. Enumerate surviving rows and project them into the sink, which
	// applies DISTINCT + ORDER BY + LIMIT — via a bounded top-K heap when
	// both ORDER BY and LIMIT are present.
	//
	// The vectorized path (vecexec.go) fuses both steps over columnar
	// batches and feeds the identical sink; everything below it (finish,
	// limit, schema) is shared, so both paths produce bit-identical tables.
	var sink rowSink
	pq.initSink(&sink)
	offered := 0
	if pq.vec != nil {
		n, err := pq.runVec(outer, prof, &sink)
		if err != nil {
			return nil, err
		}
		offered = n
	} else if err := pq.runRows(tables, outer, prof, &sink, &offered); err != nil {
		return nil, err
	}

	// 4./5. DISTINCT + ORDER BY resolve in the sink.
	var tFin time.Time
	if prof != nil {
		tFin = time.Now()
	}
	outRows := sink.finish()
	if prof != nil {
		d := time.Since(tFin)
		switch {
		case sink.top != nil:
			prof.add("top-k", fmt.Sprintf("limit %d", pq.limit), offered, len(outRows), d)
		case sink.distinct && len(sink.desc) > 0:
			prof.add("distinct+sort", "", offered, len(outRows), d)
		case sink.distinct:
			prof.add("distinct", "", offered, len(outRows), d)
		case len(sink.desc) > 0:
			prof.add("sort", "", offered, len(outRows), d)
		}
	}

	// 6. LIMIT.
	if pq.limitErr != nil {
		return nil, pq.limitErr
	}
	if pq.limit >= 0 && pq.limit < len(outRows) {
		if prof != nil {
			prof.add("limit", strconv.Itoa(pq.limit), len(outRows), pq.limit, 0)
		}
		outRows = outRows[:pq.limit]
	}

	// 7. Output schema was pre-computed at prepare time.
	return &Table{Cols: pq.cols, Types: pq.types, Rows: outRows}, nil
}

// runRows is the row-at-a-time half of run: the FROM operator enumerates
// the surviving rows (from.go), then grouped or plain projection feeds the
// sink.
func (pq *planQuery) runRows(tables []*Table, outer *rowEnv, prof *Profile, sink *rowSink, offeredOut *int) error {
	rows, err := pq.runFrom(tables, outer, prof)
	if err != nil {
		return err
	}

	offered := 0
	var tProj time.Time
	if pq.grouped {
		var t0 time.Time
		if prof != nil {
			t0 = time.Now()
		}
		groups := pq.groupRows(rows)
		if prof != nil {
			prof.add("group", "", len(rows), len(groups), time.Since(t0))
			tProj = time.Now()
		}
		for _, g := range groups {
			genv := &rowEnv{outer: outer, groupRows: g}
			if len(g) > 0 {
				genv.frames = g[0].frames
			} else {
				genv.groupRows = []*rowEnv{} // empty group: count(*)=0
			}
			ok, err := pq.emitGroup(genv, sink)
			if err != nil {
				return err
			}
			offered += b2i(ok)
		}
		if prof != nil {
			prof.add("project", "", len(groups), offered, time.Since(tProj))
		}
	} else {
		if prof != nil {
			tProj = time.Now()
		}
		for _, env := range rows {
			row, keys, err := pq.projectRow(env)
			if err != nil {
				return err
			}
			sink.add(row, keys)
			offered++
		}
		if prof != nil {
			prof.add("project", "", len(rows), offered, time.Since(tProj))
		}
	}
	*offeredOut = offered
	return nil
}

// emitGroup is the per-group output step of both paths: genv binds the
// group's representative row (no frames for an empty implicit group) and its
// aggregates. HAVING filters the group, then the select items and order keys
// evaluate, in that order, and the row goes to sink. It reports whether the
// group was offered.
func (pq *planQuery) emitGroup(genv *rowEnv, sink *rowSink) (bool, error) {
	if pq.having != nil {
		hv, err := pq.having(genv)
		if err != nil || !hv.Truthy() {
			return false, err
		}
	}
	row, keys, err := pq.projectRow(genv)
	if err != nil {
		return false, err
	}
	sink.add(row, keys)
	return true, nil
}

// groupRows partitions rows into groups by the compiled GROUP BY key in
// first-seen order, using type-tagged keys (a string containing the old
// 0x1f separator, or a number whose text equals a string, can no longer
// merge groups); a key expression that errors groups under NULL exactly
// like the interpreted path.
func (pq *planQuery) groupRows(rows []*rowEnv) [][]*rowEnv {
	idx := map[string]int{}
	var groups [][]*rowEnv
	var buf []byte
	for _, env := range rows {
		buf = buf[:0]
		if pq.hasGroupBy {
			for _, g := range pq.groupBy {
				v, err := g(env)
				if err != nil {
					v = NullVal()
				}
				buf = appendGroupKey(buf, v)
			}
		}
		if gi, ok := idx[string(buf)]; ok {
			groups[gi] = append(groups[gi], env)
		} else {
			idx[string(buf)] = len(groups)
			groups = append(groups, []*rowEnv{env})
		}
	}
	if !pq.hasGroupBy && len(rows) == 0 {
		// aggregate over empty input still yields one (empty) group
		groups = append(groups, nil)
	}
	return groups
}

// projectRow evaluates the compiled select items and order keys. Without a
// '*' item the output row is pre-sized; with one, frames append wholesale
// (mirroring the interpreter, including its ragged rows when a frame's row
// is shorter than the compile-time schema or absent entirely).
func (pq *planQuery) projectRow(env *rowEnv) ([]Value, []Value, error) {
	var row []Value
	if !pq.hasStar {
		row = make([]Value, len(pq.items))
		for i, it := range pq.items {
			v, err := it(env)
			if err != nil {
				return nil, nil, err
			}
			row[i] = v
		}
		return pq.projectKeys(env, row)
	}
	for _, it := range pq.items {
		if it == nil {
			for _, f := range env.frames {
				row = append(row, f.row...)
			}
			continue
		}
		v, err := it(env)
		if err != nil {
			return nil, nil, err
		}
		row = append(row, v)
	}
	return pq.projectKeys(env, row)
}

func (pq *planQuery) projectKeys(env *rowEnv, row []Value) ([]Value, []Value, error) {
	if len(pq.order) == 0 {
		return row, nil, nil
	}
	keys := make([]Value, len(pq.order))
	for i, of := range pq.order {
		v, err := of(env)
		if err != nil {
			return nil, nil, err
		}
		keys[i] = v
	}
	return row, keys, nil
}

func constFn(v Value) exprFn {
	return func(*rowEnv) (Value, error) { return v, nil }
}

func errFn(err error) exprFn {
	return func(*rowEnv) (Value, error) { return Value{}, err }
}

// compile turns an expression AST into a closure. Compilation itself never
// fails: anything the interpreter would reject at evaluation time (unknown
// column, unknown operator, '*' outside count) compiles to a closure that
// returns the identical error, preserving short-circuit semantics — a
// predicate branch that is never evaluated never errors.
func (c *compiler) compile(e *dt.Node) exprFn {
	switch e.Kind {
	case dt.KindNumber:
		f, err := strconv.ParseFloat(e.Label, 64)
		if err != nil {
			return errFn(fmt.Errorf("engine: bad number %q", e.Label))
		}
		return constFn(NumVal(f))
	case dt.KindString:
		return constFn(StrVal(e.Label))
	case dt.KindIdent:
		return c.compileIdent(e.Label)
	case dt.KindAnd:
		// Kleene AND, mirroring evalExpr: FALSE short-circuits, NULL keeps
		// evaluating (later conjuncts still surface their errors).
		fns := c.compileAll(e.Children)
		return func(env *rowEnv) (Value, error) {
			sawNull := false
			for _, fn := range fns {
				v, err := fn(env)
				if err != nil {
					return Value{}, err
				}
				if v.Null {
					sawNull = true
				} else if !v.Truthy() {
					return BoolVal(false), nil
				}
			}
			if sawNull {
				return NullVal(), nil
			}
			return BoolVal(true), nil
		}
	case dt.KindOr:
		fns := c.compileAll(e.Children)
		return func(env *rowEnv) (Value, error) {
			sawNull := false
			for _, fn := range fns {
				v, err := fn(env)
				if err != nil {
					return Value{}, err
				}
				if v.Null {
					sawNull = true
				} else if v.Truthy() {
					return BoolVal(true), nil
				}
			}
			if sawNull {
				return NullVal(), nil
			}
			return BoolVal(false), nil
		}
	case dt.KindNot:
		fn := c.compile(e.Children[0])
		return func(env *rowEnv) (Value, error) {
			v, err := fn(env)
			if err != nil {
				return Value{}, err
			}
			if v.Null {
				return NullVal(), nil
			}
			return BoolVal(!v.Truthy()), nil
		}
	case dt.KindBinary:
		return c.compileBinary(e)
	case dt.KindBetween:
		vf := c.compile(e.Children[0])
		lof := c.compile(e.Children[1])
		hif := c.compile(e.Children[2])
		return func(env *rowEnv) (Value, error) {
			v, err := vf(env)
			if err != nil {
				return Value{}, err
			}
			lo, err := lof(env)
			if err != nil {
				return Value{}, err
			}
			hi, err := hif(env)
			if err != nil {
				return Value{}, err
			}
			if !v.Null && !lo.Null && Compare(v, lo) < 0 {
				return BoolVal(false), nil
			}
			if !v.Null && !hi.Null && Compare(v, hi) > 0 {
				return BoolVal(false), nil
			}
			if v.Null || lo.Null || hi.Null {
				return NullVal(), nil
			}
			return BoolVal(true), nil
		}
	case dt.KindIn:
		return c.compileIn(e)
	case dt.KindFunc:
		return c.compileFunc(e)
	case dt.KindQuery:
		sub := c.compileQuery(e, c.sc)
		return func(env *rowEnv) (Value, error) {
			t, err := sub.run(env, nil)
			if err != nil {
				return Value{}, err
			}
			if len(t.Rows) == 0 || len(t.Rows[0]) == 0 {
				return NullVal(), nil
			}
			return t.Rows[0][0], nil
		}
	case dt.KindStar:
		return errFn(fmt.Errorf("engine: '*' outside count()"))
	default:
		return errFn(fmt.Errorf("engine: cannot evaluate %v node", e.Kind))
	}
}

func (c *compiler) compileAll(nodes []*dt.Node) []exprFn {
	out := make([]exprFn, len(nodes))
	for i, n := range nodes {
		out[i] = c.compile(n)
	}
	return out
}

// compileIdent resolves a column reference at prepare time. References to
// this query's own sources become direct (frame, column) index accesses;
// correlated (outer) references and unresolvable names fall back to the
// dynamic chain lookup with a pre-lowercased name.
func (c *compiler) compileIdent(name string) exprFn {
	lower := strings.ToLower(name)
	alias, col := "", lower
	if i := strings.IndexByte(lower, '.'); i >= 0 {
		alias, col = lower[:i], lower[i+1:]
	}
	unknown := fmt.Errorf("engine: unknown column %q", name)
	depth := 0
	for sc := c.sc; sc != nil; sc = sc.outer {
		for fi, ps := range sc.sources {
			if alias != "" && ps.alias != alias {
				continue
			}
			for ci, pc := range ps.cols {
				if pc != col {
					continue
				}
				if depth > 0 {
					// Correlated reference: the runtime env chain can pass
					// through group contexts whose frame layout differs, so
					// resolve dynamically (but with the lowering pre-done).
					return func(env *rowEnv) (Value, error) {
						if v, ok := env.lookupLower(lower); ok {
							return v, nil
						}
						return Value{}, unknown
					}
				}
				fi, ci := fi, ci
				return func(env *rowEnv) (Value, error) {
					if len(env.frames) == 0 {
						// Empty-group context (aggregate over no rows): the
						// interpreter's lookup would skip the empty local
						// level and search outward; mirror that.
						if v, ok := env.lookupLower(lower); ok {
							return v, nil
						}
						return Value{}, unknown
					}
					return env.frames[fi].row[ci], nil
				}
			}
		}
		depth++
	}
	return errFn(unknown)
}

func (c *compiler) compileBinary(e *dt.Node) exprFn {
	lf := c.compile(e.Children[0])
	rf := c.compile(e.Children[1])
	switch e.Label {
	case "=", "<>", "<", ">", "<=", ">=":
		var test func(int) bool
		switch e.Label {
		case "=":
			test = func(c int) bool { return c == 0 }
		case "<>":
			test = func(c int) bool { return c != 0 }
		case "<":
			test = func(c int) bool { return c < 0 }
		case ">":
			test = func(c int) bool { return c > 0 }
		case "<=":
			test = func(c int) bool { return c <= 0 }
		default:
			test = func(c int) bool { return c >= 0 }
		}
		return func(env *rowEnv) (Value, error) {
			l, r, err := evalPair(lf, rf, env)
			if err != nil {
				return Value{}, err
			}
			if l.Null || r.Null {
				return NullVal(), nil
			}
			return BoolVal(test(Compare(l, r))), nil
		}
	case "+", "-", "*", "/":
		op := e.Label
		return func(env *rowEnv) (Value, error) {
			l, r, err := evalPair(lf, rf, env)
			if err != nil {
				return Value{}, err
			}
			if l.Null || r.Null {
				return NullVal(), nil
			}
			if l.IsStr || r.IsStr {
				return Value{}, fmt.Errorf("engine: arithmetic on string values")
			}
			switch op {
			case "+":
				return NumVal(l.Num + r.Num), nil
			case "-":
				return NumVal(l.Num - r.Num), nil
			case "*":
				return NumVal(l.Num * r.Num), nil
			default:
				if r.Num == 0 {
					return NullVal(), nil
				}
				return NumVal(l.Num / r.Num), nil
			}
		}
	case "like":
		return func(env *rowEnv) (Value, error) {
			l, r, err := evalPair(lf, rf, env)
			if err != nil {
				return Value{}, err
			}
			if l.Null || r.Null {
				return NullVal(), nil
			}
			return BoolVal(likeMatch(l.Text(), r.Text())), nil
		}
	default:
		return errFn(fmt.Errorf("engine: unknown operator %q", e.Label))
	}
}

func evalPair(lf, rf exprFn, env *rowEnv) (Value, Value, error) {
	l, err := lf(env)
	if err != nil {
		return Value{}, Value{}, err
	}
	r, err := rf(env)
	if err != nil {
		return Value{}, Value{}, err
	}
	return l, r, nil
}

func (c *compiler) compileIn(e *dt.Node) exprFn {
	vf := c.compile(e.Children[0])
	negate := e.Label == "not in"
	target := e.Children[1]
	if target.Kind == dt.KindQuery {
		sub := c.compileQuery(target, c.sc)
		return func(env *rowEnv) (Value, error) {
			v, err := vf(env)
			if err != nil {
				return Value{}, err
			}
			t, err := sub.run(env, nil)
			if err != nil {
				return Value{}, err
			}
			var found, sawNull bool
			for _, row := range t.Rows {
				if len(row) == 0 {
					continue
				}
				if EqualVal(v, row[0]) {
					found = true
					break
				}
				if row[0].Null {
					sawNull = true
				}
			}
			return inVerdict(negate, found, sawNull || v.Null), nil
		}
	}
	elems := c.compileAll(target.Children)
	return func(env *rowEnv) (Value, error) {
		v, err := vf(env)
		if err != nil {
			return Value{}, err
		}
		var found, sawNull bool
		for _, ef := range elems {
			cv, err := ef(env)
			if err != nil {
				return Value{}, err
			}
			if EqualVal(v, cv) {
				found = true
				break
			}
			if cv.Null {
				sawNull = true
			}
		}
		return inVerdict(negate, found, sawNull || v.Null), nil
	}
}

func (c *compiler) compileFunc(e *dt.Node) exprFn {
	name := e.Label
	if isAggregate(name) {
		return c.compileAggregate(e)
	}
	switch name {
	case "today":
		db := c.db
		return func(*rowEnv) (Value, error) { return StrVal(db.Now), nil }
	case "date":
		if len(e.Children) != 2 {
			return errFn(fmt.Errorf("engine: date() takes (base, offset)"))
		}
		basef := c.compile(e.Children[0])
		offf := c.compile(e.Children[1])
		return func(env *rowEnv) (Value, error) {
			base, off, err := evalPair(basef, offf, env)
			if err != nil {
				return Value{}, err
			}
			return dateOffset(base.Text(), off.Text())
		}
	case "abs":
		if len(e.Children) == 0 {
			return errFn(fmt.Errorf("engine: %s() takes one argument", name))
		}
		fn := c.compile(e.Children[0])
		return func(env *rowEnv) (Value, error) {
			v, err := fn(env)
			if err != nil {
				return Value{}, err
			}
			if v.Null || v.IsStr {
				return NullVal(), nil
			}
			if v.Num < 0 {
				return NumVal(-v.Num), nil
			}
			return v, nil
		}
	case "round":
		if len(e.Children) == 0 {
			return errFn(fmt.Errorf("engine: %s() takes one argument", name))
		}
		fn := c.compile(e.Children[0])
		return func(env *rowEnv) (Value, error) {
			v, err := fn(env)
			if err != nil {
				return Value{}, err
			}
			if v.Null || v.IsStr {
				return NullVal(), nil
			}
			return NumVal(float64(int64(v.Num + 0.5))), nil
		}
	case "lower", "upper":
		if len(e.Children) == 0 {
			return errFn(fmt.Errorf("engine: %s() takes one argument", name))
		}
		toLower := name == "lower"
		fn := c.compile(e.Children[0])
		return func(env *rowEnv) (Value, error) {
			v, err := fn(env)
			if err != nil {
				return Value{}, err
			}
			if v.Null {
				return NullVal(), nil
			}
			if toLower {
				return StrVal(strings.ToLower(v.Text())), nil
			}
			return StrVal(strings.ToUpper(v.Text())), nil
		}
	default:
		return errFn(fmt.Errorf("engine: unknown function %q", name))
	}
}

// compileAggregate compiles an aggregate call. One the batch path
// accumulates (internAgg) reads its value from a batch group's env, and
// every other env takes the row path's closure.
func (c *compiler) compileAggregate(e *dt.Node) exprFn {
	fn := c.compileRowAggregate(e)
	ai := c.internAgg(e)
	if ai < 0 {
		return fn
	}
	return func(env *rowEnv) (Value, error) {
		if env.plan != nil && env.plan.group != nil {
			return env.plan.group.value(ai)
		}
		return fn(env)
	}
}

// compileRowAggregate compiles an aggregate that iterates env's group rows.
func (c *compiler) compileRowAggregate(e *dt.Node) exprFn {
	name := e.Label
	outsideGroup := fmt.Errorf("engine: aggregate %s() outside grouping context", name)
	star := len(e.Children) == 1 && e.Children[0].Kind == dt.KindStar
	if name == "count" && (star || len(e.Children) == 0) {
		return func(env *rowEnv) (Value, error) {
			if env.groupRows == nil {
				return Value{}, outsideGroup
			}
			return NumVal(float64(len(env.groupRows))), nil
		}
	}
	if len(e.Children) != 1 {
		return func(env *rowEnv) (Value, error) {
			if env.groupRows == nil {
				return Value{}, outsideGroup
			}
			return Value{}, fmt.Errorf("engine: %s() takes one argument", name)
		}
	}
	argFn := c.compile(e.Children[0])
	// forEach streams the non-null argument values of the group; the reused
	// inner env mirrors the interpreter's per-row environment.
	forEach := func(env *rowEnv, visit func(Value) error) error {
		if env.groupRows == nil {
			return outsideGroup
		}
		inner := &rowEnv{outer: env.outer}
		for _, renv := range env.groupRows {
			inner.frames = renv.frames
			v, err := argFn(inner)
			if err != nil {
				return err
			}
			if !v.Null {
				if err := visit(v); err != nil {
					return err
				}
			}
		}
		return nil
	}
	switch name {
	case "count":
		return func(env *rowEnv) (Value, error) {
			n := 0
			if err := forEach(env, func(Value) error { n++; return nil }); err != nil {
				return Value{}, err
			}
			return NumVal(float64(n)), nil
		}
	case "sum", "avg":
		isAvg := name == "avg"
		strErr := fmt.Errorf("engine: %s() over strings", name)
		return func(env *rowEnv) (Value, error) {
			total, n := 0.0, 0
			if err := forEach(env, func(v Value) error {
				if v.IsStr {
					return strErr
				}
				total += v.Num
				n++
				return nil
			}); err != nil {
				return Value{}, err
			}
			if isAvg {
				if n == 0 {
					return NullVal(), nil
				}
				return NumVal(total / float64(n)), nil
			}
			return NumVal(total), nil
		}
	case "min", "max":
		wantLess := name == "min"
		return func(env *rowEnv) (Value, error) {
			var best Value
			have := false
			if err := forEach(env, func(v Value) error {
				if !have {
					best, have = v, true
					return nil
				}
				cmp := Compare(v, best)
				if (wantLess && cmp < 0) || (!wantLess && cmp > 0) {
					best = v
				}
				return nil
			}); err != nil {
				return Value{}, err
			}
			if !have {
				return NullVal(), nil
			}
			return best, nil
		}
	}
	return errFn(fmt.Errorf("engine: unknown aggregate %q", name))
}
