package engine

import (
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	dt "pi2/internal/difftree"
)

// This file implements the relational operator pipeline the compiled plan
// path executes instead of a filtered cross product. At prepare time the
// WHERE conjunction is decomposed and every conjunct is classified:
//
//   - single-source pure conjuncts are pushed down to that source's scan,
//     filtering rows before any join work;
//   - `a.x = b.y` conjuncts over two different sources become hash equi-join
//     keys: the later source (in FROM order) is the build side, the earlier
//     ones probe — FROM order is kept so the output row order is exactly the
//     interpreter's nested-loop order;
//   - other pure multi-source conjuncts are hoisted to the earliest join
//     level that binds all of their sources;
//   - everything else (subqueries, correlated references, arithmetic that
//     can error, and every conjunct after the first possibly-erroring one)
//     stays in the residual chain, evaluated in original conjunct order on
//     fully joined rows.
//
// "Pure" means the conjunct can be proven at prepare time never to return an
// evaluation error. Hoisting is allowed only when *every* conjunct in the
// WHERE is pure: under three-valued logic a NULL conjunct does not stop the
// interpreter's AND evaluation, so dropping a row early (at a scan, hash
// probe, or hoisted filter) skips the evaluation of every later conjunct on
// that row — which is only unobservable when all of those evaluations are
// provably error-free. When any conjunct may error, the whole conjunction
// stays in the residual chain, evaluated in original order with Kleene
// semantics (FALSE stops, NULL continues) exactly like the interpreter.

// pipePlan is the compiled pipeline for one query's FROM/WHERE.
type pipePlan struct {
	scanPreds [][]exprFn   // per source: pushed-down predicates
	steps     []pipeStep   // per source level; steps[0] never joins
	residual  []exprFn     // remaining conjuncts, original order
	access    []scanAccess // per source: chosen access path (cost.go)
	reverse   bool         // two-source hash join builds over source 0
}

// pipeStep describes how source level i combines with the already-joined
// prefix: by hash equi-join when build/probe keys exist, by nested loop
// otherwise, plus any hoisted filters that bind at this level.
type pipeStep struct {
	probe   []exprFn // key exprs over frames bound at earlier levels
	build   []exprFn // key exprs over this level's frame alone
	filters []exprFn // hoisted pure predicates applied once this frame binds

	// buildCol is the base-table column index when the build key is exactly
	// one bare column reference (the shape whose hash table the DB's column
	// index reproduces bit-for-bit); -1 otherwise.
	buildCol int
}

// hashSide is a built hash table over one source's filtered rows: bucket
// lists hold row indexes in scan order so probing emits matches in the same
// order the nested loop would have visited them.
type hashSide struct {
	idx     map[string]int
	buckets [][]int
}

// scanState caches the per-source scan and build work that is invariant
// across executions of one plan: base tables cannot change under a live plan
// (Plan.Exec refuses to run once the DB generation moves), and pushed
// predicates and build keys are pure functions of the scanned row, so the
// filtered row list and the hash table are computed once and shared by every
// subsequent (possibly concurrent) Exec.
type scanState struct {
	scanOnce sync.Once
	rows     [][]Value
	scanErr  error

	buildOnce sync.Once
	hash      *hashSide
	buildErr  error
}

// conjProps is the prepare-time classification of one WHERE conjunct.
type conjProps struct {
	pure   bool   // provably never returns an evaluation error
	frames uint64 // bitmask of this query's own sources referenced
}

func (p conjProps) with(q conjProps) conjProps {
	return conjProps{pure: p.pure && q.pure, frames: p.frames | q.frames}
}

// flattenAnd decomposes nested AND nodes into the ordered conjunct list.
// AND evaluates children left to right with short-circuit, so flattening
// preserves both value and error semantics.
func flattenAnd(e *dt.Node, out []*dt.Node) []*dt.Node {
	if e.Kind == dt.KindAnd {
		for _, c := range e.Children {
			out = flattenAnd(c, out)
		}
		return out
	}
	return append(out, e)
}

// localFrame resolves an identifier against this query's own sources only,
// mirroring compileIdent's resolution order (first matching frame, first
// matching column). ok is false for correlated and unknown names.
func (c *compiler) localFrame(name string) (int, bool) {
	fi, _, ok := c.localColumn(name)
	return fi, ok
}

// localColumn is localFrame plus the resolved column index within the frame.
func (c *compiler) localColumn(name string) (fi, ci int, ok bool) {
	lower := strings.ToLower(name)
	alias, col := "", lower
	if i := strings.IndexByte(lower, '.'); i >= 0 {
		alias, col = lower[:i], lower[i+1:]
	}
	if c.sc == nil {
		return 0, 0, false
	}
	for fi, ps := range c.sc.sources {
		if alias != "" && ps.alias != alias {
			continue
		}
		for ci, pc := range ps.cols {
			if pc == col {
				return fi, ci, true
			}
		}
	}
	return 0, 0, false
}

// conjunctProps classifies an expression: whether it is provably error-free
// and which of this query's sources it reads. Anything not recognized as
// pure — subqueries, correlated references, arithmetic (which errors on
// strings), date(), unknown functions, aggregates — is conservatively
// impure and stays residual.
func (c *compiler) conjunctProps(e *dt.Node) conjProps {
	switch e.Kind {
	case dt.KindNumber:
		_, err := strconv.ParseFloat(e.Label, 64)
		return conjProps{pure: err == nil}
	case dt.KindString:
		return conjProps{pure: true}
	case dt.KindIdent:
		if fi, ok := c.localFrame(e.Label); ok && fi < 64 {
			return conjProps{pure: true, frames: 1 << uint(fi)}
		}
		return conjProps{}
	case dt.KindAnd, dt.KindOr, dt.KindNot:
		return c.allProps(e.Children)
	case dt.KindBinary:
		switch e.Label {
		case "=", "<>", "<", ">", "<=", ">=", "like":
			return c.allProps(e.Children)
		}
		// +,-,*,/ error on string operands; unknown operators always error.
		return conjProps{}
	case dt.KindBetween:
		return c.allProps(e.Children)
	case dt.KindIn:
		if len(e.Children) != 2 || e.Children[1].Kind == dt.KindQuery {
			return conjProps{}
		}
		return c.conjunctProps(e.Children[0]).with(c.allProps(e.Children[1].Children))
	case dt.KindFunc:
		switch e.Label {
		case "today":
			return conjProps{pure: true} // ignores arguments, never errors
		case "abs", "round", "lower", "upper":
			if len(e.Children) == 0 {
				return conjProps{} // arity error at eval time
			}
			return c.allProps(e.Children)
		}
		return conjProps{}
	default:
		return conjProps{}
	}
}

func (c *compiler) allProps(nodes []*dt.Node) conjProps {
	p := conjProps{pure: true}
	for _, n := range nodes {
		p = p.with(c.conjunctProps(n))
	}
	return p
}

// equiSides recognizes an `a.x = b.y` conjunct over two different local
// sources and returns the AST side bound to each: probe references the
// earlier FROM entry, build the later one (the join's build side).
func (c *compiler) equiSides(e *dt.Node) (probe, build *dt.Node, buildFrame int, ok bool) {
	if e.Kind != dt.KindBinary || e.Label != "=" || len(e.Children) != 2 {
		return nil, nil, 0, false
	}
	l, r := e.Children[0], e.Children[1]
	if l.Kind != dt.KindIdent || r.Kind != dt.KindIdent {
		return nil, nil, 0, false
	}
	fl, okl := c.localFrame(l.Label)
	fr, okr := c.localFrame(r.Label)
	if !okl || !okr || fl == fr {
		return nil, nil, 0, false
	}
	if fl < fr {
		return l, r, fr, true
	}
	return r, l, fl, true
}

// compilePipe decomposes the WHERE conjunction into the operator pipeline
// for a query with at least one source. c must be the inner (scoped)
// compiler of the query.
func (c *compiler) compilePipe(pq *planQuery, where *dt.Node) {
	n := len(pq.sources)
	pipe := &pipePlan{
		scanPreds: make([][]exprFn, n),
		steps:     make([]pipeStep, n),
		access:    make([]scanAccess, n),
	}
	for i := range pipe.steps {
		pipe.steps[i].buildCol = -1
	}
	pq.pipe = pipe
	pq.scans = make([]scanState, n)

	conjs := flattenAnd(where, nil)
	allPure := n <= 64
	for _, e := range conjs {
		if !c.conjunctProps(e).pure {
			allPure = false
			break
		}
	}
	cands := make([][]scanAccess, n)
	for _, e := range conjs {
		props := c.conjunctProps(e)
		if !allPure || props.frames == 0 {
			// Constant pure conjuncts are legal to hoist but worthless —
			// they keep their original slot in the residual chain instead.
			pipe.residual = append(pipe.residual, c.compile(e))
			continue
		}
		if bits.OnesCount64(props.frames) == 1 {
			fi := bits.TrailingZeros64(props.frames)
			pipe.scanPreds[fi] = append(pipe.scanPreds[fi], c.compile(e))
			if cand, ok := c.indexCandidate(pq, fi, e); ok {
				cands[fi] = append(cands[fi], cand)
			}
			continue
		}
		if probe, build, bf, ok := c.equiSides(e); ok {
			st := &pipe.steps[bf]
			st.probe = append(st.probe, c.compile(probe))
			st.build = append(st.build, c.compile(build))
			if len(st.build) == 1 {
				if _, ci, ok := c.localColumn(build.Label); ok {
					st.buildCol = ci
				}
			} else {
				st.buildCol = -1 // composite key: no single-column index fits
			}
			continue
		}
		hi := 63 - bits.LeadingZeros64(props.frames)
		pipe.steps[hi].filters = append(pipe.steps[hi].filters, c.compile(e))
	}
	c.chooseAccess(pq, cands)
	c.chooseBuildSide(pq)
}

// scanRows returns source i's rows filtered by its pushed-down predicates.
// For base-table sources the result is computed once per plan and shared
// across executions; derived tables re-filter per run (their rows change
// with the outer environment).
func (pq *planQuery) scanRows(i int, tbl *Table, cur []frame, probe *rowEnv) ([][]Value, error) {
	preds := pq.pipe.scanPreds[i]
	if len(preds) == 0 {
		return tbl.Rows, nil
	}
	cacheable := pq.sources[i].sub == nil
	if cacheable {
		st := &pq.scans[i]
		st.scanOnce.Do(func() {
			st.rows, st.scanErr = pq.scanSource(i, tbl, preds, cur, probe)
		})
		return st.rows, st.scanErr
	}
	// Derived tables never get an index (nothing durable to index), so the
	// access path is always a full sweep here.
	return filterRows(tbl.Rows, preds, i, cur, probe)
}

// scanSource runs one base-table scan through its chosen access path. An
// index only narrows the candidate row set — a superset of the matching
// rows, in ascending row order — and then *every* pushed predicate,
// including the one the index served, re-evaluates over the candidates.
// The always-true re-check costs one comparison per candidate and buys a
// hard invariant: an over-approximating index can never change results.
func (pq *planQuery) scanSource(i int, tbl *Table, preds []exprFn, cur []frame, probe *rowEnv) ([][]Value, error) {
	if pq.pipe.access[i].mode == accessFull {
		return filterRows(tbl.Rows, preds, i, cur, probe)
	}
	idxRows := pq.indexRows(i, tbl)
	cand := make([][]Value, len(idxRows))
	for k, ri := range idxRows {
		cand[k] = tbl.Rows[ri]
	}
	return filterRows(cand, preds, i, cur, probe)
}

// indexRows probes source i's chosen index and returns its candidate row
// indexes, ascending. An equality probe returns the hash index's shared
// bucket, so callers must treat the result as read-only.
func (pq *planQuery) indexRows(i int, tbl *Table) []int {
	a := pq.pipe.access[i]
	var rows []int
	switch a.mode {
	case accessEq:
		rows = pq.db.hashIndexFor(tbl, a.col).rowsFor(a.eqKey)
	case accessRange:
		rows = pq.db.sortedIndexFor(tbl, a.col).rangeRows(a.lo, a.hasLo, a.loExcl, a.hi, a.hasHi, a.hiExcl)
	}
	pq.db.idxHits.Add(1)
	return rows
}

func filterRows(rows [][]Value, preds []exprFn, i int, cur []frame, probe *rowEnv) ([][]Value, error) {
	var out [][]Value
	for _, row := range rows {
		cur[i].row = row
		keep := true
		for _, pf := range preds {
			v, err := pf(probe)
			if err != nil {
				return nil, err
			}
			if !v.Truthy() {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, row)
		}
	}
	return out, nil
}

// buildHash builds the hash table over source i's filtered rows, keyed by
// the step's build expressions. Rows with a NULL key value are excluded —
// `=` never matches NULL. Cached across executions for base-table sources.
func (pq *planQuery) buildHash(i int, rows [][]Value, cur []frame, probe *rowEnv) (*hashSide, error) {
	cacheable := pq.sources[i].sub == nil
	if cacheable {
		st := &pq.scans[i]
		st.buildOnce.Do(func() {
			if pq.buildReusable(i) {
				// rows is exactly the table's full row list here (no pushed
				// predicates, full access), so the per-column index is
				// bit-identical to what buildHashSide would produce.
				st.hash = pq.db.hashIndexFor(pq.sources[i].table, pq.pipe.steps[i].buildCol)
				pq.db.idxHits.Add(1)
				return
			}
			st.hash, st.buildErr = buildHashSide(rows, pq.pipe.steps[i].build, i, cur, probe)
		})
		return st.hash, st.buildErr
	}
	return buildHashSide(rows, pq.pipe.steps[i].build, i, cur, probe)
}

func buildHashSide(rows [][]Value, keys []exprFn, i int, cur []frame, probe *rowEnv) (*hashSide, error) {
	h := &hashSide{idx: make(map[string]int, len(rows))}
	var kb []byte
	for ri, row := range rows {
		cur[i].row = row
		kb = kb[:0]
		null := false
		for _, kf := range keys {
			v, err := kf(probe)
			if err != nil {
				return nil, err
			}
			if v.Null {
				null = true
				break
			}
			kb = appendJoinKey(kb, v)
		}
		if null {
			continue
		}
		if bi, ok := h.idx[string(kb)]; ok {
			h.buckets[bi] = append(h.buckets[bi], ri)
		} else {
			h.idx[string(kb)] = len(h.buckets)
			h.buckets = append(h.buckets, []int{ri})
		}
	}
	return h, nil
}

// runPipe executes the pipeline and returns the surviving row environments
// in the interpreter's nested-loop enumeration order.
func (pq *planQuery) runPipe(tables []*Table, outer *rowEnv, prof *Profile) ([]*rowEnv, error) {
	n := len(pq.sources)
	cur := make([]frame, n)
	for i, ps := range pq.sources {
		cur[i] = frame{alias: ps.alias, cols: ps.cols}
	}
	probe := &rowEnv{frames: cur, outer: outer}

	// Scan every source once, then build the hash tables of equi-join
	// levels over the filtered rows.
	filtered := make([][][]Value, n)
	hashes := make([]*hashSide, n)
	for i := range pq.sources {
		var t0 time.Time
		if prof != nil {
			t0 = time.Now()
		}
		rows, err := pq.scanRows(i, tables[i], cur, probe)
		if err != nil {
			return nil, err
		}
		if prof != nil {
			// Base-table scans cache across executions (scanState), so a
			// warm scan legitimately reports ~0 time.
			prof.addPath("scan", pq.sources[i].alias, pq.pipe.access[i].path(), len(tables[i].Rows), len(rows), time.Since(t0))
		}
		filtered[i] = rows
		// A reversed two-source join builds over source 0 instead; its
		// normal build side is skipped entirely (runPipeReversed).
		if len(pq.pipe.steps[i].build) > 0 && !pq.pipe.reverse {
			if prof != nil {
				t0 = time.Now()
			}
			h, err := pq.buildHash(i, rows, cur, probe)
			if err != nil {
				return nil, err
			}
			if prof != nil {
				path := ""
				if pq.buildReusable(i) {
					path = "index(" + pq.sources[i].cols[pq.pipe.steps[i].buildCol] + ")"
				}
				prof.addPath("hash-build", pq.sources[i].alias, path, len(rows), len(h.buckets), time.Since(t0))
			}
			hashes[i] = h
		}
	}
	if pq.pipe.reverse {
		return pq.runPipeReversed(filtered, cur, probe, outer, prof)
	}

	// joined counts tuples reaching the residual chain; residDur isolates
	// residual evaluation from enumeration time (timed only when profiling).
	joined := 0
	var residDur time.Duration
	profResid := prof != nil && len(pq.pipe.residual) > 0

	var out []*rowEnv
	var kb []byte
	var rec func(i int) error
	rec = func(i int) error {
		if i == n {
			joined++
			if len(pq.pipe.residual) > 0 {
				var t0 time.Time
				if profResid {
					t0 = time.Now()
				}
				pass, err := residualPass(pq.pipe.residual, probe)
				if profResid {
					residDur += time.Since(t0)
				}
				if err != nil {
					return err
				}
				if !pass {
					return nil
				}
			}
			keep := make([]frame, n)
			copy(keep, cur)
			out = append(out, &rowEnv{frames: keep, outer: outer})
			return nil
		}
		st := &pq.pipe.steps[i]
		if hashes[i] != nil {
			// Hash equi-join: probe with the bound prefix, emit this
			// level's matches in scan order.
			kb = kb[:0]
			for _, pf := range st.probe {
				v, err := pf(probe)
				if err != nil {
					return err
				}
				if v.Null {
					return nil // NULL key matches nothing
				}
				kb = appendJoinKey(kb, v)
			}
			bi, ok := hashes[i].idx[string(kb)]
			if !ok {
				return nil
			}
			for _, ri := range hashes[i].buckets[bi] {
				cur[i].row = filtered[i][ri]
				if err := pq.stepInto(st, probe, i, rec); err != nil {
					return err
				}
			}
			return nil
		}
		for _, row := range filtered[i] {
			cur[i].row = row
			if err := pq.stepInto(st, probe, i, rec); err != nil {
				return err
			}
		}
		return nil
	}
	var tj time.Time
	if prof != nil {
		tj = time.Now()
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	if prof != nil {
		modes := make([]string, n)
		var builds []string
		for i := range pq.sources {
			switch {
			case hashes[i] != nil:
				modes[i] = "hash"
				builds = append(builds, pq.sources[i].alias)
			case i == 0:
				modes[i] = "scan"
			default:
				modes[i] = "loop"
			}
		}
		path := ""
		if len(builds) > 0 {
			path = "build=" + strings.Join(builds, ",")
		}
		in := 0
		for _, f := range filtered {
			in += len(f)
		}
		prof.addPath("join", strings.Join(modes, "+"), path, in, joined, time.Since(tj)-residDur)
		if len(pq.pipe.residual) > 0 {
			prof.add("residual", "", joined, len(out), residDur)
		}
	}
	return out, nil
}

// runPipeReversed executes a two-source hash equi-join with the build side
// swapped: the hash table is built over source 0's filtered rows (keyed by
// the step's probe expressions, which read frame 0) and probed once per
// source-1 row. The matching (row0, row1) index pairs are then merged back
// into ascending (row0, row1) order — exactly the nested-loop enumeration
// order — before hoisted filters and the residual chain run, so output order
// and error short-circuit order are untouched by the swap.
func (pq *planQuery) runPipeReversed(filtered [][][]Value, cur []frame, probe *rowEnv, outer *rowEnv, prof *Profile) ([]*rowEnv, error) {
	st := &pq.pipe.steps[1]
	var tb time.Time
	if prof != nil {
		tb = time.Now()
	}
	h, err := buildHashSide(filtered[0], st.probe, 0, cur, probe)
	if err != nil {
		return nil, err
	}
	if prof != nil {
		prof.add("hash-build", pq.sources[0].alias, len(filtered[0]), len(h.buckets), time.Since(tb))
	}

	var tj time.Time
	if prof != nil {
		tj = time.Now()
	}
	type pair struct{ r0, r1 int }
	var pairs []pair
	var kb []byte
	for r1, row := range filtered[1] {
		cur[1].row = row
		kb = kb[:0]
		null := false
		for _, bf := range st.build {
			v, err := bf(probe)
			if err != nil {
				return nil, err
			}
			if v.Null {
				null = true // NULL key matches nothing, same as the probe path
				break
			}
			kb = appendJoinKey(kb, v)
		}
		if null {
			continue
		}
		if bi, ok := h.idx[string(kb)]; ok {
			for _, r0 := range h.buckets[bi] {
				pairs = append(pairs, pair{r0, r1})
			}
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].r0 != pairs[b].r0 {
			return pairs[a].r0 < pairs[b].r0
		}
		return pairs[a].r1 < pairs[b].r1
	})

	joined := 0
	var residDur time.Duration
	profResid := prof != nil && len(pq.pipe.residual) > 0
	var out []*rowEnv
	for _, p := range pairs {
		cur[0].row = filtered[0][p.r0]
		cur[1].row = filtered[1][p.r1]
		pass := true
		for _, ff := range st.filters {
			v, err := ff(probe)
			if err != nil {
				return nil, err
			}
			if !v.Truthy() {
				pass = false
				break
			}
		}
		if !pass {
			continue
		}
		joined++
		if len(pq.pipe.residual) > 0 {
			var t0 time.Time
			if profResid {
				t0 = time.Now()
			}
			rp, err := residualPass(pq.pipe.residual, probe)
			if profResid {
				residDur += time.Since(t0)
			}
			if err != nil {
				return nil, err
			}
			if !rp {
				continue
			}
		}
		keep := make([]frame, 2)
		copy(keep, cur)
		out = append(out, &rowEnv{frames: keep, outer: outer})
	}
	if prof != nil {
		in := len(filtered[0]) + len(filtered[1])
		prof.addPath("join", "hash (reversed)", "build="+pq.sources[0].alias, in, joined, time.Since(tj)-residDur)
		if len(pq.pipe.residual) > 0 {
			prof.add("residual", "", joined, len(out), residDur)
		}
	}
	return out, nil
}

// residualPass evaluates the residual chain with Kleene semantics: FALSE
// drops the row immediately, NULL keeps evaluating (a later impure conjunct
// must still surface its error) and drops the row at the end.
func residualPass(residual []exprFn, probe *rowEnv) (bool, error) {
	sawNull := false
	for _, rf := range residual {
		v, err := rf(probe)
		if err != nil {
			return false, err
		}
		if v.Null {
			sawNull = true
		} else if !v.Truthy() {
			return false, nil
		}
	}
	return !sawNull, nil
}

// stepInto applies a level's hoisted filters to the freshly bound frame and
// descends to the next level when they pass.
func (pq *planQuery) stepInto(st *pipeStep, probe *rowEnv, i int, rec func(int) error) error {
	for _, ff := range st.filters {
		v, err := ff(probe)
		if err != nil {
			return err
		}
		if !v.Truthy() {
			return nil
		}
	}
	return rec(i + 1)
}

// --- output sink: DISTINCT + ORDER BY + LIMIT ------------------------------

// rowSink consumes projected rows and applies DISTINCT, ORDER BY and LIMIT
// with the interpreter's semantics. Two modes:
//
//   - collect (the reference behavior): accumulate everything, dedupe, full
//     stable sort, truncate;
//   - top-K (ORDER BY + LIMIT): a bounded heap keeps
//     only the limit rows, with the input sequence number as tiebreaker so
//     the result equals stable-sort-then-truncate without materializing the
//     full sort.
//
// Both modes still consume *every* projected row — projection and key
// evaluation errors must surface in exactly the interpreter's order.
type rowSink struct {
	distinct bool
	desc     []bool

	// collect mode
	rows [][]Value
	keys [][]Value

	// top-K mode
	top  *topKHeap
	seen map[string]bool
	dbuf []byte
	seq  int
}

// initSink picks top-K mode when the plan has both an ORDER BY and a valid
// LIMIT; otherwise collect mode. The sink lives on the caller's stack —
// per-execution heap allocation only happens when top-K state is actually
// needed.
func (pq *planQuery) initSink(s *rowSink) {
	s.distinct = pq.distinct
	s.desc = pq.orderDesc
	if pq.limitErr == nil && pq.limit >= 0 && len(pq.order) > 0 {
		s.top = &topKHeap{k: pq.limit, desc: pq.orderDesc}
		if pq.distinct {
			s.seen = map[string]bool{}
		}
	}
}

func (s *rowSink) add(row, keys []Value) {
	if s.top == nil {
		s.rows = append(s.rows, row)
		s.keys = append(s.keys, keys)
		return
	}
	if s.distinct {
		s.dbuf = groupKey(s.dbuf, row)
		if s.seen[string(s.dbuf)] {
			return
		}
		s.seen[string(s.dbuf)] = true
	}
	s.top.offer(row, keys, s.seq)
	s.seq++
}

// finish produces the final row set.
func (s *rowSink) finish() [][]Value {
	if s.top != nil {
		return s.top.sorted()
	}
	rows, keys := s.rows, s.keys
	if s.distinct {
		rows, keys = distinctRows(rows, keys)
	}
	if len(s.desc) > 0 {
		rows = sortRowsStable(rows, keys, s.desc)
	}
	return rows
}

// compareKeys orders two sort-key tuples under the per-key descending
// flags: negative when a sorts before b.
func compareKeys(a, b []Value, desc []bool) int {
	for i := range a {
		c := Compare(a[i], b[i])
		if c == 0 {
			continue
		}
		if desc[i] {
			return -c
		}
		return c
	}
	return 0
}

// topKHeap is a bounded max-heap over (sort keys, input sequence): the root
// is the entry that sorts last among those kept, so a new row replaces the
// root whenever it sorts earlier. Keeping the sequence number as the final
// tiebreaker makes the order total, which is exactly what a stable sort
// followed by truncation produces.
type topKHeap struct {
	k    int
	desc []bool
	rows [][]Value
	keys [][]Value
	seq  []int
}

// after reports whether entry i sorts after entry j (i is "worse").
func (h *topKHeap) after(i, j int) bool {
	if c := compareKeys(h.keys[i], h.keys[j], h.desc); c != 0 {
		return c > 0
	}
	return h.seq[i] > h.seq[j]
}

func (h *topKHeap) swap(i, j int) {
	h.rows[i], h.rows[j] = h.rows[j], h.rows[i]
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.seq[i], h.seq[j] = h.seq[j], h.seq[i]
}

func (h *topKHeap) offer(row, keys []Value, seq int) {
	if h.k == 0 {
		return
	}
	if len(h.rows) < h.k {
		h.rows = append(h.rows, row)
		h.keys = append(h.keys, keys)
		h.seq = append(h.seq, seq)
		// sift up: a child that sorts after its parent bubbles toward the root
		for i := len(h.rows) - 1; i > 0; {
			p := (i - 1) / 2
			if !h.after(i, p) {
				break
			}
			h.swap(i, p)
			i = p
		}
		return
	}
	// Full: the candidate only enters if it sorts before the current worst.
	h.rows = append(h.rows, row)
	h.keys = append(h.keys, keys)
	h.seq = append(h.seq, seq)
	last := len(h.rows) - 1
	if h.after(last, 0) {
		h.rows = h.rows[:last]
		h.keys = h.keys[:last]
		h.seq = h.seq[:last]
		return
	}
	h.swap(0, last)
	h.rows = h.rows[:last]
	h.keys = h.keys[:last]
	h.seq = h.seq[:last]
	// sift down from the root
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h.rows) && h.after(l, big) {
			big = l
		}
		if r < len(h.rows) && h.after(r, big) {
			big = r
		}
		if big == i {
			break
		}
		h.swap(i, big)
		i = big
	}
}

// sorted extracts the kept rows in output order.
func (h *topKHeap) sorted() [][]Value {
	idx := make([]int, len(h.rows))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return h.after(idx[b], idx[a]) })
	out := make([][]Value, len(idx))
	for i, j := range idx {
		out[i] = h.rows[j]
	}
	return out
}
