package engine

import (
	"strconv"
	"strings"
	"time"

	dt "pi2/internal/difftree"
)

// This file implements the compiled row path's one FROM operator. Every FROM
// clause, comma-separated or with JOIN steps, compiles into one level per
// source, and the levels run left to right, one at a time: level i extends
// every surviving prefix tuple of sources [0, i) with the matching rows of
// source i, in prefix order and then scan order, which is exactly the
// interpreter's nested-loop (crossFilter) and level-by-level (joinRows)
// enumeration order.
//
// For a comma FROM, when every WHERE conjunct is pure, each `a.x = b.y`
// conjunct over two different sources becomes a hash equi-join key of the
// later source's level: that source is the build side and the bound prefix
// probes. Every other conjunct stays in the residual chain, evaluated in
// original conjunct order on fully joined rows.
//
// "Pure" means the conjunct can be proven at prepare time never to return an
// evaluation error. Keying is allowed only when *every* conjunct in the WHERE
// is pure: under three-valued logic a NULL conjunct does not stop the
// interpreter's AND evaluation, so dropping a row early at a hash probe skips
// the evaluation of every later conjunct on that row — which is only
// unobservable when all of those evaluations are provably error-free. When any
// conjunct may error, the whole conjunction stays in the residual chain,
// evaluated in original order with Kleene semantics (FALSE stops, NULL
// continues) exactly like the interpreter.
//
// Every source is swept whole: pushing single-source conjuncts down to a
// scan, and probing an index for them, is the batch path's job (vec.go,
// cost.go), and the queries PI2's interfaces issue take that path.
//
// For a FROM with JOIN steps the WHERE stays monolithic, a one-entry
// residual applied after the last level: pushing it below an outer join
// would filter rows before the padding decision and resurrect NULL-padded
// rows SQL drops. Each ON condition instead compiles into its own level by
// the same purity gate: when every ON conjunct is pure and at least one is
// `a.x = b.y` with the build side bound at this level, the level runs as a
// hash join (NULL keys excluded — `=` never matches NULL, but for
// RIGHT/FULL those rows still surface in the unmatched sweep) and the other
// ON conjuncts filter each bucket row; otherwise the full compiled ON
// (Kleene AND) evaluates per candidate pair in a nested loop, preserving
// the interpreter's error order exactly. LEFT/FULL levels pad an unmatched
// prefix in place; RIGHT/FULL levels append their unmatched rows after the
// level's matched output with every earlier frame NULL-padded.
//
// Levels run one at a time because the interpreter evaluates every ON of
// one level before any ON of the next, so errors surface in the same order.
// Level 0's prefix list is its source's row list itself. The last
// level applies the residual on a reused probe environment and materializes
// only the rows that survive it, so a single-source sweep filters in place.

// level is one FROM source's step in the row-path operator.
type level struct {
	typ string // "cross" or "inner" for comma entries; JOIN levels keep "inner", "left", "right" or "full"

	// Hash equi-join keys: probe reads frames bound at earlier levels, build
	// this level's frame alone.
	probe []exprFn
	build []exprFn

	// buildCol is the base-table column index when the build key is exactly
	// one bare column reference (the shape whose hash table the DB's column
	// index reproduces bit-for-bit); -1 otherwise.
	buildCol int

	filters []exprFn // pure filters: the ON conjuncts other than the hash keys
	on      exprFn   // nested-loop ON: impure or non-equi JOIN levels
}

// hashSide is a built hash table over one source's rows: bucket
// lists hold row indexes in scan order so probing emits matches in the same
// order the nested loop would have visited them. A side built here keys its
// buckets by the encoded join key (appendJoinKey) in built.idx. A build that
// borrows the column's hash index (a single bare-column key over the whole
// table) sets col instead and is probed by value.
type hashSide struct {
	built *hashIndex
	col   *hashIndex
}

// size is the number of distinct build keys, for profiles.
func (h *hashSide) size() int {
	if h.col != nil {
		return h.col.size()
	}
	return h.built.size()
}

// match evaluates the probe keys against env and returns the build rows
// with an equal key; a NULL key matches nothing. kb is scratch space.
func (h *hashSide) match(keys []exprFn, env *rowEnv, kb *[]byte) ([]int, error) {
	b := (*kb)[:0]
	for _, kf := range keys {
		v, err := kf(env)
		if err != nil || v.Null {
			return nil, err
		}
		if h.col != nil {
			return h.col.rowsFor(v), nil // a borrowed build has one key
		}
		b = appendJoinKey(b, v)
	}
	*kb = b
	if bi, ok := h.built.idx[string(b)]; ok {
		return h.built.bucket(bi), nil
	}
	return nil, nil
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

// localColumn resolves an identifier against this query's own sources only,
// mirroring compileIdent's resolution order (first matching frame, first
// matching column), to its frame and column index. ok is false for
// correlated and unknown names.
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

// pure reports whether an expression is provably error-free. Anything not
// recognized as pure — subqueries, correlated references, arithmetic (which
// errors on strings), date(), unknown functions, aggregates — is
// conservatively impure. It runs after foldCalls, so a literal-only date()
// that evaluates cleanly arrives here as a literal.
func (c *compiler) pure(e *dt.Node) bool {
	switch e.Kind {
	case dt.KindNumber:
		_, err := strconv.ParseFloat(e.Label, 64)
		return err == nil
	case dt.KindString:
		return true
	case dt.KindIdent:
		_, _, ok := c.localColumn(e.Label)
		return ok
	case dt.KindAnd, dt.KindOr, dt.KindNot, dt.KindBetween:
		return c.allPure(e.Children)
	case dt.KindBinary:
		switch e.Label {
		case "=", "<>", "<", ">", "<=", ">=", "like":
			return c.allPure(e.Children)
		}
		// +,-,*,/ error on string operands; unknown operators always error.
		return false
	case dt.KindIn:
		return len(e.Children) == 2 && e.Children[1].Kind != dt.KindQuery &&
			c.pure(e.Children[0]) && c.allPure(e.Children[1].Children)
	case dt.KindFunc:
		switch e.Label {
		case "today":
			return true // ignores arguments, never errors
		case "abs", "round", "lower", "upper":
			return len(e.Children) > 0 && c.allPure(e.Children) // no argument: arity error
		}
	}
	return false
}

func (c *compiler) allPure(nodes []*dt.Node) bool {
	for _, n := range nodes {
		if !c.pure(n) {
			return false
		}
	}
	return true
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
	fl, _, okl := c.localColumn(l.Label)
	fr, _, okr := c.localColumn(r.Label)
	if !okl || !okr || fl == fr {
		return nil, nil, 0, false
	}
	if fl < fr {
		return l, r, fr, true
	}
	return r, l, fl, true
}

// addKey makes e a hash key of the level that binds its later source when e
// is an `a.x = b.y` conjunct hashing can serve; at >= 0 additionally
// requires that level to be at (a JOIN level keys only on its own source).
func (c *compiler) addKey(pq *planQuery, e *dt.Node, at int) bool {
	probe, build, bf, ok := c.equiSides(e)
	if !ok || (at >= 0 && bf != at) || !c.hashKeyable(probe, build) {
		return false
	}
	lv := &pq.levels[bf]
	lv.probe = append(lv.probe, c.compile(probe))
	lv.build = append(lv.build, c.compile(build))
	lv.buildCol = -1 // a composite key fits no single-column index
	if len(lv.build) == 1 {
		if _, ci, ok := c.localColumn(build.Label); ok {
			lv.buildCol = ci
		}
	}
	return true
}

// compileFrom compiles the FROM/WHERE of a query with at least one source
// into pq.levels and pq.residual. c must be the inner (scoped) compiler of
// the query; where is nil without a WHERE clause. ON conditions compile
// against the prefix scope sources[:i+1]: a reference to a later FROM source
// is an unknown column at level i, exactly as the interpreter's truncated
// frame list resolves it.
func (c *compiler) compileFrom(pq *planQuery, entries []fromEntry, where *dt.Node, outer *scope) {
	n := len(pq.sources)
	pq.levels = make([]level, n)
	for i := range pq.levels {
		pq.levels[i].typ = entries[i].typ
		pq.levels[i].buildCol = -1
	}
	if pq.hasJoin {
		if where != nil {
			pq.residual = []exprFn{c.compile(where)}
		}
		for i, en := range entries {
			if en.on == nil {
				continue
			}
			lv := &pq.levels[i]
			pc := &compiler{db: c.db, sc: &scope{sources: pq.sources[:i+1], outer: outer}, deps: c.deps}
			lv.on = pc.compile(en.on)
			if !pc.pure(en.on) {
				continue
			}
			var rest []*dt.Node
			for _, conj := range flattenAnd(en.on, nil) {
				if !pc.addKey(pq, conj, i) {
					rest = append(rest, conj)
				}
			}
			if len(lv.build) > 0 {
				lv.on, lv.filters = nil, pc.compileAll(rest)
			}
		}
		return
	}
	if where == nil {
		return
	}

	conjs := flattenAnd(where, nil)
	keyable := c.allPure(conjs)
	for _, e := range conjs {
		if !keyable || !c.addKey(pq, e, -1) {
			pq.residual = append(pq.residual, c.compile(e))
		}
	}
	for i := 1; i < n; i++ {
		if len(pq.levels[i].build) > 0 {
			pq.levels[i].typ = "inner"
		}
	}
}

// levelHash builds the hash table over level i's rows, keyed by its build
// expressions. For base-table sources it is built once per Exec, in the
// Exec's scratch, and a single bare-column key borrows the DB's column index
// instead (buildReusable).
func (r *fromRun) levelHash(i int, rows [][]Value) (*hashSide, error) {
	pq, lv := r.pq, &r.pq.levels[i]
	if pq.sources[i].sub != nil {
		return buildHashSide(rows, lv.build, i, r.cur, &r.probe)
	}
	hs := r.probe.outer.scratch().query(pq).hash
	if hs[i] == nil {
		if pq.buildReusable(i) {
			hs[i] = &hashSide{col: pq.db.hashIndexFor(pq.sources[i].table, lv.buildCol)}
			pq.db.idxHits.Add(1)
		} else {
			h, err := buildHashSide(rows, lv.build, i, r.cur, &r.probe)
			if err != nil {
				return nil, err
			}
			hs[i] = h
		}
	}
	return hs[i], nil
}

// buildReusable reports whether level i's hash build can be served by the
// DB's per-column hash index: a single bare-column key over a base table,
// where the index's buckets are bit-identical to what buildHashSide would
// produce over the whole table.
func (pq *planQuery) buildReusable(i int) bool {
	return pq.sources[i].sub == nil && pq.levels[i].buildCol >= 0
}

// buildHashSide hashes rows by keys evaluated with the row bound at frame i.
// Rows with a NULL key value are excluded — `=` never matches NULL. Like a
// column index, it numbers the keys and counts their rows in one pass, then
// lays the buckets out back to back (hashIndex.layout).
func buildHashSide(rows [][]Value, keys []exprFn, i int, cur []frame, probe *rowEnv) (*hashSide, error) {
	h := &hashIndex{n: len(rows), idx: make(map[string]int32, len(rows))}
	ids := make([]int32, len(rows))
	var counts []int32
	var kb []byte
	for ri, row := range rows {
		cur[i].row = row
		kb = kb[:0]
		ids[ri] = -1
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
		bi, ok := h.idx[string(kb)]
		if !ok {
			bi = int32(len(counts))
			h.idx[string(kb)] = bi
			counts = append(counts, 0)
		}
		counts[bi]++
		ids[ri] = bi
	}
	h.layout(nil, counts, ids, func(k int) int { return k })
	return &hashSide{built: h}, nil
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

// fromRun is one execution of the level operator. cur holds the frame of
// every source; probe is the reused environment over cur[:i+1] while level
// i runs.
type fromRun struct {
	pq    *planQuery
	cur   []frame
	probe rowEnv
	prof  *Profile

	last bool      // the running level is the last one
	next [][]Value // the next prefix list: one row per bound frame, flat
	out  []*rowEnv // the rows that survived the residual (last level)

	joined   int           // rows reaching the residual
	residErr error         // first residual error, held while the level's ON may still error
	residDur time.Duration // residual evaluation time, when profiling
}

// runFrom enumerates the query's FROM/WHERE and returns the surviving row
// environments in the interpreter's enumeration order.
func (pq *planQuery) runFrom(tables []*Table, outer *rowEnv, prof *Profile) ([]*rowEnv, error) {
	n := len(pq.levels)
	if n == 0 {
		// SELECT without FROM: a single empty row.
		env := &rowEnv{outer: outer}
		pass, err := residualPass(pq.residual, env)
		if err != nil || !pass {
			return nil, err
		}
		return []*rowEnv{env}, nil
	}
	r := &fromRun{pq: pq, cur: make([]frame, n), prof: prof}
	for i, ps := range pq.sources {
		r.cur[i] = frame{alias: ps.alias, cols: ps.cols}
	}
	r.probe = rowEnv{frames: r.cur[:1], outer: outer}
	prefix := r.scan(0, tables[0])
	if n == 1 {
		r.last = true
		for _, row := range prefix {
			r.cur[0].row = row
			if err := r.emit(0, false); err != nil {
				return nil, err
			}
		}
	}
	for i := 1; i < n; i++ {
		r.last = i == n-1
		r.next = nil
		if err := r.level(i, prefix, tables[i]); err != nil {
			return nil, err
		}
		prefix = r.next
	}
	if prof != nil {
		switch {
		case !pq.hasJoin:
			prof.add("cross-filter", "", r.joined, len(r.out), r.residDur)
		case len(pq.residual) > 0:
			prof.add("filter", "where", r.joined, len(r.out), r.residDur)
		}
	}
	return r.out, nil
}

// scan returns source i's rows, reporting the sweep.
func (r *fromRun) scan(i int, tbl *Table) [][]Value {
	if r.prof != nil {
		r.prof.addPath("scan", r.pq.sources[i].alias, "full-scan", len(tbl.Rows), len(tbl.Rows), 0)
	}
	return tbl.Rows
}

// level runs level i >= 1 over the prefix list (i rows per prefix).
func (r *fromRun) level(i int, prefix [][]Value, tbl *Table) error {
	pq, lv, prof := r.pq, &r.pq.levels[i], r.prof
	alias := pq.sources[i].alias
	r.probe.frames = r.cur[:i+1]
	rows := r.scan(i, tbl)
	var t0 time.Time
	var h *hashSide
	var err error
	if len(lv.build) > 0 {
		if prof != nil {
			t0 = time.Now()
		}
		if h, err = r.levelHash(i, rows); err != nil {
			return err
		}
		if prof != nil {
			path := ""
			if pq.buildReusable(i) {
				path = "index(" + pq.sources[i].cols[lv.buildCol] + ")"
			}
			prof.addPath("hash-build", alias, path, len(rows), h.size(), time.Since(t0))
		}
	}
	if prof != nil {
		t0 = time.Now()
	}
	np := len(prefix) / i
	var kb []byte
	var pad []Value
	if lv.typ == "left" || lv.typ == "full" {
		pad = nullRow(len(r.cur[i].cols))
	}
	var matched []bool
	if lv.typ == "right" || lv.typ == "full" {
		matched = make([]bool, len(rows))
	}
	for k := 0; k < np; k++ {
		for j, row := range prefix[k*i : (k+1)*i] {
			r.cur[j].row = row
		}
		cands, m := []int(nil), len(rows)
		if h != nil {
			if cands, err = h.match(lv.probe, &r.probe, &kb); err != nil {
				return err
			}
			m = len(cands)
		}
		sawMatch := false
		for x := 0; x < m; x++ {
			ri := x
			if h != nil {
				ri = cands[x]
			}
			ok, err := r.try(lv, i, rows[ri])
			if err != nil {
				return err
			}
			if ok {
				sawMatch = true
				if matched != nil {
					matched[ri] = true
				}
			}
		}
		if !sawMatch && pad != nil {
			r.cur[i].row = pad
			if err := r.emit(i, lv.on != nil); err != nil {
				return err
			}
		}
	}
	if matched != nil {
		for j := 0; j < i; j++ {
			r.cur[j].row = nullRow(len(r.cur[j].cols))
		}
		for ri, row := range rows {
			if !matched[ri] {
				r.cur[i].row = row
				if err := r.emit(i, false); err != nil {
					return err
				}
			}
		}
	}
	if r.residErr != nil {
		return r.residErr
	}
	if prof != nil {
		mode, path := "loop", ""
		if h != nil {
			mode, path = "hash", "build="+alias
		}
		// Only the last level evaluates the residual; its time is reported
		// apart.
		out := r.joined
		if !r.last {
			out = len(r.next) / (i + 1)
		}
		prof.addPath("join", lv.typ+" "+alias+" ("+mode+")", path, np, out, time.Since(t0)-r.residDur)
	}
	return nil
}

// try binds row at level i and, when it passes the level's filters and
// nested-loop ON, emits it; it reports whether the row matched.
func (r *fromRun) try(lv *level, i int, row []Value) (bool, error) {
	r.cur[i].row = row
	for _, f := range lv.filters {
		if v, err := f(&r.probe); err != nil || !v.Truthy() {
			return false, err
		}
	}
	if lv.on != nil {
		if v, err := lv.on(&r.probe); err != nil || !v.Truthy() {
			return false, err
		}
	}
	return true, r.emit(i, lv.on != nil)
}

// emit passes the bound tuple cur[:i+1] on: into the next prefix list or, on
// the last level, through the residual into the output. While the level's
// ON may still error (hold), a residual error is held back until the level
// ends, because the interpreter evaluates every ON of a level before any
// WHERE.
func (r *fromRun) emit(i int, hold bool) error {
	if !r.last {
		for j := 0; j <= i; j++ {
			r.next = append(r.next, r.cur[j].row)
		}
		return nil
	}
	r.joined++
	if res := r.pq.residual; len(res) > 0 {
		if r.residErr != nil {
			return nil
		}
		var t0 time.Time
		if r.prof != nil {
			t0 = time.Now()
		}
		pass, err := residualPass(res, &r.probe)
		if r.prof != nil {
			r.residDur += time.Since(t0)
		}
		if err != nil {
			if !hold {
				return err
			}
			r.residErr = err
			return nil
		}
		if !pass {
			return nil
		}
	}
	keep := make([]frame, len(r.cur))
	copy(keep, r.cur)
	r.out = append(r.out, &rowEnv{frames: keep, outer: r.probe.outer})
	return nil
}

// nullRow is the NULL padding of an n-column frame.
func nullRow(n int) []Value {
	row := make([]Value, n)
	for j := range row {
		row[j] = NullVal()
	}
	return row
}
