package engine

import "time"

// This file implements the compiled execution path for FROM clauses that
// contain JOIN steps (INNER/LEFT/RIGHT/FULL ... ON). Join queries bypass the
// comma-join operator pipeline (pipeline.go): the WHERE predicate stays
// monolithic above the joins — pushing it below an outer join would filter
// rows before the padding decision and resurrect NULL-padded rows SQL drops
// — and instead each ON condition is optimized per join level.
//
// The executable specification is the interpreter's joinRows (exec.go):
// levels materialize left to right, candidates scan in table order, LEFT/
// FULL pad in place on an unmatched prefix, RIGHT/FULL append their
// unmatched build rows after the level's matched output with NULL-padded
// prefix frames. The compiled path must match it on rows, row order, and
// error text.
//
// Per level the ON condition runs in one of two modes:
//
//   - hash equi-join, when every ON conjunct is provably error-free and at
//     least one is `a.x = b.y` with the build side bound at this level: the
//     build rows hash once per plan (NULL keys excluded — `=` never matches
//     NULL, but for RIGHT/FULL those rows still surface in the unmatched
//     sweep), probes skip non-matching candidates wholesale, and the
//     remaining pure conjuncts evaluate per bucket row;
//   - filtered nested loop otherwise: the full compiled ON (Kleene AND)
//     evaluates per candidate pair, preserving the interpreter's error
//     order exactly.
//
// The purity gate mirrors pipeline.go: under three-valued logic a NULL
// conjunct does not stop AND evaluation, so skipping candidates early is
// only unobservable when every skipped evaluation is error-free.

// planJoin is the compiled join role of one FROM source level.
type planJoin struct {
	typ string // "cross", "inner", "left", "right" or "full"
	on  exprFn // full compiled ON condition; nil for "cross"

	// Hash equi-join decomposition (pure ON conditions only).
	hash  bool
	probe []exprFn // key exprs over frames bound at earlier levels
	build []exprFn // key exprs over this level's frame alone
	resid []exprFn // remaining pure ON conjuncts, evaluated per bucket row

	// buildCol is the base-table column index when the build key is exactly
	// one bare column — the shape the DB's per-column hash index reproduces
	// bit-for-bit, letting joinHash skip the build; -1 otherwise.
	buildCol int
}

// compileJoins fills pq.joins from the FROM entries. ON conditions compile
// against the prefix scope sources[:i+1]: a reference to a later FROM source
// is an unknown column at level i, exactly as the interpreter's truncated
// frame list resolves it.
func (c *compiler) compileJoins(pq *planQuery, entries []fromEntry, outer *scope) {
	n := len(pq.sources)
	pq.joins = make([]planJoin, n)
	if pq.scans == nil {
		pq.scans = make([]scanState, n)
	}
	for i, en := range entries {
		jn := &pq.joins[i]
		jn.typ = en.typ
		jn.buildCol = -1
		if en.on == nil {
			continue
		}
		pc := &compiler{db: c.db, sc: &scope{sources: pq.sources[:i+1], outer: outer}, deps: c.deps}
		jn.on = pc.compile(en.on)
		if !pc.conjunctProps(en.on).pure {
			continue
		}
		for _, conj := range flattenAnd(en.on, nil) {
			if probe, build, bf, ok := pc.equiSides(conj); ok && bf == i && pc.hashKeyable(probe, build) {
				jn.probe = append(jn.probe, pc.compile(probe))
				jn.build = append(jn.build, pc.compile(build))
				if len(jn.build) == 1 {
					if _, ci, ok := pc.localColumn(build.Label); ok {
						jn.buildCol = ci
					}
				} else {
					jn.buildCol = -1 // composite key: no single-column index fits
				}
				continue
			}
			jn.resid = append(jn.resid, pc.compile(conj))
		}
		jn.hash = len(jn.build) > 0
		if !jn.hash {
			jn.resid = nil // no equi key: the nested loop uses jn.on
		}
	}
}

// joinHash builds (or returns the cached) hash table over a join level's
// build rows. Base-table sources cache across executions like the pipeline's
// build sides; derived tables rebuild per run.
func (pq *planQuery) joinHash(i int, rows [][]Value, metas []frame) (*hashSide, error) {
	cur := make([]frame, i+1)
	cur[i] = metas[i]
	benv := &rowEnv{frames: cur}
	if pq.sources[i].sub == nil {
		st := &pq.scans[i]
		st.buildOnce.Do(func() {
			if ci := pq.joins[i].buildCol; ci >= 0 {
				// rows is exactly the base table's full row list here, so
				// the per-column index is bit-identical to what
				// buildHashSide would produce.
				st.hash = &hashSide{col: pq.db.hashIndexFor(pq.sources[i].table, ci)}
				pq.db.idxHits.Add(1)
				return
			}
			st.hash, st.buildErr = buildHashSide(rows, pq.joins[i].build, i, cur, benv)
		})
		return st.hash, st.buildErr
	}
	return buildHashSide(rows, pq.joins[i].build, i, cur, benv)
}

// runJoin executes the compiled join levels, mirroring joinRows step for
// step, then applies the monolithic WHERE predicate per row in order.
// prof (nil on unprofiled runs) collects one op per level plus hash builds
// and the final WHERE filter.
func (pq *planQuery) runJoin(tables []*Table, outer *rowEnv, prof *Profile) ([]*rowEnv, error) {
	n := len(pq.sources)
	metas := make([]frame, n)
	nullRows := make([][]Value, n)
	for i, ps := range pq.sources {
		metas[i] = frame{alias: ps.alias, cols: ps.cols}
		nr := make([]Value, len(ps.cols))
		for j := range nr {
			nr[j] = NullVal()
		}
		nullRows[i] = nr
	}

	envs := []*rowEnv{{outer: outer}}
	for i := range pq.sources {
		jn := &pq.joins[i]
		rows := tables[i].Rows
		var next []*rowEnv
		extend := func(prefix []frame, row []Value) {
			fr := make([]frame, len(prefix)+1)
			copy(fr, prefix)
			fr[len(prefix)] = frame{alias: metas[i].alias, cols: metas[i].cols, row: row}
			next = append(next, &rowEnv{frames: fr, outer: outer})
		}

		if jn.on == nil { // comma entry: plain cross product step
			var t0 time.Time
			if prof != nil {
				t0 = time.Now()
			}
			for _, env := range envs {
				for _, row := range rows {
					extend(env.frames, row)
				}
			}
			if prof != nil {
				op := "cross"
				if i == 0 {
					op = "scan"
				}
				prof.add(op, metas[i].alias, len(rows), len(next), time.Since(t0))
			}
			envs = next
			continue
		}

		padLeft := jn.typ == "left" || jn.typ == "full"
		var matched []bool
		if jn.typ == "right" || jn.typ == "full" {
			matched = make([]bool, len(rows))
		}
		var hash *hashSide
		if jn.hash {
			var tb time.Time
			if prof != nil {
				tb = time.Now()
			}
			h, err := pq.joinHash(i, rows, metas)
			if err != nil {
				return nil, err
			}
			if prof != nil {
				path := ""
				if jn.buildCol >= 0 && pq.sources[i].sub == nil {
					path = "index(" + pq.sources[i].cols[jn.buildCol] + ")"
				}
				prof.addPath("hash-build", metas[i].alias, path, len(rows), h.size(), time.Since(tb))
			}
			hash = h
		}

		var t0 time.Time
		if prof != nil {
			t0 = time.Now()
		}
		cand := &rowEnv{frames: make([]frame, i+1), outer: outer}
		var kb []byte
		for _, env := range envs {
			copy(cand.frames, env.frames)
			cand.frames[i] = metas[i]
			sawMatch := false
			if hash != nil {
				hits, err := hash.match(jn.probe, cand, &kb)
				if err != nil {
					return nil, err
				}
				for _, ri := range hits {
					cand.frames[i].row = rows[ri]
					pass := true
					for _, rf := range jn.resid {
						v, err := rf(cand)
						if err != nil {
							return nil, err
						}
						if !v.Truthy() {
							pass = false
							break
						}
					}
					if pass {
						sawMatch = true
						if matched != nil {
							matched[ri] = true
						}
						extend(env.frames, rows[ri])
					}
				}
			} else {
				for ri, row := range rows {
					cand.frames[i].row = row
					v, err := jn.on(cand)
					if err != nil {
						return nil, err
					}
					if v.Truthy() {
						sawMatch = true
						if matched != nil {
							matched[ri] = true
						}
						extend(env.frames, row)
					}
				}
			}
			if !sawMatch && padLeft {
				extend(env.frames, nullRows[i])
			}
		}
		if matched != nil {
			pad := make([]frame, i)
			for j := 0; j < i; j++ {
				pad[j] = metas[j]
				pad[j].row = nullRows[j]
			}
			for ri, row := range rows {
				if !matched[ri] {
					extend(pad, row)
				}
			}
		}
		if prof != nil {
			mode := "loop"
			path := ""
			if hash != nil {
				mode = "hash"
				path = "build=" + metas[i].alias
			}
			prof.addPath("join", jn.typ+" "+metas[i].alias+" ("+mode+")", path, len(envs), len(next), time.Since(t0))
		}
		envs = next
	}

	if pq.pred != nil {
		var t0 time.Time
		if prof != nil {
			t0 = time.Now()
		}
		var out []*rowEnv
		for _, env := range envs {
			v, err := pq.pred(env)
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				out = append(out, env)
			}
		}
		if prof != nil {
			prof.add("filter", "where", len(envs), len(out), time.Since(t0))
		}
		envs = out
	}
	return envs, nil
}
