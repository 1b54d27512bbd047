package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	dt "pi2/internal/difftree"
)

// Exec executes a concrete query AST against the database and returns the
// result table. The AST must contain no choice nodes (resolve Difftrees
// first).
func Exec(db *DB, q *dt.Node) (*Table, error) {
	if q == nil || q.Kind != dt.KindQuery {
		return nil, fmt.Errorf("engine: expected query node, got %v", q)
	}
	return execQuery(db, q, nil)
}

// ExecSQL parses and executes a SQL string (convenience for tests, the REPL
// and the interface runtime).
func ExecSQL(db *DB, sql string, parse func(string) (*dt.Node, error)) (*Table, error) {
	q, err := parse(sql)
	if err != nil {
		return nil, err
	}
	return Exec(db, q)
}

// frame is one FROM-clause source bound to the current row.
type frame struct {
	alias string   // lowercased alias (or table name)
	cols  []string // lowercased column names
	row   []Value
}

// rowEnv resolves column references for the row being evaluated; outer
// chains to enclosing queries for correlated subqueries. When groupRows is
// non-nil, the environment is a "group context": aggregate functions iterate
// over the group's rows and plain references resolve against the group's
// representative row.
type rowEnv struct {
	frames    []frame
	outer     *rowEnv
	groupRows []*rowEnv
	plan      *planEnv // compiled plans only: see planEnv
}

func (e *rowEnv) lookup(name string) (Value, bool) {
	return e.lookupLower(strings.ToLower(name))
}

// lookupLower is lookup for an already-lowercased name; the compiled plan
// path pre-lowers identifiers once at prepare time and calls this directly.
func (e *rowEnv) lookupLower(lower string) (Value, bool) {
	if i := strings.IndexByte(lower, '.'); i >= 0 {
		alias, col := lower[:i], lower[i+1:]
		for env := e; env != nil; env = env.outer {
			for _, f := range env.frames {
				if f.alias != alias {
					continue
				}
				for ci, c := range f.cols {
					if c == col {
						return f.row[ci], true
					}
				}
			}
		}
		return Value{}, false
	}
	for env := e; env != nil; env = env.outer {
		for _, f := range env.frames {
			for ci, c := range f.cols {
				if c == lower {
					return f.row[ci], true
				}
			}
		}
	}
	return Value{}, false
}

// source is an evaluated FROM entry.
type source struct {
	alias string
	table *Table
}

// fromEntry is one FROM-clause source with its join role: "cross" for
// comma-separated entries (and the leading table), or the join type with its
// ON condition for JOIN steps.
type fromEntry struct {
	ref *dt.Node // the KindTableRef node
	typ string   // "cross", "inner", "left", "right" or "full"
	on  *dt.Node // AND-wrapped ON expression; nil for "cross"
}

// fromEntries flattens a FROM child list into per-source entries, unwrapping
// KindJoin nodes. hasJoin reports whether any JOIN step is present, which
// selects the level-by-level join evaluator over the filtered cross product.
func fromEntries(from *dt.Node) (entries []fromEntry, hasJoin bool, err error) {
	for _, c := range from.Children {
		e := fromEntry{ref: c, typ: "cross"}
		if c.Kind == dt.KindJoin {
			if len(entries) == 0 {
				return nil, false, fmt.Errorf("engine: JOIN without a left-hand table")
			}
			e = fromEntry{ref: c.Children[0], typ: c.Label, on: c.Children[1]}
			hasJoin = true
		}
		entries = append(entries, e)
	}
	return entries, hasJoin, nil
}

func execQuery(db *DB, q *dt.Node, outer *rowEnv) (*Table, error) {
	sel, from, where := q.Children[0], q.Children[1], q.Children[2]
	groupby, having, orderby, limit := q.Children[3], q.Children[4], q.Children[5], q.Children[6]

	// 1. FROM: evaluate sources (tables and derived tables, which may be
	// correlated with the outer query).
	var sources []source
	var entries []fromEntry
	hasJoin := false
	if from.Kind == dt.KindFrom {
		var err error
		entries, hasJoin, err = fromEntries(from)
		if err != nil {
			return nil, err
		}
		for _, en := range entries {
			src, alias := en.ref.Children[0], en.ref.Children[1]
			var tbl *Table
			switch src.Kind {
			case dt.KindIdent:
				t, ok := db.Table(src.Label)
				if !ok {
					return nil, fmt.Errorf("engine: unknown table %q", src.Label)
				}
				tbl = t
			case dt.KindQuery:
				t, err := execQuery(db, src, outer)
				if err != nil {
					return nil, err
				}
				tbl = t
			default:
				return nil, fmt.Errorf("engine: bad table ref %v", src)
			}
			name := tbl.Name
			if alias.Kind == dt.KindIdent {
				name = alias.Label
			}
			if name == "" {
				name = fmt.Sprintf("t%d", len(sources))
			}
			sources = append(sources, source{alias: strings.ToLower(name), table: tbl})
		}
	}

	// 2. Enumerate the joined rows: the level-by-level join evaluator when
	// any JOIN step is present, the filtered cross product otherwise.
	var rows []*rowEnv
	var err error
	if hasJoin {
		rows, err = joinRows(db, sources, entries, where, outer)
	} else {
		rows, err = crossFilter(db, sources, where, outer)
	}
	if err != nil {
		return nil, err
	}

	// 3. Output column metadata.
	items := sel.Children
	outCols, err := outputNames(items, sources)
	if err != nil {
		return nil, err
	}

	grouped := groupby.Kind == dt.KindGroupBy || anyAggregate(items) || (having.Kind == dt.KindHaving && anyAggregate([]*dt.Node{having}))

	var outRows [][]Value
	var sortKeys [][]Value
	orderExprs := orderItems(orderby)

	if grouped {
		for _, g := range groupRows(db, rows, groupby) {
			genv := &rowEnv{outer: outer, groupRows: g}
			if len(g) > 0 {
				genv.frames = g[0].frames
			} else {
				genv.groupRows = []*rowEnv{} // empty group: count(*)=0
			}
			if having.Kind == dt.KindHaving {
				hv, err := evalExpr(db, having.Children[0], genv)
				if err != nil {
					return nil, err
				}
				if !hv.Truthy() {
					continue
				}
			}
			row, keys, err := projectRow(db, items, orderExprs, genv)
			if err != nil {
				return nil, err
			}
			outRows = append(outRows, row)
			sortKeys = append(sortKeys, keys)
		}
	} else {
		for _, env := range rows {
			env.outer = outer
			row, keys, err := projectRow(db, items, orderExprs, env)
			if err != nil {
				return nil, err
			}
			outRows = append(outRows, row)
			sortKeys = append(sortKeys, keys)
		}
	}

	// 4. DISTINCT.
	if sel.Label == "distinct" {
		outRows, sortKeys = distinctRows(outRows, sortKeys)
	}

	// 5. ORDER BY (stable).
	if len(orderExprs) > 0 {
		dirs := make([]bool, len(orderExprs)) // true = desc
		for i, oi := range orderExprs {
			dirs[i] = oi.Label == "desc"
		}
		outRows = sortRowsStable(outRows, sortKeys, dirs)
	}

	// 6. LIMIT.
	if limit.Kind == dt.KindLimit {
		n, err := strconv.Atoi(limit.Label)
		if err != nil {
			return nil, fmt.Errorf("engine: bad limit %q", limit.Label)
		}
		if n < len(outRows) {
			outRows = outRows[:n]
		}
	}

	// 7. Output types, inferred from expressions (and data as a fallback).
	types := make([]ColType, len(outCols))
	for i, item := range expandItems(items, sources) {
		types[i] = inferColType(db, item, sources, outer)
	}
	return &Table{Cols: outCols, Types: types, Rows: outRows}, nil
}

// crossFilter enumerates the cross product of the sources, applying the
// WHERE predicate per combined row. This is the executable specification
// the compiled FROM operator (from.go) is tested against — it stays naive on
// purpose.
func crossFilter(db *DB, sources []source, where *dt.Node, outer *rowEnv) ([]*rowEnv, error) {
	var pred *dt.Node
	if where.Kind == dt.KindWhere {
		pred = where.Children[0]
	}
	var out []*rowEnv
	frames := make([]frame, len(sources))
	for i, s := range sources {
		cols := make([]string, len(s.table.Cols))
		for j, c := range s.table.Cols {
			cols[j] = strings.ToLower(c)
		}
		frames[i] = frame{alias: s.alias, cols: cols}
	}
	var rec func(i int, cur []frame) error
	rec = func(i int, cur []frame) error {
		if i == len(sources) {
			env := &rowEnv{frames: append([]frame(nil), cur...), outer: outer}
			if pred != nil {
				v, err := evalExpr(db, pred, env)
				if err != nil {
					return err
				}
				if !v.Truthy() {
					return nil
				}
			}
			out = append(out, env)
			return nil
		}
		for _, row := range sources[i].table.Rows {
			f := frames[i]
			f.row = row
			if err := rec(i+1, append(cur, f)); err != nil {
				return err
			}
		}
		return nil
	}
	if len(sources) == 0 {
		// SELECT without FROM: a single empty row.
		env := &rowEnv{outer: outer}
		if pred != nil {
			v, err := evalExpr(db, pred, env)
			if err != nil {
				return nil, err
			}
			if !v.Truthy() {
				return nil, nil
			}
		}
		return []*rowEnv{env}, nil
	}
	if err := rec(0, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// joinRows evaluates a FROM clause containing JOIN steps, one source level
// at a time. This is the executable specification of join semantics: the
// compiled paths (naive and hash-optimized) must be observably identical to
// it on both result rows and error text.
//
// Level i materializes every surviving row prefix before level i+1 starts,
// so all ON evaluations (and their errors) at one level happen before any at
// the next. Per prefix, candidate rows are scanned in table order and the ON
// condition is evaluated with three-valued logic; TRUE emits the combined
// row. LEFT/FULL prefixes with no match emit once with the new frame
// NULL-padded, in place. RIGHT/FULL build rows that matched no prefix are
// appended after the level's matched output, in scan order, with every
// earlier frame NULL-padded. The WHERE predicate applies after all joins,
// per row in emission order — it is never pushed below an outer join, where
// removing rows early would resurrect NULL-padded ones.
func joinRows(db *DB, sources []source, entries []fromEntry, where *dt.Node, outer *rowEnv) ([]*rowEnv, error) {
	n := len(sources)
	metas := make([]frame, n)
	nullRows := make([][]Value, n)
	for i, s := range sources {
		cols := make([]string, len(s.table.Cols))
		nr := make([]Value, len(cols))
		for j, c := range s.table.Cols {
			cols[j] = strings.ToLower(c)
			nr[j] = NullVal()
		}
		metas[i] = frame{alias: s.alias, cols: cols}
		nullRows[i] = nr
	}

	envs := []*rowEnv{{outer: outer}}
	for i := range sources {
		en := entries[i]
		rows := sources[i].table.Rows
		var next []*rowEnv
		extend := func(prefix []frame, row []Value) {
			fr := make([]frame, len(prefix)+1)
			copy(fr, prefix)
			fr[len(prefix)] = frame{alias: metas[i].alias, cols: metas[i].cols, row: row}
			next = append(next, &rowEnv{frames: fr, outer: outer})
		}

		if en.on == nil { // comma entry: plain cross product step
			for _, env := range envs {
				for _, row := range rows {
					extend(env.frames, row)
				}
			}
			envs = next
			continue
		}

		padLeft := en.typ == "left" || en.typ == "full"
		var matched []bool
		if en.typ == "right" || en.typ == "full" {
			matched = make([]bool, len(rows))
		}
		cand := &rowEnv{frames: make([]frame, i+1), outer: outer}
		for _, env := range envs {
			copy(cand.frames, env.frames)
			cand.frames[i] = metas[i]
			sawMatch := false
			for ri, row := range rows {
				cand.frames[i].row = row
				v, err := evalExpr(db, en.on, cand)
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
		envs = next
	}

	if where.Kind == dt.KindWhere {
		var out []*rowEnv
		for _, env := range envs {
			v, err := evalExpr(db, where.Children[0], env)
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				out = append(out, env)
			}
		}
		return out, nil
	}
	return envs, nil
}

// groupRows partitions rows into groups by the GROUP BY key (or a single
// group when the clause is absent but aggregates are used) in first-seen
// order. Keys are type-tagged encodings (see key.go), so a string
// containing the old 0x1f separator — or a number whose canonical text
// equals a string, like 1 vs '1' — can no longer merge two groups.
func groupRows(db *DB, rows []*rowEnv, groupby *dt.Node) [][]*rowEnv {
	idx := map[string]int{}
	var groups [][]*rowEnv
	var buf []byte
	for _, env := range rows {
		buf = buf[:0]
		if groupby.Kind == dt.KindGroupBy {
			for _, g := range groupby.Children {
				v, err := evalExpr(db, g, env)
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
	if groupby.Kind != dt.KindGroupBy && len(rows) == 0 {
		// aggregate over empty input still yields one (empty) group
		groups = append(groups, nil)
	}
	return groups
}

// projectRow evaluates the select items (expanding *) and order-by
// expressions for a row or group environment.
func projectRow(db *DB, items []*dt.Node, orderExprs []*dt.Node, env *rowEnv) ([]Value, []Value, error) {
	var row []Value
	for _, item := range items {
		if item.Children[0].Kind == dt.KindStar {
			for _, f := range env.frames {
				row = append(row, f.row...)
			}
			continue
		}
		v, err := evalExpr(db, item.Children[0], env)
		if err != nil {
			return nil, nil, err
		}
		row = append(row, v)
	}
	var keys []Value
	for _, oi := range orderExprs {
		v, err := evalExpr(db, oi.Children[0], env)
		if err != nil {
			return nil, nil, err
		}
		keys = append(keys, v)
	}
	return row, keys, nil
}

func orderItems(orderby *dt.Node) []*dt.Node {
	if orderby.Kind != dt.KindOrderBy {
		return nil
	}
	return orderby.Children
}

// expandItems flattens * into per-column pseudo-items for naming and typing.
func expandItems(items []*dt.Node, sources []source) []*dt.Node {
	var out []*dt.Node
	for _, item := range items {
		if item.Children[0].Kind == dt.KindStar {
			for _, s := range sources {
				for _, c := range s.table.Cols {
					out = append(out, dt.New(dt.KindSelectItem, "",
						dt.Ident(s.alias+"."+c), dt.NewNone()))
				}
			}
			continue
		}
		out = append(out, item)
	}
	return out
}

// outputNames derives result column names: explicit alias, identifier leaf
// name, "fn" or "fn_arg" for function calls, or exprN.
func outputNames(items []*dt.Node, sources []source) ([]string, error) {
	var names []string
	for _, item := range expandItems(items, sources) {
		alias := item.Children[1]
		if alias.Kind == dt.KindIdent {
			names = append(names, alias.Label)
			continue
		}
		names = append(names, exprName(item.Children[0], len(names)))
	}
	return names, nil
}

func exprName(e *dt.Node, i int) string {
	switch e.Kind {
	case dt.KindIdent:
		name := e.Label
		if j := strings.LastIndexByte(name, '.'); j >= 0 {
			name = name[j+1:]
		}
		return name
	case dt.KindFunc:
		if len(e.Children) == 1 && e.Children[0].Kind == dt.KindIdent {
			return e.Label + "_" + exprName(e.Children[0], i)
		}
		return e.Label
	default:
		return fmt.Sprintf("expr%d", i+1)
	}
}

// distinctRows drops duplicate rows (first occurrence wins, by type-tagged
// value identity — see key.go), keeping each surviving row's sort keys
// aligned. Shared by the interpreted and planned execution paths so
// DISTINCT semantics cannot diverge between them.
func distinctRows(rows, keys [][]Value) ([][]Value, [][]Value) {
	seen := map[string]bool{}
	var dr [][]Value
	var dk [][]Value
	var buf []byte
	for i, row := range rows {
		buf = groupKey(buf, row)
		if seen[string(buf)] {
			continue
		}
		seen[string(buf)] = true
		dr = append(dr, row)
		dk = append(dk, keys[i])
	}
	return dr, dk
}

// sortRowsStable stable-sorts rows by their sort keys with per-key
// descending flags. Shared by the interpreted and planned execution paths.
func sortRowsStable(rows, keys [][]Value, desc []bool) [][]Value {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		for i := range ka {
			c := Compare(ka[i], kb[i])
			if c == 0 {
				continue
			}
			if desc[i] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	sorted := make([][]Value, len(rows))
	for i, j := range idx {
		sorted[i] = rows[j]
	}
	return sorted
}

// anyAggregate reports whether any expression in the nodes contains an
// aggregate function call, without descending into subqueries.
func anyAggregate(nodes []*dt.Node) bool {
	for _, n := range nodes {
		found := false
		n.Walk(func(m *dt.Node) bool {
			if m != n && m.Kind == dt.KindQuery {
				return false
			}
			if m.Kind == dt.KindFunc && isAggregate(m.Label) {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func isAggregate(name string) bool {
	switch name {
	case "count", "sum", "avg", "min", "max":
		return true
	}
	return false
}
