package engine

// Table statistics for the cost-based access-path chooser (cost.go). Stats
// are read off the table's column image on first use and cached on the DB's
// snapshot-keyed access cache (index.go). A stale estimate can never survive
// a write: an Add drops the table's entry, and an Append hands it to the new
// snapshot, whose first use extends the stats by the appended rows. The
// number of distinct values is not kept here: the chooser reads it off the
// column's hash index, which groups cells under the same `=` identity.
//
// Beyond cardinality estimation the stats carry two *correctness* signals:
//
//   - HasNaN: Compare treats NaN as equal to every number, so a NaN row
//     matches every numeric equality under the sweep path while its join-key
//     encoding ("NaN") matches only another NaN. Predicate index use is
//     disabled on such columns — the sweep is the semantics.
//   - negZero: -0 = 0 and 0 = '0' but -0 <> '0', so no `=` key is exact
//     where -0 meets a string. Equality index use is disabled for string
//     keys on such columns (and for a -0 key on columns holding strings).
//   - type homogeneity (Nums/Strs): Compare is not transitive across mixed
//     numeric/string values (5 < 10, 10 < '3', '3' < '5'), so a sorted index
//     is only a total order — and range probing only sound — when every
//     non-null value in the column has the same type.

// TableStats summarizes one base table snapshot.
type TableStats struct {
	Rows int
	Cols []ColStats
}

// ColStats summarizes one column.
type ColStats struct {
	Nulls   int   // NULL cells
	Nums    int   // non-null numeric cells
	Strs    int   // non-null string cells
	HasNaN  bool  // any numeric cell is NaN
	negZero bool  // any numeric cell is -0
	Min     Value // smallest/largest non-null value; valid only when
	Max     Value // Homogeneous() and the column has non-null cells
}

// Homogeneous reports whether every non-null value has one type, which is
// what makes Compare a total order over the column.
func (cs ColStats) Homogeneous() bool { return cs.Nums == 0 || cs.Strs == 0 }

// extendStats summarizes t, whose column image is tc. The cell counts and
// flags come from tc; Min and Max continue base's fold (base nil: none yet)
// over the rows base does not cover, in row order, so the result equals a
// fold over every row. Rows shorter than the schema (possible in hand-built
// tables) count missing cells as NULL, matching how a sweep would fail to
// read them only if referenced.
func extendStats(base *TableStats, t *Table, tc *tableCols) *TableStats {
	st := &TableStats{Rows: tc.rows, Cols: make([]ColStats, len(tc.cols))}
	from := 0
	if base != nil {
		from = base.Rows
		copy(st.Cols, base.Cols)
	}
	for ci := range st.Cols {
		cs, cd := &st.Cols[ci], &tc.cols[ci]
		have := cs.Nums+cs.Strs > 0
		cs.Nums, cs.Strs = cd.numCells, cd.strCells
		cs.Nulls = tc.rows - cd.numCells - cd.strCells
		cs.HasNaN, cs.negZero = cd.hasNaN, cd.negZero
		for _, row := range t.Rows[from:tc.rows] {
			if ci >= len(row) || row[ci].Null {
				continue
			}
			v := row[ci]
			if !have {
				cs.Min, cs.Max, have = v, v, true
				continue
			}
			// Min/Max are only reported for homogeneous columns, where
			// Compare restricted to the column is a total order.
			if Compare(v, cs.Min) < 0 {
				cs.Min = v
			}
			if Compare(v, cs.Max) > 0 {
				cs.Max = v
			}
		}
	}
	return st
}
