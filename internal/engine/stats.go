package engine

// Table statistics for the cost-based access-path chooser (cost.go). Stats
// are computed in one pass on first use, cached on the DB's generation-gated
// access cache (index.go), and thrown away wholesale when the DB mutates —
// a stale estimate can never survive a DB.Add.
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

// TableStats summarizes one base table at a DB generation.
type TableStats struct {
	Rows int
	Cols []ColStats
}

// ColStats summarizes one column.
type ColStats struct {
	NDV     int   // distinct non-null values under join-key identity (`=` coercion)
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

// computeStats scans the table once. Rows shorter than the schema (possible
// in hand-built tables) count missing cells as NULL, matching how a sweep
// would fail to read them only if referenced.
func computeStats(t *Table) *TableStats {
	st := &TableStats{Rows: len(t.Rows), Cols: make([]ColStats, len(t.Cols))}
	var kb []byte
	for ci := range t.Cols {
		cs := &st.Cols[ci]
		distinct := make(map[string]struct{})
		have := false
		for _, row := range t.Rows {
			if ci >= len(row) || row[ci].Null {
				cs.Nulls++
				continue
			}
			v := row[ci]
			if v.IsStr {
				cs.Strs++
			} else {
				cs.Nums++
				if v.Num != v.Num {
					cs.HasNaN = true
				}
				if isNegZero(v.Num) {
					cs.negZero = true
				}
			}
			kb = appendJoinKey(kb[:0], v)
			distinct[string(kb)] = struct{}{}
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
		cs.NDV = len(distinct)
	}
	return st
}
