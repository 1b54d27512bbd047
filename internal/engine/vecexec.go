package engine

import (
	"math"
	"time"
)

// The vectorized execution path: runtime half. runVec executes a compiled
// vecPlan over columnar storage (colstore.go) and feeds the same rowSink the
// row path feeds, so DISTINCT/ORDER BY/LIMIT and the top-K heap are
// shared verbatim. Operators walk selection vectors in batchSize chunks:
//
//   scan    — per-source selection vectors (the whole table, or the
//             chosen index's candidates), predicates applied
//             column-at-a-time with NULL-bitmap-aware three-valued logic;
//   join    — hash build over source 1's selection (or the DB-cached
//             whole-column hash when source 1 has no pushed predicates),
//             probed by source 0 in selection order, which emits (r0, r1)
//             pairs in exactly the interpreter's nested-loop order;
//   group   — group ids via an open-addressing u64 table for a single
//             all-numeric key (raw float64 bits = appendGroupKey identity)
//             or type-tagged keys otherwise, with aggregates accumulated in
//             scan order so float sums round identically to the row path.
//
// Selections and the filtered build hash are pure functions of immutable
// base tables, so a query re-run within one Exec (a subquery evaluated per
// outer row) computes them once, in the Exec's scratch, like the row path's
// hash builds. Row-id buffers come from pools (plan.go): selections stay
// with the Exec, join pairs and group ids with one run, so nothing is
// allocated per row. Errors cannot occur before output: every pushed
// predicate is a proven-pure shape. Grouped output runs the row path's
// per-group step (emitGroup) — the compiled HAVING, then select items, then
// order keys — over an env whose frames bind the group's first row and whose
// aggregates read the accumulated values, so aggregate type errors surface
// for exactly the same group in exactly the same order.

// runVec executes the vectorized plan into sink, returning the number of
// rows offered (the row path's `offered` counter).
func (pq *planQuery) runVec(outer *rowEnv, prof *Profile, sink *rowSink) (int, error) {
	vp := pq.vec
	x := outer.scratch()
	qs := x.query(pq)

	// 1. Scans: compute (or, on a re-run within this Exec, reuse) the
	// per-source selection vectors.
	var selDur [2]time.Duration
	var selBatches [2]int
	if !qs.selDone {
		qs.sel = make([][]int32, vp.nsrc)
		for i := 0; i < vp.nsrc; i++ {
			if len(vp.scanPreds[i]) == 0 {
				continue
			}
			t0 := time.Now()
			qs.sel[i], selBatches[i] = pq.vecSelect(i, x)
			selDur[i] = time.Since(t0)
		}
		qs.selDone = true
	}
	if prof != nil {
		for i := 0; i < vp.nsrc; i++ {
			in := vp.cols[i].rows
			out, path := in, "vectorized"
			if len(vp.scanPreds[i]) > 0 {
				out = len(qs.sel[i])
				path = "vectorized-filter"
				if pq.vecIndexed(i) {
					// The index names the access path; the batch count
					// says the columnar filter ran.
					path = vp.access[i].path()
				}
			}
			prof.addVec("scan", pq.sources[i].alias, path, in, out, selBatches[i], selDur[i])
		}
	}

	// 2. Pairs: the surviving (r0, r1) combinations in nested-loop order.
	// For a single source r1s stays nil; r0s == nil means the identity
	// selection (no pushed predicates).
	r0s := qs.sel[0]
	var r1s []int32
	npairs := len(r0s)
	if r0s == nil {
		npairs = vp.cols[0].rows
	}
	if vp.nsrc == 2 {
		p0, p1 := pq.vecJoin(prof, qs)
		defer putInt32s(p0)
		defer putInt32s(p1)
		r0s, r1s = *p0, *p1
		npairs = len(r0s)
	}

	// 3. Output.
	if !pq.grouped {
		return pq.vecEmit(prof, sink, r0s, r1s, npairs), nil
	}
	return pq.vecEmitGrouped(outer, prof, sink, r0s, r1s, npairs)
}

// vecSelect computes source i's selection vector of rows surviving every
// pushed predicate, in a buffer x keeps until the Exec returns. The buffer
// first holds the candidate row ids — the identity sequence, or the
// candidates of the index the chooser picked (ascending, a superset of the
// matches, read by indexRows) — and each batchSize chunk of it is compacted
// in place by every predicate, then moved down behind the survivors of the
// batches before it. Every pushed predicate, the one the index served
// included, re-checks the candidates, so the index can only narrow the scan,
// never change its result. On the identity sequence the first dense
// predicate (filterDense) reads its column's cells in row order and writes
// the surviving ids itself, so the batch is never filled. It also returns
// the number of batches run.
func (pq *planQuery) vecSelect(i int, x *execScratch) ([]int32, int) {
	tc, preds := pq.vec.cols[i], pq.vec.scanPreds[i]
	identity := !pq.vecIndexed(i)
	var out []int32
	first := -1 // the dense predicate that reads the identity sequence itself
	if identity {
		out = x.keep(tc.rows)
		for k := range preds {
			if preds[k].dense {
				first = k
				break
			}
		}
	} else {
		out = pq.indexRows(i, x)
	}
	n, kept, batches := len(out), 0, 0
	for base := 0; base < n; base += batchSize {
		sel := out[base : base+min(batchSize, n-base)]
		m := len(sel)
		switch {
		case first >= 0:
			sel = preds[first].denseWindow(tc.cols[preds[first].col].nums, base, sel)
		case identity:
			for k := range sel {
				sel[k] = int32(base + k)
			}
		}
		for k := range preds {
			if len(sel) == 0 {
				break
			}
			if k != first {
				sel = preds[k].filterSel(tc, sel)
			}
		}
		kept += copy(out[kept:], sel)
		pq.db.noteBatch(m)
		batches++
	}
	return out[:kept], batches
}

// vecIndexed reports whether source i's selection is seeded from the index
// the cost chooser picked for it.
func (pq *planQuery) vecIndexed(i int) bool {
	return pq.vec.access[i].mode != accessFull
}

// indexRows probes source i's chosen index and returns its candidate row
// indexes, ascending, in a buffer x keeps until the Exec returns: an
// equality probe's bucket is copied out of the shared hash index, and a range
// probe's hits are put in row order (orderHits).
func (pq *planQuery) indexRows(i int, x *execScratch) []int32 {
	a, tbl := pq.vec.access[i], pq.vec.tabs[i]
	var out []int32
	if a.mode == accessEq {
		bucket := pq.db.hashIndexFor(tbl, a.col).rowsFor(a.eqKey)
		out = x.keep(len(bucket))
		for k, r := range bucket {
			out[k] = int32(r)
		}
	} else {
		si := pq.db.sortedIndexFor(tbl, a.col)
		hits := si.rangeHits(a.lo, a.hasLo, a.loExcl, a.hi, a.hasHi, a.hiExcl)
		out = orderHits(si.nrows, hits, x.keep(len(hits)))
	}
	pq.db.idxHits.Add(1)
	return out
}

// filterSel keeps the rows of sel that satisfy the predicate, compacting in
// place. NULL handling is uniform: a NULL operand makes the predicate NULL,
// and NULL is not truthy, so the row drops — the same three-valued outcome
// the row path's compiled closures produce. The NaN branches reproduce
// Compare's "NaN equals every number" degeneracy bit for bit.
func (p *vecPred) filterSel(tc *tableCols, sel []int32) []int32 {
	cd := &tc.cols[p.col]
	if p.fast == fastNum {
		if p.dense {
			return p.filterDense(cd.nums, sel)
		}
		return p.filterRange(cd, sel)
	}
	j := 0
	switch p.kind {
	case predCmpLit:
		switch p.fast {
		case fastStr:
			lit := p.lit.Str
			for _, i := range sel {
				ii := int(i)
				if cd.isNull(ii) {
					continue
				}
				s := cd.strs[ii]
				var keep bool
				switch p.op {
				case vecEq:
					keep = s == lit
				case vecNe:
					keep = s != lit
				case vecLt:
					keep = s < lit
				case vecLe:
					keep = s <= lit
				case vecGt:
					keep = s > lit
				default:
					keep = s >= lit
				}
				if keep {
					sel[j] = i
					j++
				}
			}
		default:
			for _, i := range sel {
				v := cd.value(int(i))
				if v.Null {
					continue
				}
				if cmpTest(p.op, Compare(v, p.lit)) {
					sel[j] = i
					j++
				}
			}
		}
	case predCmpCol:
		cd2 := &tc.cols[p.col2]
		if cd.allNum() && cd2.allNum() {
			for _, i := range sel {
				ii := int(i)
				if cd.isNull(ii) || cd2.isNull(ii) {
					continue
				}
				a, b := cd.nums[ii], cd2.nums[ii]
				var keep bool
				if a != a || b != b { // NaN on either side: Compare == 0
					keep = p.op == vecEq || p.op == vecLe || p.op == vecGe
				} else {
					switch p.op {
					case vecEq:
						keep = a == b
					case vecNe:
						keep = a != b
					case vecLt:
						keep = a < b
					case vecLe:
						keep = a <= b
					case vecGt:
						keep = a > b
					default:
						keep = a >= b
					}
				}
				if keep {
					sel[j] = i
					j++
				}
			}
		} else {
			for _, i := range sel {
				a := cd.value(int(i))
				b := cd2.value(int(i))
				if a.Null || b.Null {
					continue
				}
				if cmpTest(p.op, Compare(a, b)) {
					sel[j] = i
					j++
				}
			}
		}
	case predBetween:
		switch p.fast {
		case fastStr:
			lo, hi := p.lo.Str, p.hi.Str
			for _, i := range sel {
				ii := int(i)
				if cd.isNull(ii) {
					continue
				}
				s := cd.strs[ii]
				if s < lo || s > hi {
					continue
				}
				sel[j] = i
				j++
			}
		default:
			for _, i := range sel {
				v := cd.value(int(i))
				if v.Null || Compare(v, p.lo) < 0 || Compare(v, p.hi) > 0 {
					continue
				}
				sel[j] = i
				j++
			}
		}
	case predLike:
		for _, i := range sel {
			v := cd.value(int(i))
			if v.Null {
				// NULL LIKE p is NULL, and NOT NULL is still NULL: the row
				// drops under either polarity.
				continue
			}
			if likeMatch(v.Text(), p.pattern) != p.negate {
				sel[j] = i
				j++
			}
		}
	case predIn:
		for _, i := range sel {
			v := cd.value(int(i))
			var found, sawNull bool
			for _, e := range p.elems {
				if EqualVal(v, e) {
					found = true
					break
				}
				if e.Null {
					sawNull = true
				}
			}
			if inVerdict(p.negate, found, sawNull || v.Null).Truthy() {
				sel[j] = i
				j++
			}
		}
	}
	return sel[:j]
}

// filterRange is filterSel for a fastNum comparison or BETWEEN: a NULL cell
// drops, and a number is kept by the predicate's range test (vecPred.dlo):
// the row is outside when v < dlo || v > dhi, and kept when inside or, for
// an outside predicate, when outside. A NaN cell fails both comparisons, so
// an inside predicate (BETWEEN, =, <=, >=) keeps it and an outside one (<>,
// <, >) drops it — Compare's "NaN equals every number".
func (p *vecPred) filterRange(cd *colData, sel []int32) []int32 {
	lo, hi, flip := p.dlo, p.dhi, b2i(!p.outside)
	j := 0
	for _, r := range sel {
		if cd.isNull(int(r)) {
			continue
		}
		v := cd.nums[r]
		sel[j] = r
		j += (b2i(v < lo) | b2i(v > hi)) ^ flip
	}
	return sel[:j]
}

// filterDense is filterRange for a dense predicate (vecPred.dense): the
// column holds a number in every row, so the kernel reads nums with no NULL
// probe and compacts without a branch per row.
func (p *vecPred) filterDense(nums []float64, sel []int32) []int32 {
	lo, hi, flip := p.dlo, p.dhi, b2i(!p.outside)
	j := 0
	for _, r := range sel {
		v := nums[r]
		sel[j] = r
		j += (b2i(v < lo) | b2i(v > hi)) ^ flip
	}
	return sel[:j]
}

// denseWindow is filterDense over the identity batch base, base+1, …,
// base+len(sel)-1: it reads nums[base:base+len(sel)] in order and writes the
// surviving row ids into sel.
func (p *vecPred) denseWindow(nums []float64, base int, sel []int32) []int32 {
	lo, hi, flip := p.dlo, p.dhi, b2i(!p.outside)
	j := 0
	for q, v := range nums[base : base+len(sel)] {
		sel[j] = int32(base + q)
		j += (b2i(v < lo) | b2i(v > hi)) ^ flip
	}
	return sel[:j]
}

// b2i converts a bool to 0 or 1 without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// vecCell reads one column of one (r0, r1) pair.
func vecCell(vp *vecPlan, c vecCol, r0, r1 int) Value {
	ri := r0
	if c.src == 1 {
		ri = r1
	}
	return vp.cols[c.src].cols[c.col].value(ri)
}

// vecCrossPass applies the remaining cross-source predicates to one pair.
func vecCrossPass(vp *vecPlan, r0, r1 int) bool {
	for i := range vp.cross {
		cp := &vp.cross[i]
		a := vecCell(vp, cp.l, r0, r1)
		b := vecCell(vp, cp.r, r0, r1)
		if a.Null || b.Null {
			return false
		}
		if !cmpTest(cp.op, Compare(a, b)) {
			return false
		}
	}
	return true
}

// vecJoin produces the joined (r0, r1) pair lists in nested-loop order:
// r0 ascending in probe-selection order, r1 ascending within each bucket.
// The lists are pooled buffers the caller returns (putInt32s) when its run
// ends.
func (pq *planQuery) vecJoin(prof *Profile, qs *queryScratch) (p0, p1 *[]int32) {
	vp := pq.vec
	db := pq.db
	tc0, tc1 := vp.cols[0], vp.cols[1]
	sel0, sel1 := qs.sel[0], qs.sel[1]
	n0 := len(sel0)
	if sel0 == nil {
		n0 = tc0.rows
	}
	n1 := len(sel1)
	if sel1 == nil {
		n1 = tc1.rows
	}

	var tj time.Time
	if prof != nil {
		tj = time.Now()
	}
	p0, p1 = getInt32s(n0), getInt32s(n0)
	r0s, r1s := (*p0)[:0], (*p1)[:0]
	// A bucket can match more than once per probe row, so the lists may
	// outgrow n0; the grown arrays go back to the pool in their place.
	defer func() { *p0, *p1 = r0s, r1s }()
	emit := func(r0, r1 int32) {
		if len(vp.cross) == 0 || vecCrossPass(vp, int(r0), int(r1)) {
			r0s = append(r0s, r0)
			r1s = append(r1s, r1)
		}
	}

	if !vp.hasKey {
		// No hash-keyable equi conjunct: vectorized nested loop (the row
		// path would nested-loop here too).
		for k0 := 0; k0 < n0; k0++ {
			r0 := int32(k0)
			if sel0 != nil {
				r0 = sel0[k0]
			}
			for k1 := 0; k1 < n1; k1++ {
				r1 := int32(k1)
				if sel1 != nil {
					r1 = sel1[k1]
				}
				emit(r0, r1)
			}
		}
		db.noteBatches(n0)
		if prof != nil {
			prof.addVec("join", pq.sources[1].alias, "vectorized nested-loop",
				n0+n1, len(r0s), (n0+batchSize-1)/batchSize, time.Since(tj))
		}
		return p0, p1
	}

	// Hash join: build over source 1, probe with source 0 in selection order.
	var h *hashIndex
	buildPath := ""
	if sel1 == nil {
		// No pushed predicates on the build side: reuse the column's hash
		// index (cold on first use, then shared across plans).
		var tb time.Time
		if prof != nil {
			tb = time.Now()
		}
		h = db.hashIndexFor(vp.tabs[1], vp.key1)
		buildPath = "columnar(" + pq.sources[1].cols[vp.key1] + ")"
		if prof != nil {
			prof.addVec("hash-build", pq.sources[1].alias, buildPath, n1, h.size(), 0, time.Since(tb))
		}
	} else {
		var d time.Duration
		if qs.build == nil {
			t0 := time.Now()
			qs.build = buildHashIndex(&tc1.cols[vp.key1], sel1, tc1.rows)
			d = time.Since(t0)
			db.noteBatches(len(sel1))
		}
		h = qs.build
		if prof != nil {
			prof.addVec("hash-build", pq.sources[1].alias, "vectorized", n1, h.size(), 0, d)
		}
	}

	cd0 := &tc0.cols[vp.key0]
	for k0 := 0; k0 < n0; k0++ {
		r0 := int32(k0)
		if sel0 != nil {
			r0 = sel0[k0]
		}
		ii := int(r0)
		if cd0.isNull(ii) {
			continue // NULL key matches nothing
		}
		bi, ok := int32(-1), true
		if vp.keyNum {
			bi = h.tab.find(joinKeyBits(cd0.nums[ii]))
		} else {
			bi, ok = h.idx[cd0.strs[ii]]
		}
		if !ok || bi < 0 {
			continue
		}
		for _, r1 := range h.bucket(bi) {
			emit(r0, int32(r1))
		}
	}
	db.noteBatches(n0)
	if prof != nil {
		detail := "vectorized hash build=" + pq.sources[1].alias
		prof.addVec("join", detail, buildPath, n0+n1, len(r0s), (n0+batchSize-1)/batchSize, time.Since(tj))
	}
	return p0, p1
}

// vecEmit materializes the non-grouped output: one slab allocation backs
// every output row, gathered column-at-a-time, then rows feed the sink in
// pair order (= the interpreter's enumeration order). Never errors: items
// and order keys are bare local columns.
func (pq *planQuery) vecEmit(prof *Profile, sink *rowSink, r0s, r1s []int32, npairs int) int {
	vp := pq.vec
	var tp time.Time
	if prof != nil {
		tp = time.Now()
	}
	if vp.distinct {
		before := npairs
		r0s, r1s, npairs = pq.vecDedup(r0s, r1s, npairs)
		// The sink's dedup would be redundant: first occurrences (and their
		// first-row keys) are already kept, exactly like distinctRows.
		sink.distinct = false
		sink.seen = nil
		if prof != nil {
			prof.addVec("distinct", "", "vectorized", before, npairs, 0, time.Since(tp))
			tp = time.Now()
		}
	}
	k := len(vp.items)
	nk := len(vp.orderCols)
	data := make([]Value, npairs*k)
	gather := func(dst []Value, width int, off int, c vecCol) {
		cd := &vp.cols[c.src].cols[c.col]
		rows := r0s
		if c.src == 1 {
			rows = r1s
		}
		if rows == nil {
			for p := 0; p < npairs; p++ {
				dst[p*width+off] = cd.value(p)
			}
		} else {
			for p := 0; p < npairs; p++ {
				dst[p*width+off] = cd.value(int(rows[p]))
			}
		}
	}
	for j, c := range vp.items {
		gather(data, k, j, c)
	}
	var keyData []Value
	if nk > 0 {
		keyData = make([]Value, npairs*nk)
		for j, c := range vp.orderCols {
			gather(keyData, nk, j, c)
		}
	}
	if sink.top == nil && !sink.distinct {
		// Collect mode: materialize the row headers in one exact-size
		// allocation instead of per-row add calls with append growth. When
		// there is no ORDER BY the keys are never consumed (finish sorts
		// only when desc is non-empty), so they are skipped entirely.
		rows := make([][]Value, npairs)
		for p := range rows {
			rows[p] = data[p*k : (p+1)*k : (p+1)*k]
		}
		sink.rows = append(sink.rows, rows...)
		if nk > 0 {
			krows := make([][]Value, npairs)
			for p := range krows {
				krows[p] = keyData[p*nk : (p+1)*nk : (p+1)*nk]
			}
			sink.keys = append(sink.keys, krows...)
		}
	} else {
		for p := 0; p < npairs; p++ {
			row := data[p*k : (p+1)*k : (p+1)*k]
			var keys []Value
			if nk > 0 {
				keys = keyData[p*nk : (p+1)*nk : (p+1)*nk]
			}
			sink.add(row, keys)
		}
	}
	pq.db.noteBatches(npairs)
	if prof != nil {
		prof.addVec("project", "", "vectorized", npairs, npairs, (npairs+batchSize-1)/batchSize, time.Since(tp))
	}
	return npairs
}

// vecDedup keeps the first pair for each distinct projected row, in order —
// the same first-occurrence rule distinctRows and the top-K seen map apply.
// Fresh slices are returned because r0s may alias the cached selection.
func (pq *planQuery) vecDedup(r0s, r1s []int32, npairs int) ([]int32, []int32, int) {
	vp := pq.vec
	seen := make(map[string]struct{}, npairs)
	keep0 := make([]int32, 0, npairs)
	var keep1 []int32
	if r1s != nil {
		keep1 = make([]int32, 0, npairs)
	}
	var buf []byte
	for p := 0; p < npairs; p++ {
		r0 := p
		if r0s != nil {
			r0 = int(r0s[p])
		}
		r1 := 0
		if r1s != nil {
			r1 = int(r1s[p])
		}
		buf = buf[:0]
		for _, c := range vp.items {
			buf = appendGroupKey(buf, vecCell(vp, c, r0, r1))
		}
		if _, dup := seen[string(buf)]; dup {
			continue
		}
		seen[string(buf)] = struct{}{}
		keep0 = append(keep0, int32(r0))
		if r1s != nil {
			keep1 = append(keep1, int32(r1))
		}
	}
	return keep0, keep1, len(keep0)
}

// aggRun is one aggregate's per-group accumulation state.
type aggRun struct {
	kind   vecAggKind
	strErr error

	counts []int64   // count / sum / avg
	sums   []float64 // sum / avg
	isErr  []bool    // sum / avg: group saw a string value
	bestV  []Value   // min / max
	have   []bool    // min / max
}

// vecEmitGrouped assigns group ids, accumulates every aggregate in scan
// order, then runs the row path's per-group step (emitGroup) for each group
// in first-seen order.
func (pq *planQuery) vecEmitGrouped(outer *rowEnv, prof *Profile, sink *rowSink, r0s, r1s []int32, npairs int) (int, error) {
	vp := pq.vec
	var tg time.Time
	if prof != nil {
		tg = time.Now()
	}

	var gs groupSet

	// Group-id assignment: single all-numeric key uses the open-addressing
	// u64 table on raw float bits (exactly appendGroupKey's identity: ±0
	// distinct, NaN payloads distinct) with NULL as its own group; anything
	// else falls back to type-tagged keys in a Go map.
	var keyCd *colData
	keySrc1 := false
	useU64 := false
	if pq.hasGroupBy && len(vp.groupBy) == 1 {
		gc := vp.groupBy[0]
		keyCd = &vp.cols[gc.src].cols[gc.col]
		keySrc1 = gc.src == 1
		useU64 = keyCd.allNum()
	}
	var u64t u64table
	nullGid := int32(-1)
	var gidx map[string]int32
	var kb []byte
	// Dense small-integer keys skip hashing entirely: group id is an array
	// lookup on (value - min). allInt excludes -0 and NaN, so plain integer
	// identity coincides with appendGroupKey's raw-bits identity. The span
	// gate keeps the table proportionate to the input.
	var dtab []int32
	var dmin int64
	if useU64 && keyCd.allInt {
		if span := keyCd.intMax - keyCd.intMin + 1; span > 0 && span <= 65536 && span <= int64(4*npairs)+1024 {
			dp := getInt32s(int(span))
			defer putInt32s(dp)
			dtab = *dp
			for i := range dtab {
				dtab[i] = -1
			}
			dmin = keyCd.intMin
		}
	}
	if useU64 && dtab == nil {
		// Sized for group cardinality, not row count: insertGrow doubles on
		// demand, so a 2000-row/50-group input pays for ~64 slots, not 4096.
		u64t = newU64Table(32)
	} else if !useU64 && pq.hasGroupBy {
		gidx = make(map[string]int32, 64)
	}

	// Pass 1: assign a group id per pair (scan order = first-seen group
	// order). The ids feed the per-aggregate column passes below; their
	// pooled buffer goes back when this run returns.
	gp := getInt32s(npairs)
	defer putInt32s(gp)
	gids := *gp
	for p := 0; p < npairs; p++ {
		r0 := int32(p)
		if r0s != nil {
			r0 = r0s[p]
		}
		var r1 int32
		if r1s != nil {
			r1 = r1s[p]
		}
		var gid int32
		switch {
		case dtab != nil:
			ri := int(r0)
			if keySrc1 {
				ri = int(r1)
			}
			if keyCd.isNull(ri) {
				if nullGid < 0 {
					nullGid = gs.add(r0, r1)
				}
				gid = nullGid
			} else {
				di := int64(keyCd.nums[ri]) - dmin
				if g := dtab[di]; g >= 0 {
					gid = g
				} else {
					gid = gs.add(r0, r1)
					dtab[di] = gid
				}
			}
		case useU64:
			ri := int(r0)
			if keySrc1 {
				ri = int(r1)
			}
			if keyCd.isNull(ri) {
				if nullGid < 0 {
					nullGid = gs.add(r0, r1)
				}
				gid = nullGid
			} else {
				slot := u64t.insertGrow(math.Float64bits(keyCd.nums[ri]))
				if *slot < 0 {
					*slot = gs.add(r0, r1)
				}
				gid = *slot
			}
		case pq.hasGroupBy:
			kb = kb[:0]
			for _, gc := range vp.groupBy {
				kb = appendGroupKey(kb, vecCell(vp, gc, int(r0), int(r1)))
			}
			g, ok := gidx[string(kb)]
			if !ok {
				g = gs.add(r0, r1)
				gidx[string(kb)] = g
			}
			gid = g
		default:
			if len(gs.sizes) == 0 {
				gs.add(r0, r1)
			}
			gid = 0
		}
		gs.sizes[gid]++
		gids[p] = gid
	}

	if !pq.hasGroupBy && len(gs.sizes) == 0 {
		// Aggregates over empty input still yield one (empty) group.
		gs.add(-1, -1)
	}
	sizes := gs.sizes

	// Pass 2: one tight loop per aggregate over the gid array, with the row
	// selection, NULL bitmap, and kind dispatch hoisted out of the inner loop.
	// Accumulation stays in scan order per aggregate, so float sums are
	// bit-identical to the interleaved order the row path uses. Each
	// aggregate's state is sized once, at the final group count.
	ng := len(sizes)
	aggs := make([]aggRun, len(pq.aggs))
	for ai := range aggs {
		a, ar := &pq.aggs[ai], &aggs[ai]
		ar.kind, ar.strErr = a.kind, a.strErr
		switch a.kind {
		case aggCountStar:
			continue
		case aggCount:
			ar.counts = make([]int64, ng)
		case aggSum, aggAvg:
			ar.counts, ar.sums, ar.isErr = make([]int64, ng), make([]float64, ng), make([]bool, ng)
		case aggMin, aggMax:
			ar.bestV, ar.have = make([]Value, ng), make([]bool, ng)
		}
		cd := &vp.cols[a.col.src].cols[a.col.col]
		src1, fastNum, isMin := a.col.src == 1, cd.allNum(), a.kind == aggMin
		rs := r0s
		if src1 {
			rs = r1s
		}
		direct := rs == nil && !src1 // row index == pair index
		switch {
		case ar.kind == aggCount && direct:
			for p := 0; p < npairs; p++ {
				if !cd.isNull(p) {
					ar.counts[gids[p]]++
				}
			}
		case ar.kind == aggCount && rs != nil:
			for p := 0; p < npairs; p++ {
				if !cd.isNull(int(rs[p])) {
					ar.counts[gids[p]]++
				}
			}
		case (ar.kind == aggSum || ar.kind == aggAvg) && fastNum && direct:
			nums := cd.nums
			for p := 0; p < npairs; p++ {
				if !cd.isNull(p) {
					g := gids[p]
					ar.sums[g] += nums[p]
					ar.counts[g]++
				}
			}
		case (ar.kind == aggSum || ar.kind == aggAvg) && fastNum && rs != nil:
			nums := cd.nums
			for p := 0; p < npairs; p++ {
				ri := int(rs[p])
				if !cd.isNull(ri) {
					g := gids[p]
					ar.sums[g] += nums[ri]
					ar.counts[g]++
				}
			}
		default:
			// Generic per-row accumulation: min/max, mixed-type sum/avg, and
			// the (unreachable without a join) src1-with-nil-selection shape.
			for p := 0; p < npairs; p++ {
				ri := p
				if src1 {
					ri = 0
				}
				if rs != nil {
					ri = int(rs[p])
				}
				if cd.isNull(ri) {
					continue
				}
				gid := gids[p]
				switch ar.kind {
				case aggCount:
					ar.counts[gid]++
				case aggSum, aggAvg:
					if cd.isString(ri) {
						ar.isErr[gid] = true
					} else {
						ar.sums[gid] += cd.nums[ri]
						ar.counts[gid]++
					}
				case aggMin, aggMax:
					v := cd.value(ri)
					if !ar.have[gid] {
						ar.bestV[gid], ar.have[gid] = v, true
					} else if c := Compare(v, ar.bestV[gid]); (isMin && c < 0) || (!isMin && c > 0) {
						ar.bestV[gid] = v
					}
				}
			}
		}
	}
	pq.db.noteBatches(npairs)
	if prof != nil {
		prof.addVec("group", "", "vectorized", npairs, len(sizes), (npairs+batchSize-1)/batchSize, time.Since(tg))
		tg = time.Now()
	}

	// Per group, the row path's output step: the frames bind the group's
	// first pair (none for an empty implicit group), and the compiled
	// aggregates read vg. Nothing keeps an env past the call, so one serves
	// every group.
	vg := &vecGroup{sizes: sizes, aggs: aggs}
	genv := &rowEnv{outer: outer, plan: &planEnv{group: vg}}
	frames := make([]frame, vp.nsrc)
	for i, ps := range pq.sources {
		frames[i] = frame{alias: ps.alias, cols: ps.cols}
	}
	offered := 0
	for g := range sizes {
		vg.g = g
		genv.frames = nil
		if sizes[g] > 0 {
			frames[0].row = vp.tabs[0].Rows[gs.rep0[g]]
			if vp.nsrc == 2 {
				frames[1].row = vp.tabs[1].Rows[gs.rep1[g]]
			}
			genv.frames = frames
		}
		ok, err := pq.emitGroup(genv, sink)
		if err != nil {
			return 0, err
		}
		offered += b2i(ok)
	}
	if prof != nil {
		prof.addVec("project", "", "vectorized", len(sizes), offered, 0, time.Since(tg))
	}
	return offered, nil
}

// groupSet numbers a grouped run's groups in first-seen order: per group,
// its pair count and its first pair (r0, r1).
type groupSet struct {
	sizes      []int64
	rep0, rep1 []int32
}

// add opens a group whose first pair is (r0, r1) and returns its id. It
// stays out of line: inlined at pass 1's call sites, its appends slowed the
// per-pair loop by about a fifth (BenchmarkEngineGroupBy/vectorized).
//
//go:noinline
func (gs *groupSet) add(r0, r1 int32) int32 {
	gs.sizes = append(gs.sizes, 0)
	gs.rep0 = append(gs.rep0, r0)
	gs.rep1 = append(gs.rep1, r1)
	return int32(len(gs.sizes) - 1)
}

// vecGroup is a grouped batch run's accumulated aggregates, positioned at
// group g. A rowEnv whose planEnv carries one is that group's env.
type vecGroup struct {
	g     int
	sizes []int64
	aggs  []aggRun
}

// value returns interned aggregate ai of the current group, as the row
// path's closure would compute it: a sum or avg that saw a string errors
// only when (and if) it is evaluated.
func (vg *vecGroup) value(ai int) (Value, error) {
	g, ar := vg.g, &vg.aggs[ai]
	switch ar.kind {
	case aggCountStar:
		return NumVal(float64(vg.sizes[g])), nil
	case aggCount:
		return NumVal(float64(ar.counts[g])), nil
	case aggSum:
		if ar.isErr[g] {
			return Value{}, ar.strErr
		}
		return NumVal(ar.sums[g]), nil
	case aggAvg:
		if ar.isErr[g] {
			return Value{}, ar.strErr
		}
		if ar.counts[g] == 0 {
			return NullVal(), nil
		}
		return NumVal(ar.sums[g] / float64(ar.counts[g])), nil
	default: // min / max
		if !ar.have[g] {
			return NullVal(), nil
		}
		return ar.bestV[g], nil
	}
}
