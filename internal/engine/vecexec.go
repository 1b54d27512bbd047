package engine

import (
	"math"
	"time"
)

// The vectorized execution path: runtime half. runVec executes a compiled
// vecPlan over columnar storage (colstore.go) and feeds the same rowSink the
// row pipeline feeds, so DISTINCT/ORDER BY/LIMIT and the top-K heap are
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
// base tables, so they are computed once per plan and shared by concurrent
// Execs (vecState), mirroring scanState. Errors cannot occur before output:
// every pushed predicate is a proven-pure shape. Grouped output replays the
// row path's per-group evaluation order — HAVING, then select items, then
// order keys — so aggregate type errors surface for exactly the same group
// in exactly the same order.

// runVec executes the vectorized plan into sink, returning the number of
// rows offered (the row path's `offered` counter).
func (pq *planQuery) runVec(outer *rowEnv, prof *Profile, sink *rowSink) (int, error) {
	vp := pq.vec
	vs := pq.vecst

	// 1. Scans: compute (or reuse) the per-source selection vectors.
	freshScan := false
	vs.selOnce.Do(func() {
		freshScan = true
		vs.sel = make([][]int32, vp.nsrc)
		vs.selDur = make([]time.Duration, vp.nsrc)
		vs.selBatches = make([]int, vp.nsrc)
		for i := 0; i < vp.nsrc; i++ {
			if len(vp.scanPreds[i]) == 0 {
				continue
			}
			t0 := time.Now()
			vs.sel[i], vs.selBatches[i] = pq.vecSelect(i)
			vs.selDur[i] = time.Since(t0)
		}
	})
	if prof != nil {
		for i := 0; i < vp.nsrc; i++ {
			in := vp.cols[i].rows
			out, path := in, "vectorized"
			var d time.Duration
			batches := 0
			if len(vp.scanPreds[i]) > 0 {
				out = len(vs.sel[i])
				path = "vectorized-filter"
				if pq.vecIndexed(i) {
					// The index names the access path, as on the row path;
					// the batch count says the columnar filter ran.
					path = pq.pipe.access[i].path()
				}
				if freshScan {
					d = vs.selDur[i]
					batches = vs.selBatches[i]
				}
			}
			prof.addVec("scan", pq.sources[i].alias, path, in, out, batches, d)
		}
	}

	// 2. Pairs: the surviving (r0, r1) combinations in nested-loop order.
	// For a single source r1s stays nil; r0s == nil means the identity
	// selection (no pushed predicates).
	r0s := vs.sel[0]
	var r1s []int32
	npairs := len(r0s)
	if r0s == nil {
		npairs = vp.cols[0].rows
	}
	if vp.nsrc == 2 {
		var err error
		r0s, r1s, err = pq.vecJoin(prof)
		if err != nil {
			return 0, err
		}
		npairs = len(r0s)
	}

	// 3. Output.
	if !vp.grouped {
		return pq.vecEmit(prof, sink, r0s, r1s, npairs), nil
	}
	return pq.vecEmitGrouped(outer, prof, sink, r0s, r1s, npairs)
}

// vecSelect computes source i's selection vector of rows surviving every
// pushed predicate, processing its rows in batchSize chunks: each batch is
// filled with the next row ids — the identity sequence, or the candidates of
// the index the chooser picked (ascending, a superset of the matches) — and
// each predicate then compacts it in place. Candidates are copied into the
// batch, since an equality probe hands out the hash index's shared bucket,
// and every pushed predicate, the one the index served included, re-checks
// them, so the index can only narrow the scan, never change its result.
// It also returns the number of batches run.
func (pq *planQuery) vecSelect(i int) ([]int32, int) {
	tc, preds := pq.vec.cols[i], pq.vec.scanPreds[i]
	n, outCap := tc.rows, tc.rows/2+1
	var cands []int
	seeded := pq.vecIndexed(i)
	if seeded {
		// The candidates bound the selection, so one allocation holds it.
		cands = pq.indexRows(i, pq.vec.tabs[i])
		n, outCap = len(cands), len(cands)
	}
	out := make([]int32, 0, outCap)
	var buf [batchSize]int32
	batches := 0
	for base := 0; base < n; base += batchSize {
		sel := buf[:min(batchSize, n-base)]
		if seeded {
			for k := range sel {
				sel[k] = int32(cands[base+k])
			}
		} else {
			for k := range sel {
				sel[k] = int32(base + k)
			}
		}
		m := len(sel)
		for k := range preds {
			if len(sel) == 0 {
				break
			}
			sel = preds[k].filterSel(tc, sel)
		}
		out = append(out, sel...)
		pq.db.noteBatch(m)
		batches++
	}
	return out, batches
}

// vecIndexed reports whether source i's selection is seeded from the index
// the cost chooser picked for it.
func (pq *planQuery) vecIndexed(i int) bool {
	return pq.pipe != nil && pq.pipe.access[i].mode != accessFull
}

// filterSel keeps the rows of sel that satisfy the predicate, compacting in
// place. NULL handling is uniform: a NULL operand makes the predicate NULL,
// and NULL is not truthy, so the row drops — the same three-valued outcome
// the row path's compiled closures produce. The NaN branches reproduce
// Compare's "NaN equals every number" degeneracy bit for bit.
func (p *vecPred) filterSel(tc *tableCols, sel []int32) []int32 {
	cd := &tc.cols[p.col]
	j := 0
	switch p.kind {
	case predCmpLit:
		switch p.fast {
		case fastNum:
			lit := p.lit.Num
			for _, i := range sel {
				ii := int(i)
				if cd.isNull(ii) {
					continue
				}
				v := cd.nums[ii]
				var keep bool
				if v != v { // NaN: Compare(NaN, x) == 0 for every number x
					keep = p.op == vecEq || p.op == vecLe || p.op == vecGe
				} else {
					switch p.op {
					case vecEq:
						keep = v == lit
					case vecNe:
						keep = v != lit
					case vecLt:
						keep = v < lit
					case vecLe:
						keep = v <= lit
					case vecGt:
						keep = v > lit
					default:
						keep = v >= lit
					}
				}
				if keep {
					sel[j] = i
					j++
				}
			}
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
		case fastNum:
			lo, hi := p.lo.Num, p.hi.Num
			for _, i := range sel {
				ii := int(i)
				if cd.isNull(ii) {
					continue
				}
				v := cd.nums[ii]
				// NaN keeps: v < lo and v > hi are both false, matching
				// Compare(NaN, bound) == 0 on both ends.
				if v < lo || v > hi {
					continue
				}
				sel[j] = i
				j++
			}
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
func (pq *planQuery) vecJoin(prof *Profile) ([]int32, []int32, error) {
	vp := pq.vec
	vs := pq.vecst
	db := pq.db
	tc0, tc1 := vp.cols[0], vp.cols[1]
	sel0, sel1 := vs.sel[0], vs.sel[1]
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
	r0s := make([]int32, 0, n0)
	r1s := make([]int32, 0, n0)
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
		return r0s, r1s, nil
	}

	// Hash join: build over source 1, probe with source 0 in selection order.
	var numH *numHashIndex
	var strH *strHashIndex
	buildPath := ""
	if sel1 == nil {
		// No pushed predicates on the build side: reuse the DB-cached
		// whole-column hash (cold on first use, then shared across plans).
		var tb time.Time
		if prof != nil {
			tb = time.Now()
		}
		if vp.keyNum {
			numH = db.numHashFor(vp.tabs[1], vp.key1)
		} else {
			strH = db.strHashFor(vp.tabs[1], vp.key1)
		}
		buildPath = "columnar(" + pq.sources[1].cols[vp.key1] + ")"
		if prof != nil {
			nb := len(numBuckets(numH, strH))
			prof.addVec("hash-build", pq.sources[1].alias, buildPath, n1, nb, 0, time.Since(tb))
		}
	} else {
		freshBuild := false
		vs.buildOnce.Do(func() {
			freshBuild = true
			t0 := time.Now()
			if vp.keyNum {
				vs.numBuild = buildNumHash(&tc1.cols[vp.key1], sel1, tc1.rows)
			} else {
				vs.strBuild = buildStrHash(&tc1.cols[vp.key1], sel1, tc1.rows)
			}
			vs.buildDur = time.Since(t0)
			db.noteBatches(len(sel1))
		})
		numH, strH = vs.numBuild, vs.strBuild
		if prof != nil {
			var d time.Duration
			if freshBuild {
				d = vs.buildDur
			}
			prof.addVec("hash-build", pq.sources[1].alias, "vectorized", n1, len(numBuckets(numH, strH)), 0, d)
		}
	}

	cd0 := &tc0.cols[vp.key0]
	if vp.keyNum {
		for k0 := 0; k0 < n0; k0++ {
			r0 := int32(k0)
			if sel0 != nil {
				r0 = sel0[k0]
			}
			ii := int(r0)
			if cd0.isNull(ii) {
				continue // NULL key matches nothing
			}
			bi := numH.tab.find(joinKeyBits(cd0.nums[ii]))
			if bi < 0 {
				continue
			}
			for _, r1 := range numH.buckets[bi] {
				emit(r0, r1)
			}
		}
	} else {
		for k0 := 0; k0 < n0; k0++ {
			r0 := int32(k0)
			if sel0 != nil {
				r0 = sel0[k0]
			}
			ii := int(r0)
			if cd0.isNull(ii) {
				continue
			}
			bi, ok := strH.idx[cd0.strs[ii]]
			if !ok {
				continue
			}
			for _, r1 := range strH.buckets[bi] {
				emit(r0, r1)
			}
		}
	}
	db.noteBatches(n0)
	if prof != nil {
		detail := "vectorized hash build=" + pq.sources[1].alias
		prof.addVec("join", detail, buildPath, n0+n1, len(r0s), (n0+batchSize-1)/batchSize, time.Since(tj))
	}
	return r0s, r1s, nil
}

// numBuckets counts the buckets of whichever hash exists.
func numBuckets(numH *numHashIndex, strH *strHashIndex) [][]int32 {
	if numH != nil {
		return numH.buckets
	}
	return strH.buckets
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
	kind    vecAggKind
	cd      *colData
	src1    bool
	fastNum bool
	min     bool
	strErr  error

	counts []int64   // count / sum / avg
	sums   []float64 // sum / avg
	isErr  []bool    // sum / avg: group saw a string value
	bestV  []Value   // min / max
	have   []bool    // min / max
}

// vecEmitGrouped assigns group ids, accumulates every aggregate in scan
// order, then replays the row path's per-group evaluation: HAVING, select
// items, order keys — surfacing errors for the same group at the same point.
func (pq *planQuery) vecEmitGrouped(outer *rowEnv, prof *Profile, sink *rowSink, r0s, r1s []int32, npairs int) (int, error) {
	vp := pq.vec
	var tg time.Time
	if prof != nil {
		tg = time.Now()
	}

	aggs := make([]aggRun, len(vp.aggs))
	for i := range vp.aggs {
		a := &vp.aggs[i]
		ar := &aggs[i]
		ar.kind = a.kind
		ar.strErr = a.strErr
		ar.min = a.kind == aggMin
		if a.kind != aggCountStar {
			ar.cd = &vp.cols[a.col.src].cols[a.col.col]
			ar.src1 = a.col.src == 1
			ar.fastNum = ar.cd.allNum()
		}
	}

	var sizes []int64
	var rep0, rep1 []int32
	newGroup := func(r0, r1 int32) int32 {
		gid := int32(len(sizes))
		sizes = append(sizes, 0)
		rep0 = append(rep0, r0)
		rep1 = append(rep1, r1)
		for ai := range aggs {
			ar := &aggs[ai]
			switch ar.kind {
			case aggCount:
				ar.counts = append(ar.counts, 0)
			case aggSum, aggAvg:
				ar.counts = append(ar.counts, 0)
				ar.sums = append(ar.sums, 0)
				ar.isErr = append(ar.isErr, false)
			case aggMin, aggMax:
				ar.bestV = append(ar.bestV, Value{})
				ar.have = append(ar.have, false)
			}
		}
		return gid
	}

	// Group-id assignment: single all-numeric key uses the open-addressing
	// u64 table on raw float bits (exactly appendGroupKey's identity: ±0
	// distinct, NaN payloads distinct) with NULL as its own group; anything
	// else falls back to type-tagged keys in a Go map.
	var keyCd *colData
	keySrc1 := false
	useU64 := false
	if vp.hasGroupBy && len(vp.groupBy) == 1 {
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
			dtab = make([]int32, span)
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
	} else if !useU64 && vp.hasGroupBy {
		gidx = make(map[string]int32, 64)
	}

	// Pass 1: assign a group id per pair (scan order = first-seen group
	// order). The ids feed the per-aggregate column passes below.
	gids := make([]int32, npairs)
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
					nullGid = newGroup(r0, r1)
				}
				gid = nullGid
			} else {
				di := int64(keyCd.nums[ri]) - dmin
				if g := dtab[di]; g >= 0 {
					gid = g
				} else {
					gid = newGroup(r0, r1)
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
					nullGid = newGroup(r0, r1)
				}
				gid = nullGid
			} else {
				slot := u64t.insertGrow(math.Float64bits(keyCd.nums[ri]))
				if *slot < 0 {
					*slot = newGroup(r0, r1)
				}
				gid = *slot
			}
		case vp.hasGroupBy:
			kb = kb[:0]
			for _, gc := range vp.groupBy {
				kb = appendGroupKey(kb, vecCell(vp, gc, int(r0), int(r1)))
			}
			g, ok := gidx[string(kb)]
			if !ok {
				g = newGroup(r0, r1)
				gidx[string(kb)] = g
			}
			gid = g
		default:
			if len(sizes) == 0 {
				newGroup(r0, r1)
			}
			gid = 0
		}
		sizes[gid]++
		gids[p] = gid
	}

	// Pass 2: one tight loop per aggregate over the gid array, with the row
	// selection, NULL bitmap, and kind dispatch hoisted out of the inner loop.
	// Accumulation stays in scan order per aggregate, so float sums are
	// bit-identical to the interleaved order the row path uses.
	for ai := range aggs {
		ar := &aggs[ai]
		if ar.kind == aggCountStar {
			continue
		}
		cd := ar.cd
		rs := r0s
		if ar.src1 {
			rs = r1s
		}
		direct := rs == nil && !ar.src1 // row index == pair index
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
		case (ar.kind == aggSum || ar.kind == aggAvg) && ar.fastNum && direct:
			nums := cd.nums
			for p := 0; p < npairs; p++ {
				if !cd.isNull(p) {
					g := gids[p]
					ar.sums[g] += nums[p]
					ar.counts[g]++
				}
			}
		case (ar.kind == aggSum || ar.kind == aggAvg) && ar.fastNum && rs != nil:
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
				if ar.src1 {
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
					} else if c := Compare(v, ar.bestV[gid]); (ar.min && c < 0) || (!ar.min && c > 0) {
						ar.bestV[gid] = v
					}
				}
			}
		}
	}
	if !vp.hasGroupBy && len(sizes) == 0 {
		// Aggregates over empty input still yield one (empty) group.
		newGroup(-1, -1)
	}
	pq.db.noteBatches(npairs)
	if prof != nil {
		prof.addVec("group", "", "vectorized", npairs, len(sizes), (npairs+batchSize-1)/batchSize, time.Since(tg))
		tg = time.Now()
	}

	gr := &groupRun{sizes: sizes, rep0: rep0, rep1: rep1, aggs: aggs}
	offered := 0
	for g := range sizes {
		if vp.gHaving != nil {
			l, err := pq.gEval(&vp.gHaving.l, g, gr, outer)
			if err != nil {
				return 0, err
			}
			if vp.gHaving.cmp {
				r, err := pq.gEval(&vp.gHaving.r, g, gr, outer)
				if err != nil {
					return 0, err
				}
				var hv Value
				if l.Null || r.Null {
					hv = NullVal()
				} else {
					hv = BoolVal(cmpTest(vp.gHaving.op, Compare(l, r)))
				}
				if !hv.Truthy() {
					continue
				}
			} else if !l.Truthy() {
				continue
			}
		}
		row := make([]Value, len(vp.gItems))
		for i := range vp.gItems {
			v, err := pq.gEval(&vp.gItems[i], g, gr, outer)
			if err != nil {
				return 0, err
			}
			row[i] = v
		}
		var keys []Value
		if len(vp.gOrder) > 0 {
			keys = make([]Value, len(vp.gOrder))
			for i := range vp.gOrder {
				v, err := pq.gEval(&vp.gOrder[i], g, gr, outer)
				if err != nil {
					return 0, err
				}
				keys[i] = v
			}
		}
		sink.add(row, keys)
		offered++
	}
	if prof != nil {
		prof.addVec("project", "", "vectorized", len(sizes), offered, 0, time.Since(tg))
	}
	return offered, nil
}

// groupRun bundles the grouped accumulation state for gEval.
type groupRun struct {
	sizes      []int64
	rep0, rep1 []int32
	aggs       []aggRun
}

// gEval evaluates one grouped-context atom for group g, matching the row
// path's per-group closures: bare columns read the group's first row; in an
// empty implicit group the lookup falls through to the outer scope and then
// errors with the interpreter's "unknown column"; aggregate type errors
// surface only when (and if) the aggregate is actually evaluated.
func (pq *planQuery) gEval(e *gExpr, g int, gr *groupRun, outer *rowEnv) (Value, error) {
	vp := pq.vec
	switch e.kind {
	case gLit:
		return e.lit, nil
	case gCol:
		if gr.sizes[g] == 0 {
			if outer != nil {
				if v, ok := outer.lookupLower(e.lower); ok {
					return v, nil
				}
			}
			return Value{}, e.errUnknown
		}
		ri := int(gr.rep0[g])
		if e.col.src == 1 {
			ri = int(gr.rep1[g])
		}
		return vp.cols[e.col.src].cols[e.col.col].value(ri), nil
	default:
		ar := &gr.aggs[e.agg]
		switch ar.kind {
		case aggCountStar:
			return NumVal(float64(gr.sizes[g])), nil
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
}
