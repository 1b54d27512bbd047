package engine

import "sort"

// This file implements the output sink the row and columnar paths share.

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
