// Package engine is an in-memory SQL execution engine: the "database
// connection" substrate the PI2 paper assumes. It executes the difftree ASTs
// produced by the parser directly, covering the full query surface of the
// paper's workloads: cross joins, derived tables, boolean predicates,
// BETWEEN/IN/LIKE, grouping with aggregates, HAVING with correlated scalar
// subqueries, DISTINCT, ORDER BY, LIMIT, and date arithmetic.
package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ColType is the storage type of a column.
type ColType uint8

const (
	// TNum is a numeric column (stored as float64).
	TNum ColType = iota
	// TStr is a string column; ISO dates are stored as strings so that
	// lexicographic comparison matches chronological order.
	TStr
)

func (t ColType) String() string {
	if t == TNum {
		return "num"
	}
	return "str"
}

// Value is a single cell. The zero Value is SQL NULL.
type Value struct {
	Null  bool
	IsStr bool
	Num   float64
	Str   string
}

// Num returns a numeric value.
func NumVal(f float64) Value { return Value{Num: f} }

// StrVal returns a string value.
func StrVal(s string) Value { return Value{IsStr: true, Str: s} }

// NullVal returns SQL NULL.
func NullVal() Value { return Value{Null: true} }

// BoolVal encodes booleans as numeric 0/1 (SQL-ish truthiness).
func BoolVal(b bool) Value {
	if b {
		return Value{Num: 1}
	}
	return Value{Num: 0}
}

// Truthy reports whether the value counts as true in a predicate position.
func (v Value) Truthy() bool {
	if v.Null {
		return false
	}
	if v.IsStr {
		return v.Str != ""
	}
	return v.Num != 0
}

// Text renders the value canonically (used for keys, output, and mixed-type
// comparison).
func (v Value) Text() string {
	switch {
	case v.Null:
		return "NULL"
	case v.IsStr:
		return v.Str
	default:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	}
}

// Compare orders two values: numerics numerically, anything involving a
// string lexicographically by canonical text. NULL sorts before everything.
func Compare(a, b Value) int {
	switch {
	case a.Null && b.Null:
		return 0
	case a.Null:
		return -1
	case b.Null:
		return 1
	}
	if !a.IsStr && !b.IsStr {
		switch {
		case a.Num < b.Num:
			return -1
		case a.Num > b.Num:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a.Text(), b.Text())
}

// EqualVal reports value equality with numeric/string coercion matching
// Compare.
func EqualVal(a, b Value) bool { return !a.Null && !b.Null && Compare(a, b) == 0 }

// Table is a named relation.
type Table struct {
	Name  string
	Cols  []string
	Types []ColType
	Rows  [][]Value
}

// ColIndex returns the index of the (case-insensitive) column, or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Cols {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// Column returns the values of one column.
func (t *Table) Column(i int) []Value {
	out := make([]Value, len(t.Rows))
	for r, row := range t.Rows {
		out[r] = row[i]
	}
	return out
}

// String renders the table for debugging and the REPL.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Cols, " | "))
	b.WriteByte('\n')
	for i, row := range t.Rows {
		if i >= 25 {
			fmt.Fprintf(&b, "... (%d rows total)\n", len(t.Rows))
			break
		}
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.Text()
		}
		b.WriteString(strings.Join(cells, " | "))
		b.WriteByte('\n')
	}
	return b.String()
}

// DB is a collection of tables plus the fixed "current date" used by
// today(); a fixed clock keeps query results (and therefore interface
// generation) deterministic.
//
// Mutation model: tables are immutable snapshots. Add and Append publish a
// new *Table under db.mu and bump that table's generation counter; readers
// holding a previously-published *Table keep a consistent snapshot for as
// long as they like. Per-table generations (TableGen) let caches invalidate
// only what a write actually touched; the global generation (Generation)
// still moves on every mutation for coarse-grained consumers, and the
// table-set fingerprint (TableSetGeneration) moves only when the set of
// table names changes. See live.go for the append path.
type DB struct {
	Tables map[string]*Table
	Now    string // ISO date used by today(); fixed for the DB's lifetime, so Prepare folds today()

	// gen counts all mutations (Add and Append). Coarse consumers (the
	// mapping layer's per-search exec cache) key on it; fine-grained
	// staleness goes through the per-table counters in gens.
	gen atomic.Uint64

	// setGen counts table-set changes only (Add). Plans that referenced a
	// name that failed to resolve depend on it: registering the missing
	// table later must invalidate the memoized "unknown table" plan.
	setGen atomic.Uint64

	// mu guards the Tables map, the gens/inval maps, and the access cache.
	// Mutations hold it for the whole publish; reads (Table, tableRef,
	// access) hold it only for the lookup. Per-table generation *values* are
	// atomics so Plan.Stale can poll them lock-free.
	mu   sync.Mutex
	gens map[string]*atomic.Uint64 // per-table generation, keyed by lowercased name

	// Append state (live.go): the counters behind /metrics.
	inval      map[string]uint64 // per-table invalidations (snapshot replaced)
	appends    atomic.Uint64
	appendRows atomic.Uint64

	// Access-path state (index.go): lazily-built per-table statistics and
	// per-column indexes, keyed by table snapshot pointer, dropped (Add) or
	// handed to the new snapshot (Append) when a snapshot is replaced, plus
	// the build/hit counters and hook behind /metrics.
	acc *accessCache

	idxBuilds  atomic.Uint64
	idxHits    atomic.Uint64
	statBuilds atomic.Uint64
	buildHook  func(kind string, d time.Duration)

	// Columnar-layer counters (colstore.go / vecexec.go): column-storage
	// builds, processed batches, and total rows across batches. batchHook is
	// an atomic pointer because noteBatch sits on the vectorized hot path —
	// the disabled path is two atomic adds and one nil check, no locks.
	colBuilds atomic.Uint64
	batches   atomic.Uint64
	batchRows atomic.Uint64
	batchHook atomic.Pointer[func(rows int)]
}

// ColumnarCounters is a monotonic snapshot of the columnar layer's activity,
// surfaced through /metrics next to IndexCounters.
type ColumnarCounters struct {
	ColumnBuilds uint64 `json:"column_builds"` // per-column storage builds
	Batches      uint64 `json:"batches"`       // vectorized batches processed
	BatchRows    uint64 `json:"batch_rows"`    // total rows across those batches
}

// ColumnarCounters reads the current counter values.
func (db *DB) ColumnarCounters() ColumnarCounters {
	return ColumnarCounters{
		ColumnBuilds: db.colBuilds.Load(),
		Batches:      db.batches.Load(),
		BatchRows:    db.batchRows.Load(),
	}
}

// OnBatch registers fn to observe every vectorized batch with its row count
// (at most batchSize). Register before serving begins; fn runs synchronously
// on the executing goroutine, so it must be cheap and concurrency-safe.
func (db *DB) OnBatch(fn func(rows int)) {
	if fn == nil {
		db.batchHook.Store(nil)
		return
	}
	db.batchHook.Store(&fn)
}

// noteBatch records one processed batch of n rows.
func (db *DB) noteBatch(n int) {
	db.batches.Add(1)
	db.batchRows.Add(uint64(n))
	if fn := db.batchHook.Load(); fn != nil {
		(*fn)(n)
	}
}

// noteBatches records a run of n rows processed as batchSize-row batches.
func (db *DB) noteBatches(n int) {
	for n > batchSize {
		db.noteBatch(batchSize)
		n -= batchSize
	}
	if n > 0 {
		db.noteBatch(n)
	}
}

// NewDB returns an empty database with a fixed clock.
func NewDB(now string) *DB {
	return &DB{Tables: map[string]*Table{}, Now: now}
}

// initLocked lazily creates the mutation-tracking maps, so zero-constructed
// DBs (tests build them with struct literals) work like NewDB ones.
func (db *DB) initLocked() {
	if db.gens == nil {
		db.gens = map[string]*atomic.Uint64{}
	}
	if db.inval == nil {
		db.inval = map[string]uint64{}
	}
}

// bumpLocked records a mutation of the table published under key: the
// per-table and global generations move, and if the write replaced an
// existing snapshot, its access-cache entry (stats, indexes, columnar image)
// leaves the cache — entries for every other table stay warm. An Append
// (appended) hands the entry to the new snapshot, whose rows extend the old
// one's, in O(1): the first use extends it (tableAccess.adopt). An Add drops
// it.
func (db *DB) bumpLocked(key string, old *Table, appended bool) {
	db.initLocked()
	ctr := db.gens[key]
	if ctr == nil {
		ctr = new(atomic.Uint64)
		db.gens[key] = ctr
	}
	ctr.Add(1)
	db.gen.Add(1)
	if old != nil {
		db.inval[key]++
		if ta := db.acc.take(old); ta != nil && appended {
			db.acc.tables[db.Tables[key]] = &tableAccess{parent: ta}
		}
	}
}

// Add registers a table under its lowercased name, bumping its per-table
// generation, the global mutation counter, and the table-set fingerprint.
// Plans and cached results that read the (replaced) name become stale;
// everything else stays valid.
func (db *DB) Add(t *Table) {
	key := strings.ToLower(t.Name)
	db.mu.Lock()
	defer db.mu.Unlock()
	old := db.Tables[key]
	db.Tables[key] = t
	db.bumpLocked(key, old, false)
	db.setGen.Add(1)
}

// Generation returns the global mutation counter. It changes on every Add
// and Append, so callers can cheaply detect "anything changed"; per-table
// staleness goes through TableGen / Plan.Stale.
func (db *DB) Generation() uint64 { return db.gen.Load() }

// TableSetGeneration returns the table-set fingerprint: it changes only when
// Add registers or replaces a name, never on Append.
func (db *DB) TableSetGeneration() uint64 { return db.setGen.Load() }

// TableGen returns the named table's generation counter (0 if the name has
// never been mutated through Add/Append).
func (db *DB) TableGen(name string) uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	if ctr := db.gens[strings.ToLower(name)]; ctr != nil {
		return ctr.Load()
	}
	return 0
}

// Table looks a table up by case-insensitive name. The returned *Table is an
// immutable snapshot: a later Append publishes a new pointer rather than
// mutating this one, so callers may read it without further locking.
func (db *DB) Table(name string) (*Table, bool) {
	key := strings.ToLower(name)
	db.mu.Lock()
	t, ok := db.Tables[key]
	db.mu.Unlock()
	return t, ok
}

// tableRef resolves a name to its current snapshot together with the
// generation it was read at and the live counter behind it — one atomic
// (snapshot, generation) pair, which is what lets Plan.Stale answer "has
// this exact snapshot been superseded" without locks.
func (db *DB) tableRef(name string) (t *Table, ctr *atomic.Uint64, gen uint64, ok bool) {
	key := strings.ToLower(name)
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok = db.Tables[key]
	if !ok {
		return nil, nil, 0, false
	}
	db.initLocked()
	ctr = db.gens[key]
	if ctr == nil { // table written into the map directly, not via Add
		ctr = new(atomic.Uint64)
		db.gens[key] = ctr
	}
	return t, ctr, ctr.Load(), true
}

// TableNames returns the lowercased names of all registered tables, sorted.
func (db *DB) TableNames() []string {
	db.mu.Lock()
	names := make([]string, 0, len(db.Tables))
	for name := range db.Tables {
		names = append(names, name)
	}
	db.mu.Unlock()
	sort.Strings(names)
	return names
}

// InvalidationCount returns how many times the named table's snapshot (and
// with it the table's cached stats/indexes/columnar image) was replaced.
func (db *DB) InvalidationCount(name string) uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.inval[strings.ToLower(name)]
}
