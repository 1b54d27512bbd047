package engine

import (
	"fmt"
	"strings"
)

// Live data: the append path.
//
// Append is copy-on-write over immutable snapshots: it builds a new *Table
// whose Rows slice extends the old one and publishes it under db.mu. The
// new slice may share the old backing array (appending into spare capacity
// writes only indexes >= the old length, which no reader of the old snapshot
// ever touches), so concurrent Plan.Exec / interpreter runs against the
// previous snapshot are race-free by construction — there is no row-level
// locking anywhere in the engine.
//
// Concurrency contract: any number of concurrent readers; writers (Add,
// Append) are serialized internally by db.mu, so concurrent writers are
// safe too, but the system is designed for a single logical writer (one
// ingest tailer or HTTP ingest handler) — ordering between concurrent
// writers is whatever the mutex arbitration yields. The append-churn race
// tests pin the reader/writer interleavings.

// Append adds rows to the named table, publishing a new snapshot. Every row
// must have exactly one value per column; rows are shared with the table
// (callers must not mutate them afterwards). Appending zero rows is a no-op.
func (db *DB) Append(table string, rows [][]Value) error {
	if len(rows) == 0 {
		return nil
	}
	key := strings.ToLower(table)
	db.mu.Lock()
	defer db.mu.Unlock()
	old, ok := db.Tables[key]
	if !ok {
		return fmt.Errorf("engine: append to unknown table %q", table)
	}
	for i, row := range rows {
		if len(row) != len(old.Cols) {
			return fmt.Errorf("engine: append row %d has %d values, table %q has %d columns",
				i, len(row), old.Name, len(old.Cols))
		}
	}
	nt := &Table{Name: old.Name, Cols: old.Cols, Types: old.Types, Rows: append(old.Rows, rows...)}
	db.Tables[key] = nt
	db.bumpLocked(key, old, true)
	db.appends.Add(1)
	db.appendRows.Add(uint64(len(rows)))
	return nil
}

// ChangelogDepth always returns 0: the engine keeps no changelog, so rows
// appended to a snapshot live only as long as that snapshot is reachable.
// The per-table generation counters carry the whole invalidation contract.
// Kept for callers that report the depth.
func (db *DB) ChangelogDepth() int { return 0 }

// AppendCounters is a monotonic snapshot of the append path's activity,
// surfaced through /metrics next to IndexCounters and ColumnarCounters.
type AppendCounters struct {
	Appends       uint64 `json:"appends"`       // committed Append batches
	Rows          uint64 `json:"rows"`          // total rows across those batches
	Invalidations uint64 `json:"invalidations"` // table snapshots replaced (all tables)
}

// AppendCounters reads the current counter values.
func (db *DB) AppendCounters() AppendCounters {
	db.mu.Lock()
	var inv uint64
	for _, n := range db.inval {
		inv += n
	}
	db.mu.Unlock()
	return AppendCounters{
		Appends:       db.appends.Load(),
		Rows:          db.appendRows.Load(),
		Invalidations: inv,
	}
}
