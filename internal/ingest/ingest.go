// Package ingest loads external datasets and SQL query logs so interfaces
// can be generated for databases that do not ship with the repository. The
// PI2 paper's premise is that generation needs only a query log, a database
// connection and the catalogue; this package supplies all three from plain
// files: tabular data (CSV, TSV, newline-delimited JSON, each optionally
// gzip-compressed) is materialized into engine.DB tables with per-column
// type inference, an optional JSON manifest declares table names, primary
// keys and type overrides, and a query-log file is parsed and validated
// against the ingested catalogue with line-anchored errors.
package ingest

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"pi2/internal/engine"
)

// DefaultNow is the fixed "current date" an ingested database uses for
// today() when the manifest does not declare one. A fixed clock keeps
// interface generation deterministic, exactly as internal/dataset does.
const DefaultNow = "2020-12-31"

// Format identifies the on-disk layout of one data file.
type Format uint8

const (
	// FormatCSV is comma-separated values with a header row; quoting per
	// RFC 4180 (embedded separators, quotes and newlines).
	FormatCSV Format = iota
	// FormatTSV is tab-separated values with a header row.
	FormatTSV
	// FormatNDJSON is newline-delimited JSON: one flat object per line.
	FormatNDJSON
)

func (f Format) String() string {
	switch f {
	case FormatCSV:
		return "csv"
	case FormatTSV:
		return "tsv"
	default:
		return "ndjson"
	}
}

// DetectFormat maps a file name to its format by extension, looking through
// a trailing ".gz". ok is false for unrecognized extensions.
func DetectFormat(path string) (Format, bool) {
	base := strings.TrimSuffix(filepath.Base(path), ".gz")
	switch strings.ToLower(filepath.Ext(base)) {
	case ".csv":
		return FormatCSV, true
	case ".tsv", ".tab":
		return FormatTSV, true
	case ".json", ".ndjson", ".jsonl":
		return FormatNDJSON, true
	}
	return FormatCSV, false
}

// TableStem is the default table name for a data file: the base name with
// compression and format extensions removed, sanitized to an identifier.
func TableStem(path string) string {
	base := strings.TrimSuffix(filepath.Base(path), ".gz")
	stem := strings.TrimSuffix(base, filepath.Ext(base))
	var b strings.Builder
	for i := 0; i < len(stem); i++ {
		c := stem[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if b.Len() == 0 {
				b.WriteByte('t')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Result is an ingested database plus everything downstream layers need:
// the primary keys for catalogue functional-dependency inference and a
// per-table ingestion report.
type Result struct {
	DB     *engine.DB
	Keys   map[string][]string
	Tables []*TableReport
}

// Load materializes every data file into one database. The manifest (may be
// nil) contributes table names, keys, type overrides and the clock.
func Load(paths []string, m *Manifest) (*Result, error) {
	res, _, err := LoadFollowing(paths, m, nil)
	return res, err
}

// LoadFollowing is Load for a live deployment: paths listed in follow are
// loaded via LoadFollow — only their complete-record prefix is ingested, so
// a producer mid-write cannot poison the initial load — and a ready Tailer
// is returned for each (in follow order), resuming at the exact byte offset
// the load consumed. Every follow path must also appear in paths.
func LoadFollowing(paths []string, m *Manifest, follow []string) (*Result, []*Tailer, error) {
	followSet := map[string]bool{}
	for _, p := range follow {
		ok := false
		for _, q := range paths {
			if q == p {
				ok = true
				break
			}
		}
		if !ok {
			return nil, nil, fmt.Errorf("ingest: follow file %s is not among the data files", p)
		}
		followSet[p] = true
	}
	now := DefaultNow
	if m != nil && m.Now != "" {
		now = m.Now
	}
	res := &Result{DB: engine.NewDB(now), Keys: map[string][]string{}}
	tailerFor := map[string]*Tailer{}
	matched := map[*TableManifest]bool{}
	for _, path := range paths {
		tm := m.forFile(path)
		matched[tm] = true
		var tbl *engine.Table
		var rep *TableReport
		var err error
		if followSet[path] {
			var off int64
			tbl, rep, off, err = LoadFollow(path, tm)
			if err != nil {
				return nil, nil, err
			}
			format, _ := DetectFormat(path)
			tailerFor[path] = NewTailer(res.DB, tbl.Name, path, format, off)
		} else {
			tbl, rep, err = LoadTable(path, tm)
			if err != nil {
				return nil, nil, err
			}
		}
		if _, dup := res.DB.Table(tbl.Name); dup {
			return nil, nil, fmt.Errorf("ingest: %s: duplicate table name %q", path, tbl.Name)
		}
		res.DB.Add(tbl)
		res.Tables = append(res.Tables, rep)
		if tm != nil && len(tm.Keys) > 0 {
			for _, k := range tm.Keys {
				if tbl.ColIndex(k) < 0 {
					return nil, nil, fmt.Errorf("ingest: %s: manifest key column %q not in table %q", path, k, tbl.Name)
				}
			}
			res.Keys[tbl.Name] = append([]string(nil), tm.Keys...)
		}
	}
	if len(res.Tables) == 0 {
		return nil, nil, fmt.Errorf("ingest: no data files given")
	}
	// a manifest entry matching no data file is almost certainly a typo;
	// silently dropping its keys and type overrides would corrupt the
	// schema without a trace, so fail loudly (mirrors ReadManifest's
	// unknown-field rejection).
	if m != nil {
		for i := range m.Tables {
			if !matched[&m.Tables[i]] {
				return nil, nil, fmt.Errorf("ingest: manifest entry %q matches none of the data files", m.Tables[i].File)
			}
		}
	}
	tailers := make([]*Tailer, len(follow))
	for i, p := range follow {
		tailers[i] = tailerFor[p]
	}
	return res, tailers, nil
}

// LoadAll is the one-call facade behind pi2.GeneratorFromFiles and the
// CLIs: ingest the data files (with optional manifest), parse the query
// log, and validate every statement against the ingested tables.
func LoadAll(dataPaths []string, queryLogPath, manifestPath string) (*Result, []Statement, error) {
	res, stmts, _, err := LoadAllFollowing(dataPaths, queryLogPath, manifestPath, nil)
	return res, stmts, err
}

// LoadAllFollowing is LoadAll with a follow set: the listed data files are
// ingested complete-records-only and returned as ready Tailers for live
// serving (see LoadFollowing).
func LoadAllFollowing(dataPaths []string, queryLogPath, manifestPath string, follow []string) (*Result, []Statement, []*Tailer, error) {
	var m *Manifest
	if manifestPath != "" {
		var err error
		m, err = ReadManifest(manifestPath)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	res, tailers, err := LoadFollowing(dataPaths, m, follow)
	if err != nil {
		return nil, nil, nil, err
	}
	stmts, err := ReadLog(queryLogPath)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := Validate(stmts, res.DB, queryLogPath); err != nil {
		return nil, nil, nil, err
	}
	return res, stmts, tailers, nil
}

// SplitList splits a comma-separated CLI path list, dropping empty
// segments so a trailing or doubled comma doesn't surface as a cryptic
// "unrecognized extension" error for a blank filename.
func SplitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// LoadTable ingests one data file. The manifest entry (may be nil) renames
// the table and overrides inferred column types.
func LoadTable(path string, tm *TableManifest) (*engine.Table, *TableReport, error) {
	format, ok := DetectFormat(path)
	if !ok {
		return nil, nil, fmt.Errorf("ingest: %s: unrecognized extension (want .csv, .tsv, .json/.ndjson/.jsonl, optionally .gz)", path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: %w", err)
	}
	defer f.Close()
	name := TableStem(path)
	if tm != nil && tm.Name != "" {
		name = tm.Name
	}
	if name == "" {
		return nil, nil, fmt.Errorf("ingest: %s: cannot derive a table name; declare one in the manifest", path)
	}
	tbl, rep, err := ReadTable(f, name, format, tm)
	if err != nil {
		return nil, nil, fmt.Errorf("ingest: %s: %w", path, err)
	}
	rep.File = path
	return tbl, rep, nil
}

// ReadTable ingests one table from a stream (gzip detected transparently by
// magic bytes). It reads the input exactly once, inferring column types as
// rows stream in, then materializes typed engine values.
func ReadTable(r io.Reader, name string, format Format, tm *TableManifest) (*engine.Table, *TableReport, error) {
	in, err := sniffGzip(r)
	if err != nil {
		return nil, nil, err
	}
	var raw *rawTable
	switch format {
	case FormatCSV:
		raw, err = readSeparated(in, ',')
	case FormatTSV:
		raw, err = readSeparated(in, '\t')
	case FormatNDJSON:
		raw, err = readNDJSON(in)
	default:
		return nil, nil, fmt.Errorf("unknown format %v", format)
	}
	if err != nil {
		return nil, nil, err
	}
	return raw.materialize(name, tm)
}

// sniffGzip wraps the stream in a gzip reader when the gzip magic bytes
// lead, and is a no-op otherwise.
func sniffGzip(r io.Reader) (io.Reader, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(2)
	if err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("gzip: %w", err)
		}
		return zr, nil
	}
	return br, nil
}
