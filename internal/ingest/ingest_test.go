package ingest

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pi2/internal/engine"
)

func readCSV(t *testing.T, src string, tm *TableManifest) (*engine.Table, *TableReport) {
	t.Helper()
	tbl, rep, err := ReadTable(strings.NewReader(src), "t", FormatCSV, tm)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, rep
}

func TestInferIntFloatStr(t *testing.T) {
	tbl, rep := readCSV(t, "a,b,c,d\n1,1.5,x,2020-01-01\n2,2,y,2020-01-02\n", nil)
	wantTypes := []engine.ColType{engine.TNum, engine.TNum, engine.TStr, engine.TStr}
	for i, want := range wantTypes {
		if tbl.Types[i] != want {
			t.Errorf("col %s type = %v, want %v", tbl.Cols[i], tbl.Types[i], want)
		}
	}
	wantKinds := []ColKind{ColInt, ColFloat, ColStr, ColStr}
	for i, want := range wantKinds {
		if rep.Columns[i].Kind != want {
			t.Errorf("col %s kind = %v, want %v", tbl.Cols[i], rep.Columns[i].Kind, want)
		}
	}
	if tbl.Rows[0][1].Num != 1.5 || tbl.Rows[1][0].Num != 2 {
		t.Errorf("numeric cells mis-parsed: %v", tbl.Rows)
	}
}

// A single non-numeric cell flips the whole column to str, and the numeric
// cells keep their literal text.
func TestMixedColumnBecomesStr(t *testing.T) {
	tbl, rep := readCSV(t, "a\n1\n2\noops\n", nil)
	if tbl.Types[0] != engine.TStr || rep.Columns[0].Kind != ColStr {
		t.Fatalf("mixed column = %v/%v, want str", tbl.Types[0], rep.Columns[0].Kind)
	}
	if tbl.Rows[0][0].Str != "1" {
		t.Errorf("numeric text = %q, want \"1\"", tbl.Rows[0][0].Str)
	}
}

func TestEmptyFieldsAreNull(t *testing.T) {
	tbl, rep := readCSV(t, "a,b\n1,\n,x\n", nil)
	if !tbl.Rows[0][1].Null || !tbl.Rows[1][0].Null {
		t.Fatalf("empty fields not NULL: %v", tbl.Rows)
	}
	// nulls don't demote the column type
	if tbl.Types[0] != engine.TNum {
		t.Errorf("col a with nulls = %v, want num", tbl.Types[0])
	}
	if rep.Columns[0].Nulls != 1 || rep.Columns[1].Nulls != 1 {
		t.Errorf("null counts = %+v, want 1 each", rep.Columns)
	}
}

func TestAllNullColumnDefaultsToStr(t *testing.T) {
	tbl, _ := readCSV(t, "a,b\n,1\n,2\n", nil)
	if tbl.Types[0] != engine.TStr {
		t.Errorf("all-null column = %v, want str", tbl.Types[0])
	}
}

func TestQuotedSeparatorsAndQuotes(t *testing.T) {
	tbl, _ := readCSV(t, "name,score\n\"Doe, Jane\",5\n\"say \"\"hi\"\"\",6\n", nil)
	if got := tbl.Rows[0][0].Str; got != "Doe, Jane" {
		t.Errorf("quoted comma field = %q", got)
	}
	if got := tbl.Rows[1][0].Str; got != `say "hi"` {
		t.Errorf("escaped quote field = %q", got)
	}
	if tbl.Types[1] != engine.TNum {
		t.Errorf("score type = %v, want num", tbl.Types[1])
	}
}

// Quoted numeric text is still numeric — CSV quoting is transport, not
// typing (unlike JSON, where strings stay strings).
func TestQuotedNumbersStayNumeric(t *testing.T) {
	tbl, _ := readCSV(t, "a\n\"1\"\n\"2\"\n", nil)
	if tbl.Types[0] != engine.TNum {
		t.Errorf("quoted digits column = %v, want num", tbl.Types[0])
	}
}

func TestNaNInfUnderscoreAreStrings(t *testing.T) {
	tbl, _ := readCSV(t, "a,b,c\nNaN,Inf,1_000\n", nil)
	for i := range tbl.Cols {
		if tbl.Types[i] != engine.TStr {
			t.Errorf("col %s = %v, want str", tbl.Cols[i], tbl.Types[i])
		}
	}
}

func TestHeaderValidation(t *testing.T) {
	if _, _, err := ReadTable(strings.NewReader("a,,c\n1,2,3\n"), "t", FormatCSV, nil); err == nil {
		t.Error("empty column name accepted")
	}
	if _, _, err := ReadTable(strings.NewReader("a,A\n1,2\n"), "t", FormatCSV, nil); err == nil {
		t.Error("case-insensitive duplicate column accepted")
	}
	if _, _, err := ReadTable(strings.NewReader(""), "t", FormatCSV, nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestRaggedRowIsPositionedError(t *testing.T) {
	_, _, err := ReadTable(strings.NewReader("a,b\n1,2\n3\n"), "t", FormatCSV, nil)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("ragged row error = %v, want line 3 position", err)
	}
}

func TestGzipTransparent(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte("a,b\n1,x\n2,y\n")); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	tbl, _, err := ReadTable(&buf, "t", FormatCSV, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 || tbl.Types[0] != engine.TNum || tbl.Types[1] != engine.TStr {
		t.Errorf("gzip round trip: %+v", tbl)
	}
}

func TestTSV(t *testing.T) {
	tbl, _, err := ReadTable(strings.NewReader("a\tb\n1\thello world\n"), "t", FormatTSV, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows[0][1].Str != "hello world" {
		t.Errorf("tsv field = %q", tbl.Rows[0][1].Str)
	}
}

func TestNDJSON(t *testing.T) {
	src := `{"a": 1, "b": "x"}
{"a": 2.5, "c": true}
{"b": "7", "a": null}
`
	tbl, rep, err := ReadTable(strings.NewReader(src), "t", FormatNDJSON, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(tbl.Cols, ","); got != "a,b,c" {
		t.Fatalf("columns = %s, want first-appearance order a,b,c", got)
	}
	// a: int then float then null -> float/num
	if rep.Columns[0].Kind != ColFloat || tbl.Types[0] != engine.TNum {
		t.Errorf("a = %v/%v, want float/num", rep.Columns[0].Kind, tbl.Types[0])
	}
	// b: JSON strings stay strings even when numeric-looking
	if tbl.Types[1] != engine.TStr || tbl.Rows[2][1].Str != "7" {
		t.Errorf("b = %v %v, want str \"7\"", tbl.Types[1], tbl.Rows[2][1])
	}
	// c: bool -> 0/1 num; missing in rows 1 and 3 -> NULL (backfilled)
	if tbl.Types[2] != engine.TNum || !tbl.Rows[0][2].Null || tbl.Rows[1][2].Num != 1 || !tbl.Rows[2][2].Null {
		t.Errorf("c column wrong: %v", tbl.Rows)
	}
	if !tbl.Rows[2][0].Null {
		t.Errorf("explicit JSON null not NULL")
	}
}

func TestNDJSONNestedRejectedWithLine(t *testing.T) {
	_, _, err := ReadTable(strings.NewReader("{\"a\": 1}\n{\"a\": {\"b\": 2}}\n"), "t", FormatNDJSON, nil)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("nested object error = %v, want line 2", err)
	}
}

// An empty JSON key would become a column no SQL statement can reference;
// reject it like the CSV header validation does.
func TestNDJSONEmptyKeyRejected(t *testing.T) {
	_, _, err := ReadTable(strings.NewReader("{\"a\": 1}\n{\"\": 2}\n"), "t", FormatNDJSON, nil)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("empty key error = %v, want line 2 rejection", err)
	}
}

// Trailing data after the object on a line is row loss, not noise.
func TestNDJSONTrailingDataRejected(t *testing.T) {
	for _, src := range []string{
		"{\"a\": 1} {\"a\": 99}\n",
		"{\"a\": 1}{\"a\": 99}\n",
		"{\"a\": 1} x\n",
	} {
		_, _, err := ReadTable(strings.NewReader(src), "t", FormatNDJSON, nil)
		if err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("trailing data accepted for %q: err = %v", src, err)
		}
	}
	// trailing whitespace is fine
	if _, _, err := ReadTable(strings.NewReader("{\"a\": 1}  \n"), "t", FormatNDJSON, nil); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

func TestSplitList(t *testing.T) {
	got := SplitList("a.csv, b.csv,,c.csv,")
	want := []string{"a.csv", "b.csv", "c.csv"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SplitList = %v, want %v", got, want)
	}
	if SplitList("") != nil {
		t.Errorf("SplitList(\"\") = %v, want nil", SplitList(""))
	}
}

func TestManifestTypeOverrides(t *testing.T) {
	tm := &TableManifest{Types: map[string]string{"zip": "str", "id": "num"}}
	tbl, rep, err := ReadTable(strings.NewReader("zip,id\n02139,1\n10001,2\n"), "t", FormatCSV, tm)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Types[0] != engine.TStr || tbl.Rows[0][0].Str != "02139" {
		t.Errorf("zip override: %v %v", tbl.Types[0], tbl.Rows[0][0])
	}
	if tbl.Types[1] != engine.TNum {
		t.Errorf("id override: %v", tbl.Types[1])
	}
	if !rep.Columns[0].Overridden || !rep.Columns[1].Overridden {
		t.Errorf("report overrides = %+v", rep.Columns)
	}
	// num override over non-numeric data is an error with a position
	_, _, err = ReadTable(strings.NewReader("a\nx\n"), "t", FormatCSV,
		&TableManifest{Types: map[string]string{"a": "num"}})
	if err == nil || !strings.Contains(err.Error(), "row 1") {
		t.Errorf("bad num override error = %v, want row position", err)
	}
	// the override must not bypass classify's NaN/Inf/underscore rejection:
	// a NaN "number" would compare equal to everything in the engine
	for _, bad := range []string{"NaN", "Inf", "1_000"} {
		_, _, err = ReadTable(strings.NewReader("a\n1\n"+bad+"\n"), "t", FormatCSV,
			&TableManifest{Types: map[string]string{"a": "num"}})
		if err == nil || !strings.Contains(err.Error(), "row 2") {
			t.Errorf("num override accepted %q: err = %v, want row 2 rejection", bad, err)
		}
	}
	// a JSON digit string forced to num is the override's designed use
	tbl, _, err = ReadTable(strings.NewReader("{\"a\": \"5\"}\n"), "t", FormatNDJSON,
		&TableManifest{Types: map[string]string{"a": "num"}})
	if err != nil || tbl.Types[0] != engine.TNum || tbl.Rows[0][0].Num != 5 {
		t.Errorf("JSON string->num override: %v %v", err, tbl)
	}
}

// A manifest entry that matches no data file must fail loudly: silently
// dropping its keys and type overrides would corrupt the schema untraced.
func TestUnmatchedManifestEntryFails(t *testing.T) {
	dir := t.TempDir()
	data := writeFile(t, dir, "cars.csv", "id,hp\n1,100\n")
	m := &Manifest{Tables: []TableManifest{
		{File: "cars.csv", Keys: []string{"id"}},
		{File: "cars.cvs", Types: map[string]string{"hp": "str"}}, // typo
	}}
	_, err := Load([]string{data}, m)
	if err == nil || !strings.Contains(err.Error(), "cars.cvs") {
		t.Errorf("unmatched manifest entry error = %v, want mention of cars.cvs", err)
	}
}

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadWithManifest(t *testing.T) {
	dir := t.TempDir()
	data := writeFile(t, dir, "cars.csv", "id,hp\n1,100\n2,150\n")
	manifest := writeFile(t, dir, "manifest.json",
		`{"now": "2021-06-01", "tables": [{"file": "cars.csv", "name": "Cars", "keys": ["id"]}]}`)
	m, err := ReadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Load([]string{data}, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.DB.Now != "2021-06-01" {
		t.Errorf("Now = %q", res.DB.Now)
	}
	tbl, ok := res.DB.Table("Cars")
	if !ok || tbl.Name != "Cars" || len(tbl.Rows) != 2 {
		t.Fatalf("Cars table missing or wrong: %v %v", ok, tbl)
	}
	if got := res.Keys["Cars"]; len(got) != 1 || got[0] != "id" {
		t.Errorf("keys = %v", res.Keys)
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	data := writeFile(t, dir, "t.csv", "a\n1\n")
	if _, err := Load([]string{data, data}, nil); err == nil || !strings.Contains(err.Error(), "duplicate table") {
		t.Errorf("duplicate table error = %v", err)
	}
	if _, err := Load([]string{writeFile(t, dir, "t.xls", "x")}, nil); err == nil || !strings.Contains(err.Error(), "unrecognized extension") {
		t.Errorf("bad extension error = %v", err)
	}
	m := &Manifest{Tables: []TableManifest{{File: "t.csv", Keys: []string{"nope"}}}}
	if _, err := Load([]string{data}, m); err == nil || !strings.Contains(err.Error(), "key column") {
		t.Errorf("bad key error = %v", err)
	}
	if _, err := Load(nil, nil); err == nil {
		t.Error("empty load accepted")
	}
}

func TestReadManifestRejectsTypos(t *testing.T) {
	dir := t.TempDir()
	bad := writeFile(t, dir, "m.json", `{"tables": [{"file": "x.csv", "key": ["id"]}]}`)
	if _, err := ReadManifest(bad); err == nil {
		t.Error("unknown field accepted")
	}
	bad2 := writeFile(t, dir, "m2.json", `{"tables": [{"file": "x.csv", "types": {"a": "int"}}]}`)
	if _, err := ReadManifest(bad2); err == nil || !strings.Contains(err.Error(), `"num" or "str"`) {
		t.Errorf("bad type value error = %v", err)
	}
}

func TestQueryLogPerLine(t *testing.T) {
	src := `# cars exploration
SELECT hp, mpg FROM Cars

-- trailing comment line
SELECT hp FROM Cars WHERE hp > 100
`
	stmts, err := ParseLog(strings.NewReader(src), "log.sql")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("got %d statements, want 2", len(stmts))
	}
	if stmts[0].Line != 2 || stmts[1].Line != 5 {
		t.Errorf("lines = %d, %d, want 2, 5", stmts[0].Line, stmts[1].Line)
	}
}

func TestQueryLogSemicolons(t *testing.T) {
	src := `SELECT hp
FROM Cars; # first

SELECT mpg FROM Cars
WHERE origin = 'a;b'; SELECT 1 FROM Cars`
	stmts, err := ParseLog(strings.NewReader(src), "log.sql")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements, want 3: %+v", len(stmts), stmts)
	}
	if stmts[0].Line != 1 || stmts[1].Line != 4 || stmts[2].Line != 5 {
		t.Errorf("lines = %d,%d,%d, want 1,4,5", stmts[0].Line, stmts[1].Line, stmts[2].Line)
	}
	if !strings.Contains(stmts[1].SQL, "a;b") {
		t.Errorf("semicolon in literal split: %q", stmts[1].SQL)
	}
}

func TestQueryLogParseErrorsAnchored(t *testing.T) {
	src := "SELECT hp FROM Cars\nSELECT FROM\nSELECT mpg FROM Cars\nNOT SQL AT ALL\n"
	_, err := ParseLog(strings.NewReader(src), "bad.sql")
	if err == nil {
		t.Fatal("malformed log accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "bad.sql:2") || !strings.Contains(msg, "bad.sql:4") {
		t.Errorf("error = %v, want both bad.sql:2 and bad.sql:4", err)
	}
}

func TestQueryLogEmpty(t *testing.T) {
	if _, err := ParseLog(strings.NewReader("# nothing\n\n"), "e.sql"); err == nil {
		t.Error("comment-only log accepted")
	}
}

func TestValidateUnknownTable(t *testing.T) {
	db := engine.NewDB(DefaultNow)
	db.Add(&engine.Table{Name: "Cars", Cols: []string{"hp"}, Types: []engine.ColType{engine.TNum}})
	stmts, err := ParseLog(strings.NewReader("SELECT hp FROM Cars\nSELECT x FROM Trucks\n"), "log.sql")
	if err != nil {
		t.Fatal(err)
	}
	verr := Validate(stmts, db, "log.sql")
	if verr == nil {
		t.Fatal("unknown table accepted")
	}
	if !strings.Contains(verr.Error(), "log.sql:2") || !strings.Contains(verr.Error(), `"Trucks"`) || !strings.Contains(verr.Error(), "Cars") {
		t.Errorf("validate error = %v, want position, bad name, and available tables", verr)
	}
	if err := Validate(stmts[:1], db, "log.sql"); err != nil {
		t.Errorf("valid statement rejected: %v", err)
	}
}

// Validate must see the table ref inside a JOIN step — a join node wraps its
// ref one level down from a plain FROM entry.
func TestValidateOuterJoinLog(t *testing.T) {
	db := engine.NewDB(DefaultNow)
	db.Add(&engine.Table{Name: "Cars", Cols: []string{"hp", "origin"}, Types: []engine.ColType{engine.TNum, engine.TStr}})
	db.Add(&engine.Table{Name: "Makers", Cols: []string{"origin", "region"}, Types: []engine.ColType{engine.TStr, engine.TStr}})
	src := "SELECT c.hp, m.region FROM Cars AS c LEFT JOIN Makers AS m ON c.origin = m.origin\n" +
		"SELECT c.hp FROM Cars AS c FULL OUTER JOIN Wheels AS w ON c.hp = w.hp\n"
	stmts, err := ParseLog(strings.NewReader(src), "log.sql")
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(stmts[:1], db, "log.sql"); err != nil {
		t.Errorf("valid outer-join statement rejected: %v", err)
	}
	verr := Validate(stmts, db, "log.sql")
	if verr == nil {
		t.Fatal("unknown join table accepted")
	}
	if !strings.Contains(verr.Error(), "log.sql:2") || !strings.Contains(verr.Error(), `"Wheels"`) {
		t.Errorf("validate error = %v, want position and bad join table name", verr)
	}
}

func TestWriteCSVRoundTrip(t *testing.T) {
	src := &engine.Table{
		Name:  "t",
		Cols:  []string{"a", "b"},
		Types: []engine.ColType{engine.TNum, engine.TStr},
		Rows: [][]engine.Value{
			{engine.NumVal(1.25), engine.StrVal("x,y")},
			{engine.NullVal(), engine.StrVal(`quote "q"`)},
			{engine.NumVal(-3e9), engine.NullVal()},
		},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, src); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadTable(&buf, "t", FormatCSV, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(src.Rows) {
		t.Fatalf("rows = %d, want %d", len(got.Rows), len(src.Rows))
	}
	for ri := range src.Rows {
		for ci := range src.Cols {
			a, b := src.Rows[ri][ci], got.Rows[ri][ci]
			if a.Null != b.Null || (!a.Null && engine.Compare(a, b) != 0) || a.IsStr != b.IsStr {
				t.Errorf("cell (%d,%d): %v -> %v", ri, ci, a, b)
			}
		}
	}
}

func TestTableStem(t *testing.T) {
	for in, want := range map[string]string{
		"/data/cars.csv": "cars",
		"cars.csv.gz":    "cars",
		"my-data.ndjson": "my_data",
		"2020 sales.tsv": "t2020_sales",
		"covid.jsonl.gz": "covid",
	} {
		if got := TableStem(in); got != want {
			t.Errorf("TableStem(%q) = %q, want %q", in, got, want)
		}
	}
}
