package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"pi2/internal/dataset"
	"pi2/internal/engine"
	"pi2/internal/iface"
	"pi2/internal/ingest"
)

// Table sizes of the serving workloads. flightsRows is large enough that
// engine prepare+exec, not the HTTP and session layers, dominates a
// serve-xfilter miss; covid is 50 states × two years so the three states
// the Covid log reads are a small slice of the table, as in a real feed.
const (
	flightsRows = 100_000
	covidStates = 50
	covidDays   = 730
)

// loadBatchRows and liveBatchRows are the NDJSON batch sizes posted to
// /ingest: set-up loads stream whole tables, serve-live's live writes are
// small increments.
const (
	loadBatchRows = 64
	liveBatchRows = 4
)

// flightsTable draws n rows from the distribution of dataset.Flights (same
// coarse domains, so the Filter log maps to the same bar charts).
func flightsTable(seed int64, n int) *engine.Table {
	r := rand.New(rand.NewSource(seed))
	t := &engine.Table{
		Name:  "flights",
		Cols:  []string{"hour", "delay", "dist"},
		Types: []engine.ColType{engine.TNum, engine.TNum, engine.TNum},
	}
	for i := 0; i < n; i++ {
		hour := 6 + r.Intn(16)
		delay := 5 * r.Intn(19)
		dist := 250 * (1 + r.Intn(18))
		if r.Float64() < 0.3 && delay > 30 {
			delay = 5 * r.Intn(6)
		}
		t.Rows = append(t.Rows, []engine.Value{
			engine.NumVal(float64(hour)), engine.NumVal(float64(delay)), engine.NumVal(float64(dist)),
		})
	}
	return t
}

// covidStateNames returns n state codes starting with the three the Covid
// log queries.
func covidStateNames(n int) []string {
	names := []string{"CA", "WA", "NY"}
	for i := len(names); i < n; i++ {
		names = append(names, fmt.Sprintf("S%02d", i))
	}
	return names
}

var covidEnd, _ = time.Parse("2006-01-02", dataset.Now)

// covidTable draws daily cases/deaths for states × days ending at
// dataset.Now, with the random-walk shape of dataset.Covid.
func covidTable(seed int64, states, days int) *engine.Table {
	r := rand.New(rand.NewSource(seed))
	t := &engine.Table{
		Name:  "covid",
		Cols:  []string{"state", "date", "cases", "deaths"},
		Types: []engine.ColType{engine.TStr, engine.TStr, engine.TNum, engine.TNum},
	}
	for _, st := range covidStateNames(states) {
		base := 2000 + r.Float64()*8000
		for d := days - 1; d >= 0; d-- {
			base = math.Min(base*(1+(r.Float64()-0.45)*0.08), 1e6)
			t.Rows = append(t.Rows, covidRow(st, d, base, r))
		}
	}
	return t
}

func covidRow(state string, daysAgo int, base float64, r *rand.Rand) []engine.Value {
	return []engine.Value{
		engine.StrVal(state),
		engine.StrVal(covidEnd.AddDate(0, 0, -daysAgo).Format("2006-01-02")),
		engine.NumVal(math.Round(base)),
		engine.NumVal(math.Round(base*0.015 + r.Float64()*10)),
	}
}

// paperTables returns the tables of dataset.NewDB, in its order.
func paperTables() []*engine.Table {
	db := dataset.NewDB()
	var out []*engine.Table
	for _, name := range db.TableNames() {
		t, _ := db.Table(name)
		out = append(out, t)
	}
	return out
}

// ndjson encodes rows as one JSON object per line, keyed by column name.
// Numbers use the shortest round-tripping form, so decoding restores the
// exact values.
func ndjson(t *engine.Table, rows [][]engine.Value) []byte {
	var b bytes.Buffer
	for _, row := range rows {
		b.WriteByte('{')
		for i, v := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			k, _ := json.Marshal(t.Cols[i])
			b.Write(k)
			b.WriteByte(':')
			switch {
			case v.Null:
				b.WriteString("null")
			case v.IsStr:
				s, _ := json.Marshal(v.Str)
				b.Write(s)
			default:
				b.WriteString(strconv.FormatFloat(v.Num, 'g', -1, 64))
			}
		}
		b.WriteString("}\n")
	}
	return b.Bytes()
}

// batch is one NDJSON body for a table.
type batch struct {
	table *engine.Table
	body  []byte
}

// loadBatches encodes the tables' rows in loadBatchRows batches. Encoding
// is the client's work, so it is done before any set-up is timed.
func loadBatches(tables ...*engine.Table) []batch {
	var out []batch
	for _, t := range tables {
		for lo := 0; lo < len(t.Rows); lo += loadBatchRows {
			out = append(out, batch{t, ndjson(t, t.Rows[lo:min(lo+loadBatchRows, len(t.Rows))])})
		}
	}
	return out
}

// writer posts NDJSON batches into a DB. Untraced it goes through the
// server's POST /ingest handler and records each batch's latency per
// table; traced it calls the two layers behind that handler directly and
// times each.
type writer struct {
	db     *engine.DB
	h      http.Handler
	rec    *recorder
	traced bool

	lat    map[string][]float64 // ms per batch by table, untraced
	decode time.Duration
	apply  time.Duration
	writes int
}

func newWriter(db *engine.DB, traced bool) *writer {
	return &writer{
		db:     db,
		h:      iface.NewRegistryServer(nil).WithIngest(db).Handler(),
		rec:    newRecorder(),
		traced: traced,
		lat:    map[string][]float64{},
	}
}

// load creates an empty live table for each table the batches fill, then
// posts the batches in order.
func (w *writer) load(bs []batch) error {
	created := map[*engine.Table]bool{}
	for _, b := range bs {
		if !created[b.table] {
			w.db.Add(&engine.Table{Name: b.table.Name, Cols: b.table.Cols, Types: b.table.Types})
			created[b.table] = true
		}
		if err := w.send(b.table.Name, b.body); err != nil {
			return err
		}
	}
	return nil
}

// send appends one NDJSON batch to the named table; the error reports an
// unexpected status or a failed write.
func (w *writer) send(table string, body []byte) error {
	w.writes++
	if w.traced {
		tbl, ok := w.db.Table(table)
		if !ok {
			return fmt.Errorf("ingest: no table %q", table)
		}
		t0 := time.Now()
		decoded, err := ingest.DecodeRows(bytes.NewReader(body), tbl)
		t1 := time.Now()
		if err == nil {
			err = w.db.Append(tbl.Name, decoded)
		}
		w.decode += t1.Sub(t0)
		w.apply += time.Since(t1)
		return err
	}
	req, err := http.NewRequest(http.MethodPost, "/ingest?table="+table, bytes.NewReader(body))
	if err != nil {
		return err
	}
	w.rec.reset()
	t0 := time.Now()
	w.h.ServeHTTP(w.rec, req)
	w.lat[table] = append(w.lat[table], ms(time.Since(t0)))
	if w.rec.code != http.StatusOK {
		return fmt.Errorf("POST /ingest: status %d: %s", w.rec.code, w.rec.body.String())
	}
	return nil
}

// ingestMs is the geometric mean over tables of each table's median batch
// latency. Batches of different tables cost different amounts, so pooling
// them would put the median on the boundary between two tables.
func ingestMs(lat map[string][]float64) (ms float64, batches int) {
	var meds []float64
	for _, xs := range lat {
		meds = append(meds, median(xs))
		batches += len(xs)
	}
	return geomean(meds), batches
}
