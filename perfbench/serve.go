package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"pi2/internal/catalog"
	"pi2/internal/dataset"
	"pi2/internal/engine"
	"pi2/internal/workload"
)

// Serving workload shape. One closed-loop driver cycles serveSessions
// sessions. prefixOps is the counted prefix whose cache and engine counts
// repeat exactly.
const (
	serveSessions = 16
	prefixOps     = 1024
	// writeEvery makes every writeEvery-th serve-live operation a write.
	// The 47 reads in between cycle the 16 sessions, so 16/47 ≈ 1/3 of
	// reads are their session's first read after a write. A fixed period
	// keeps that share the same for every seed.
	writeEvery = 48
)

// serveSpec describes one serving workload.
type serveSpec struct {
	log    workload.Log
	table  func(seed int64) *engine.Table
	writes bool
	// checkEvery: every checkEvery-th read is kept and compared with the
	// interpreter after the measured phase. One interpreter run over the
	// table costs tens (covid) to a hundred (flights) reads, so checking
	// every read would take longer than the run.
	checkEvery int
	// setups is how many times the workload sets up; setup_s and gen_ms
	// are medians over them.
	setups int
	// brushOnly limits the operations to the charts' brushes and pans.
	// Filter's toggles mostly flip back to cached states (with them in the
	// mix, 31% of operations hit every cache), which put p50 on the edge
	// between hit and miss latencies.
	brushOnly bool
}

var (
	serveXfilter = serveSpec{
		log:        workload.Filter(),
		table:      func(seed int64) *engine.Table { return flightsTable(seed, flightsRows) },
		checkEvery: 1024,
		setups:     3,
		brushOnly:  true,
	}
	serveLive = serveSpec{
		log:        workload.Covid(),
		table:      func(seed int64) *engine.Table { return covidTable(seed, covidStates, covidDays) },
		writes:     true,
		checkEvery: 256,
		setups:     5,
	}
)

// runServe sets up (load the seeded table through /ingest, build the
// catalogue, generate the interface) spec.setups times, then drives the
// last deployment until the time or round limit.
func runServe(c config, spec serveSpec) *report {
	rep := newReport(c)
	src := spec.table(c.seed)
	batches := loadBatches(src)

	var layers *genLayers
	if c.trace {
		layers = &genLayers{}
	}
	var gens []float64
	var db *engine.DB
	var d *deployment
	var refJSON []byte
	var cost float64
	for i := 0; i < spec.setups; i++ {
		if d != nil {
			d.close()
		}
		db, d = nil, nil
		runtime.GC()
		t0 := time.Now()
		db = engine.NewDB(dataset.Now)
		wr := newWriter(db, c.trace)
		if err := wr.load(batches); err != nil {
			return rep.fatal(err)
		}
		tc := time.Now()
		cat := catalog.Build(db, nil)
		catDur := time.Since(tc)
		rep.attempted++
		g, err := generate(db, cat, spec.log, searchSeed, layers)
		if err != nil {
			rep.fail(err)
			return rep
		}
		d = deploy(db, g.ifc, g.tctx, spec.writes)
		if spec.brushOnly {
			d.manips = slices.DeleteFunc(d.manips, func(m manip) bool { return m.path != "/interact" })
		}
		rep.setupSample(time.Since(t0), catDur, wr, !spec.writes)
		gens = append(gens, ms(g.dur))
		if i == 0 {
			refJSON, cost = g.json, g.ifc.Cost
			if layers != nil {
				rep.genCounts(layers)
			}
		} else if !bytes.Equal(g.json, refJSON) {
			rep.fail(fmt.Errorf("%s: set-up %d generated a different interface from the same seed and data", spec.log.Name, i))
		}
	}
	defer d.close()
	rep.setup()
	rep.e2e["gen_ms"] = median(gens)
	rep.e2e["gen_max_ms"] = median(gens)
	rep.e2e["iface_cost"] = cost
	rep.notef("gen_ms: median of %d set-up generations of %s over %d rows", len(gens), spec.log.Name, len(src.Rows))
	heap0 := heapAfterGCMB()

	r := rand.New(rand.NewSource(c.seed))
	live := newWriter(db, c.trace)
	keys := make([]string, serveSessions)
	lastRead := make([]int, serveSessions)
	for i := range keys {
		keys[i] = fmt.Sprintf("u%02d", i)
		lastRead[i] = -1
	}
	lastWrite := -1
	var lats []float64
	var served, prefixCounts cacheCounts
	var p prefix
	reads, readsAfterWrite, readsMissing := 0, 0, 0
	var samples []sample
	prefixDone := false
	endPrefix := func() {
		prefixCounts, prefixDone = served, true
		rep.endPrefix(p, db)
	}

	start := time.Now()
	rep.beginMeasure()
	p = rep.beginPrefix(db)
	for op := 1; c.more(op, start); op++ {
		rep.attempted++
		if spec.writes && op%writeEvery == 0 {
			if err := live.send(src.Name, ndjson(src, liveRows(r))); err != nil {
				rep.fail(err)
			}
			lastWrite = op
		} else {
			s := reads % serveSessions
			if lastWrite > lastRead[s] && lastRead[s] >= 0 {
				readsAfterWrite++
			}
			lastRead[s] = op
			reads++
			tracedOp := c.trace && op%2 == 1
			lat, cc, err := d.interact(r, keys[s], tracedOp)
			if err == nil && reads%spec.checkEvery == 0 {
				var smp sample
				if smp, err = d.capture(keys[s]); err == nil {
					samples = append(samples, smp)
				}
			}
			if err != nil {
				rep.fail(err)
			} else {
				served.add(cc)
				if cc.resultMisses > 0 {
					readsMissing++
				}
				if !tracedOp {
					lats = append(lats, ms(lat))
				} else {
					rep.tracedLat = append(rep.tracedLat, ms(lat))
				}
			}
		}
		if op == prefixOps {
			endPrefix()
		}
	}
	if !prefixDone {
		endPrefix()
	}
	rep.endMeasure(db)
	rep.verify(samples, fmt.Sprintf("every %d-th read", spec.checkEvery))

	rep.latencies(lats, "interactions")
	rep.notef("%.1f%% of reads missed the result cache on at least one tree", 100*float64(readsMissing)/float64(max(reads, 1)))
	if spec.writes {
		rep.e2e["ingest_ms"], _ = ingestMs(live.lat)
		share := float64(readsAfterWrite) / float64(max(reads, 1))
		rep.layer["live.reads_after_write"] = share
		rep.notef("ingest_ms: median of %d live %d-row writes; %.1f%% of reads follow a write; %d rows appended to %d",
			live.writes, liveBatchRows, 100*share, live.writes*liveBatchRows, len(src.Rows))
	} else {
		v, n := ingestMs(rep.loadLat)
		rep.e2e["ingest_ms"] = v
		rep.notef("ingest_ms: median of %d %d-row batches loading the table at set-up", n, loadBatchRows)
	}
	rep.writes.add(live)
	rep.retained(db, heap0)
	if c.trace {
		rep.serveSpans(d)
		rep.genLayers(layers)
		rep.serveCounts(prefixCounts)
		rep.overhead(median(rep.tracedLat)/median(lats), "p50 of traced / untraced interactions, alternate operations of one run")
	}
	return rep
}

// liveRows draws one serve-live write: revised daily figures for random
// states and days inside the Covid log's date windows.
func liveRows(r *rand.Rand) [][]engine.Value {
	states := covidStateNames(covidStates)
	rows := make([][]engine.Value, liveBatchRows)
	for i := range rows {
		rows[i] = covidRow(states[r.Intn(len(states))], r.Intn(92), 2000+r.Float64()*8000, r)
	}
	return rows
}
