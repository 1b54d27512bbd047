package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pi2/internal/catalog"
	"pi2/internal/core"
	"pi2/internal/dataset"
	"pi2/internal/engine"
	"pi2/internal/iface"
	"pi2/internal/obs"
	"pi2/internal/sqlparser"
	"pi2/internal/transform"
	"pi2/internal/workload"
)

// generated is one interface generation with the outputs the correctness
// gate and the metrics need.
type generated struct {
	ifc  *iface.Interface
	tctx *transform.Context
	json []byte
	dur  time.Duration
}

// genLayers accumulates the generation spans and timers of traced runs.
type genLayers struct {
	runs                                 int
	parse, search, mapPhase              time.Duration
	reward, mapSearch, mapLayout, safety time.Duration
	workerTime                           time.Duration // Workers × search phase, the share base
	iterations, rewards, safetyExecs     int
}

func (g *genLayers) observe(tr *obs.Trace, workers int, iters int) {
	g.runs++
	for _, sp := range tr.Spans() {
		switch sp.Name {
		case "gen.parse":
			g.parse += sp.Dur
		case "gen.search":
			g.search += sp.Dur
			g.workerTime += time.Duration(workers) * sp.Dur
		case "gen.map":
			g.mapPhase += sp.Dur
		}
	}
	tm := tr.Timers()
	g.reward += tm["search.reward"].Total
	g.mapSearch += tm["map.search"].Total
	g.mapLayout += tm["map.layout"].Total
	g.safety += tm["safety.exec"].Total
	g.iterations += iters
	g.rewards += tm["search.reward"].Count
	g.safetyExecs += tm["safety.exec"].Count
}

// generate runs one generation at the paper defaults with the given MCTS
// seed, then (off the clock) checks the paper's expressiveness guarantee
// and renders the interface JSON. With layers non-nil the run is traced.
func generate(db *engine.DB, cat *catalog.Catalog, log workload.Log, seed int64, layers *genLayers) (*generated, error) {
	cfg := core.DefaultConfig()
	cfg.Search.Seed = seed
	ctx := context.Background()
	var tr *obs.Trace
	if layers != nil {
		tr = obs.NewTrace(log.Name)
		ctx = obs.WithTrace(ctx, tr)
	}
	t0 := time.Now()
	res, err := core.GenerateCtx(ctx, log.Queries, db, cat, cfg)
	dur := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("generate %s seed %d: %w", log.Name, seed, err)
	}
	if layers != nil {
		layers.observe(tr, cfg.Search.Workers, res.Iterations)
	}
	queries, err := sqlparser.ParseAll(log.Queries)
	if err != nil {
		return nil, err
	}
	tctx := &transform.Context{Queries: queries, Cat: cat}
	sess, err := iface.NewSession(res.Interface, tctx, db)
	if err != nil {
		return nil, fmt.Errorf("generate %s seed %d: session: %w", log.Name, seed, err)
	}
	if err := sess.ExpressesAll(); err != nil {
		return nil, fmt.Errorf("generate %s seed %d: %w", log.Name, seed, err)
	}
	js, err := iface.MarshalJSON(res.Interface)
	if err != nil {
		return nil, err
	}
	return &generated{ifc: res.Interface, tctx: tctx, json: js, dur: dur}, nil
}

// searchSeed is the MCTS seed of every generation: the paper default. The
// search's work depends on its seed far more than on the code (Filter took
// 2.7-5.0 s and its chosen cost ranged 5.2k-42k over eight seeds), and no
// run short enough for the time budget averages that out, so the seed is
// fixed and every run searches the same trajectory; the run seed draws the
// tables and the interaction sequences.
const searchSeed = 1

// genInteractions is the number of interactions served on each interface
// gen-paper generates, over genSessions sessions; every genCheckEvery-th is
// kept for the interpreter check (the SDSS join makes a check cost about
// twenty interactions).
const (
	genInteractions = 32
	genSessions     = 4
	genCheckEvery   = 16
)

// paperSetup loads the paper tables through /ingest into a fresh DB and
// builds its catalogue, recording the set-up time, the catalogue build time
// and the batch latencies into rep's set-up samples.
func paperSetup(rep *report, batches []batch, traced bool) (*engine.DB, *catalog.Catalog, error) {
	runtime.GC()
	t0 := time.Now()
	db := engine.NewDB(dataset.Now)
	wr := newWriter(db, traced)
	if err := wr.load(batches); err != nil {
		return nil, nil, err
	}
	tc := time.Now()
	cat := catalog.Build(db, dataset.Keys())
	rep.setupSample(time.Since(t0), time.Since(tc), wr, true)
	return db, cat, nil
}

// runGenPaper is the gen-paper workload: the seven curated logs in a fixed
// rotation on the paper's database, one generation at a time, each
// followed by interactions with the interface it produced. Every rotation
// repeats the first one's searches, so each log's interface must come out
// byte-identical every time. The first rotation is the counted prefix.
//
// The set-up takes tens of milliseconds, short enough for one moment of
// machine noise to move all of it, so besides the set-up whose DB the run
// uses, two more run after every rotation and setup_s is the median of all.
//
// Traced runs generate every log twice per rotation, untraced and then
// traced: the pair must also agree byte for byte, and its time ratio is
// the tracing overhead on identical work.
func runGenPaper(c config) *report {
	rep := newReport(c)
	batches := loadBatches(paperTables()...)
	db, cat, err := paperSetup(rep, batches, c.trace)
	if err != nil {
		return rep.fatal(err)
	}
	heap0 := heapAfterGCMB()

	logs := workload.All()
	r := rand.New(rand.NewSource(c.seed))
	var layers *genLayers
	if c.trace {
		layers = &genLayers{}
	}

	// step is one generation plus its interactions; nil after a failure.
	lats := make([][]float64, len(logs)) // untraced interaction latencies per log
	var served cacheCounts
	var samples []sample
	step := func(li int, traced bool) *generated {
		log := logs[li]
		rep.attempted++
		var gl *genLayers
		if traced {
			gl = layers
		}
		g, err := generate(db, cat, log, searchSeed, gl)
		if err != nil {
			rep.fail(err)
			return nil
		}
		// Collect the generation's garbage first, so that the interactions
		// do not pay for it.
		runtime.GC()
		d := deploy(db, g.ifc, g.tctx, false)
		defer d.close()
		for i := 0; i < genInteractions; i++ {
			rep.attempted++
			key := fmt.Sprintf("g%d", i%genSessions)
			tracedOp := c.trace && i%2 == 1
			lat, cc, err := d.interact(r, key, tracedOp)
			if err == nil && i%genCheckEvery == genCheckEvery-1 {
				var smp sample
				if smp, err = d.capture(key); err == nil {
					samples = append(samples, smp)
				}
			}
			if err != nil {
				rep.fail(fmt.Errorf("%s interaction %d: %w", log.Name, i, err))
				continue
			}
			served.add(cc)
			if tracedOp {
				rep.tracedLat = append(rep.tracedLat, ms(lat))
			} else {
				lats[li] = append(lats[li], ms(lat))
			}
		}
		rep.serveSpans(d)
		return g
	}

	perLog := make([][]float64, len(logs))
	first := make([][]byte, len(logs))
	var costs, untracedGen, tracedGen []float64
	var prefixCounts cacheCounts
	p := rep.beginPrefix(db)
	start := time.Now()
	rep.beginMeasure()
	for rot := 0; c.more(rot+1, start); rot++ {
		for i, log := range logs {
			g := step(i, false)
			if g == nil {
				continue
			}
			perLog[i] = append(perLog[i], ms(g.dur))
			costs = append(costs, g.ifc.Cost)
			untracedGen = append(untracedGen, ms(g.dur))
			if first[i] == nil {
				first[i] = g.json
			} else if !bytes.Equal(g.json, first[i]) {
				rep.fail(fmt.Errorf("%s: rotation %d produced a different interface from the same seed", log.Name, rot))
			}
			if c.trace {
				gt := step(i, true)
				if gt == nil {
					continue
				}
				tracedGen = append(tracedGen, ms(gt.dur))
				if !bytes.Equal(gt.json, g.json) {
					rep.fail(fmt.Errorf("%s: traced generation differs from the untraced one with the same seed", log.Name))
				}
			}
		}
		if rot == 0 {
			prefixCounts = served
			rep.endPrefix(p, db)
			if layers != nil {
				rep.genCounts(layers)
			}
		}
		for i := 0; i < 2; i++ {
			if _, _, err := paperSetup(rep, batches, c.trace); err != nil {
				return rep.fatal(err)
			}
		}
	}
	rep.endMeasure(db)
	rep.setup()
	rep.verify(samples, fmt.Sprintf("every %d-th interaction", genCheckEvery))

	var medians []float64
	maxMed := 0.0
	for i, xs := range perLog {
		m := median(xs)
		medians = append(medians, m)
		maxMed = max(maxMed, m)
		rep.notef("  %-8s median %8.1f ms over %d generations", logs[i].Name, m, len(xs))
	}
	rep.e2e["gen_ms"] = geomean(medians)
	rep.e2e["gen_max_ms"] = maxMed
	rep.e2e["iface_cost"] = geomean(costs)
	// Interfaces differ in what an interaction costs, so p50_ms combines
	// per-log medians like gen_ms; tail_ms pools every interaction.
	var all, p50s []float64
	for _, xs := range lats {
		all = append(all, xs...)
		p50s = append(p50s, median(xs))
	}
	rep.latencies(all, "interactions with generated interfaces")
	rep.e2e["p50_ms"] = geomean(p50s)
	rep.notef("p50_ms: geometric mean over logs of each log's median interaction")
	v, n := ingestMs(rep.loadLat)
	rep.e2e["ingest_ms"] = v
	rep.notef("ingest_ms: geometric mean over %d tables of each table's median %d-row batch (%d batches) loading the paper tables at set-up", len(rep.loadLat), loadBatchRows, n)
	rep.retained(db, heap0)
	if c.trace {
		rep.genLayers(layers)
		rep.serveCounts(prefixCounts)
		rep.overhead(sum(tracedGen)/sum(untracedGen), "summed traced / untraced generation time, same MCTS seeds")
	}
	return rep
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
