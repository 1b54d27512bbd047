package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"pi2/internal/engine"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// rounds, when positive, replaces the time limit with a fixed amount
	// of measured work (rotations for gen-paper, operations for serve-*),
	// so tests can compare runs exactly.
	rounds int
}

// more reports whether measured round i (1-based) should run.
func (c config) more(i int, start time.Time) bool {
	if c.rounds > 0 {
		return i <= c.rounds
	}
	return time.Since(start).Seconds() < c.seconds
}

// report collects one run's outcome: the end-to-end metrics (untraced
// runs), the per-layer metrics (traced runs), the exact work counts the
// determinism test compares, and human-readable notes.
type report struct {
	c         config
	attempted int
	failed    int
	errs      []string

	e2e    map[string]float64
	layer  map[string]float64
	counts map[string]float64
	notes  []string

	tracedLat []float64 // interaction latencies of traced ops

	// set-up samples
	setups, catMs []float64
	loadLat       map[string][]float64 // ms per set-up load batch by table

	writes    writeTotals
	spans     stopwatch
	traced    int
	measureRT rtSample
}

func newReport(c config) *report {
	return &report{c: c, e2e: map[string]float64{}, layer: map[string]float64{},
		counts: map[string]float64{}, spans: stopwatch{}, loadLat: map[string][]float64{}}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records one failed operation (the operation was already counted as
// attempted).
func (r *report) fail(err error) {
	r.failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, err.Error())
	}
}

// fatal marks a run that could not set up at all.
func (r *report) fatal(err error) *report {
	r.attempted++
	r.fail(err)
	return r
}

// writeTotals sums the traced write layers over every writer of a run.
type writeTotals struct {
	n             int
	decode, apply time.Duration
}

func (w *writeTotals) add(wr *writer) {
	w.n += wr.writes
	w.decode += wr.decode
	w.apply += wr.apply
}

// setupSample records one set-up: its duration, its catalogue build and
// its load batches. With writePath the load is the workload's write path,
// whose traced layers ingest.decode_ms and engine.append_ms report.
func (r *report) setupSample(setup, catalog time.Duration, wr *writer, writePath bool) {
	r.setups = append(r.setups, setup.Seconds())
	r.catMs = append(r.catMs, ms(catalog))
	for k, v := range wr.lat {
		r.loadLat[k] = append(r.loadLat[k], v...)
	}
	if writePath {
		r.writes.add(wr)
	}
}

// setup reports setup_s and catalog.build_ms as medians over the set-ups.
func (r *report) setup() {
	r.e2e["setup_s"] = median(r.setups)
	r.layer["catalog.build_ms"] = median(r.catMs)
	r.notef("setup_s: median of %d set-ups %v", len(r.setups), roundAll(r.setups, 3))
}

// prefix is the engine and runtime state at the start of the counted
// prefix, the fixed first part of a run's work whose counts repeat exactly
// for a seed.
type prefix struct {
	rt  rtSample
	idx engine.IndexCounters
	col engine.ColumnarCounters
	app engine.AppendCounters
}

func (r *report) beginPrefix(db *engine.DB) prefix {
	return prefix{readRuntime(), db.IndexCounters(), db.ColumnarCounters(), db.AppendCounters()}
}

func (r *report) endPrefix(p prefix, db *engine.DB) {
	rt := readRuntime().sub(p.rt)
	idx, col, app := db.IndexCounters(), db.ColumnarCounters(), db.AppendCounters()
	r.counts["engine.index_builds"] = float64(idx.Builds - p.idx.Builds)
	r.counts["engine.index_hits"] = float64(idx.Hits - p.idx.Hits)
	r.counts["engine.stats_builds"] = float64(idx.StatsBuilds - p.idx.StatsBuilds)
	r.counts["engine.column_builds"] = float64(col.ColumnBuilds - p.col.ColumnBuilds)
	r.counts["engine.batches"] = float64(col.Batches - p.col.Batches)
	r.counts["engine.appends"] = float64(app.Appends - p.app.Appends)
	r.counts["engine.append_rows"] = float64(app.Rows - p.app.Rows)
	r.counts["engine.invalidations"] = float64(app.Invalidations - p.app.Invalidations)
	r.layer["runtime.alloc_mb"] = rt.allocBytes / (1 << 20)
	r.layer["runtime.allocs"] = rt.allocObjs
	r.layer["runtime.gc_cycles"] = rt.gcCycles
}

func (r *report) beginMeasure() { r.measureRT = readRuntime() }

func (r *report) endMeasure(db *engine.DB) {
	rt := readRuntime().sub(r.measureRT)
	if rt.totalCPU > 0 {
		r.layer["runtime.gc_cpu_frac"] = rt.gcCPU / rt.totalCPU
	}
	r.counts["engine.changelog_batches"] = float64(db.ChangelogDepth())
	r.e2e["peak_rss_mb"] = peakRSSMB()
}

// genCounts records the generation work counts of the counted prefix.
func (r *report) genCounts(g *genLayers) {
	r.counts["search.iterations"] = float64(g.iterations)
	r.counts["search.rewards"] = float64(g.rewards)
	r.counts["safety.execs"] = float64(g.safetyExecs)
}

// genLayers reports the generation spans and timers as means per traced
// generation. Worker timers run concurrently on one P, so each includes
// the time its goroutine sat preempted; search.reward_share divides the
// reward timer by the summed worker time, taken as Workers × the search
// phase.
func (r *report) genLayers(g *genLayers) {
	if g.runs == 0 {
		return
	}
	per := func(d time.Duration) float64 { return ms(d) / float64(g.runs) }
	r.layer["gen.parse_ms"] = per(g.parse)
	r.layer["gen.search_ms"] = per(g.search)
	r.layer["gen.map_ms"] = per(g.mapPhase)
	r.layer["mapping.search_ms"] = per(g.mapSearch)
	r.layer["mapping.layout_ms"] = per(g.mapLayout)
	r.layer["safety.exec_ms"] = per(g.safety)
	if g.workerTime > 0 {
		r.layer["search.reward_share"] = float64(g.reward) / float64(g.workerTime)
	}
	r.notef("gen.*, mapping.*, safety.exec_ms: mean per traced generation over %d; search.reward_share base: Workers × gen.search", g.runs)
}

// serveSpans folds a deployment's traced request spans into the report.
func (r *report) serveSpans(d *deployment) {
	for k, v := range d.spans {
		r.spans[k] += v
	}
	r.traced += d.traced
}

// serveCounts reports the serving cache traffic of the counted prefix and
// the per-interaction span means of the traced ops.
func (r *report) serveCounts(c cacheCounts) {
	r.counts["iface.plan_compiles"] = float64(c.compiles)
	r.counts["iface.result_hits"] = float64(c.resultHits)
	r.counts["iface.result_misses"] = float64(c.resultMisses)
	r.counts["iface.plan_hits"] = float64(c.planHits)
	r.counts["iface.plan_misses"] = float64(c.planMisses)
	rate := func(h, m uint64) float64 {
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	}
	r.layer["iface.plan_hit_rate"] = rate(c.planHits, c.planMisses)
	r.layer["iface.result_hit_rate"] = rate(c.resultHits, c.resultMisses)
	if r.traced > 0 {
		for _, phase := range []string{"acquire", "apply", "plan", "exec", "render"} {
			name := "iface." + phase + "_ms"
			if phase == "plan" {
				name = "iface.prepare_ms"
			}
			r.layer[name] = ms(r.spans[phase]) / float64(r.traced)
		}
		r.notef("iface.*_ms: mean per traced interaction over %d (spans the handler records around Registry.Acquire, the Session setters, Session.ResultsTraced and RenderHTML)", r.traced)
	}
}

// latencies reports p50_ms and tail_ms of the untraced interactions.
func (r *report) latencies(lats []float64, what string) {
	r.e2e["p50_ms"] = median(lats)
	t, pct, beyond := tail(lats)
	r.e2e["tail_ms"] = t
	r.notef("p50_ms/tail_ms: %d %s; tail_ms is p%g (%d samples beyond it); p10/p25/p75/p90 %s ms",
		len(lats), what, pct, beyond, roundAll([]float64{quantile(lats, 10), quantile(lats, 25), quantile(lats, 75), quantile(lats, 90)}, 3))
}

// verify runs the interpreter check on the kept samples; a mismatch fails
// the operation it came from.
func (r *report) verify(samples []sample, which string) {
	t0 := time.Now()
	for _, s := range samples {
		if err := s.verify(); err != nil {
			r.fail(err)
		}
	}
	r.notef("interpreter check: %d pages (%s), %.0f ms after the measured phase", len(samples), which, ms(time.Since(t0)))
}

// retained reports heap after GC at the end of the run minus heap after
// set-up.
func (r *report) retained(db *engine.DB, heap0 float64) {
	v := heapAfterGCMB() - heap0
	r.layer["retained_mb"] = v
	r.notef("retained_mb: %.2f (heap after GC at the end minus after set-up; changelog %d batches)", v, db.ChangelogDepth())
}

func (r *report) overhead(ratio float64, base string) {
	r.layer["trace.overhead"] = ratio
	r.notef("trace.overhead: %.3f = %s", ratio, base)
}

// writeLayers fills the ingest layer metrics.
func (r *report) writeLayers() {
	if r.writes.n == 0 {
		return
	}
	r.layer["ingest.decode_ms"] = ms(r.writes.decode) / float64(r.writes.n)
	r.layer["engine.append_ms"] = ms(r.writes.apply) / float64(r.writes.n)
}

// emit prints the notes, then the result line. The metrics are the
// end-to-end set for untraced runs and the per-layer set (counts
// included) for traced runs, each in the order BENCHMARK.json lists them.
func (r *report) emit(w io.Writer, e2e, layer []metricSpec) error {
	fmt.Fprintf(w, "workload %s seed %d trace %v: attempted %d failed %d fail_frac %.6f\n",
		r.c.workload, r.c.seed, r.c.trace, r.attempted, r.failed, r.failFrac())
	for _, e := range r.errs {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	specs, vals := e2e, r.e2e
	if r.c.trace {
		r.writeLayers()
		specs, vals = layer, map[string]float64{}
		for k, v := range r.layer {
			vals[k] = v
		}
		for k, v := range r.counts {
			vals[k] = v
		}
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, max(r.attempted, 1), r.failed, map[string]metric{}}
	for _, s := range specs {
		v := vals[s.Name]
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", s.Name, v, s.Unit)
		out.Metrics[s.Name] = metric{v, s.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func (r *report) failFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

func roundAll(xs []float64, digits int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.*f", digits, x)
	}
	return out
}
