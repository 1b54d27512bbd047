package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"pi2/internal/dataset"
	dt "pi2/internal/difftree"
	"pi2/internal/engine"
	"pi2/internal/iface"
	"pi2/internal/obs"
	"pi2/internal/sqlparser"
	"pi2/internal/transform"
	"pi2/internal/vis"
	"pi2/internal/widget"
)

// recorder is a reusable in-process http.ResponseWriter.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: http.Header{}} }

func (r *recorder) reset() {
	clear(r.hdr)
	r.code = 0
	r.body.Reset()
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}

// manip draws one random manipulation of an interface element as the form
// of a POST to path. Values come from the element's own domain, so every
// draw is a valid manipulation; most numeric draws reach binding states no
// session has seen.
type manip struct {
	path string
	draw func(r *rand.Rand, sess *iface.Session) (url.Values, bool)
}

// manipsFor lists the manipulations an interface offers through HTTP.
// Every draw changes the session's state: enumerating widgets move to
// another option and toggles flip. The server resolves an interaction by
// its source chart and kind, taking the first match, so one manipulation
// is listed per (chart, kind) with that match's target; multiclick is left
// out because the HTTP surface addresses clicks through single-click only.
func manipsFor(ifc *iface.Interface, tctx *transform.Context) []manip {
	lits := boundLiterals(ifc, tctx)
	var out []manip
	for _, w := range ifc.Widgets {
		id, tree, node := w.ElemID, w.Tree, w.NodeID
		switch w.Kind {
		case widget.Radio, widget.Dropdown, widget.Button:
			opts := w.Options
			if len(opts) < 2 {
				continue
			}
			out = append(out, manip{"/widget", func(r *rand.Rand, sess *iface.Session) (url.Values, bool) {
				cur := currentOption(sess.Binding(tree)[node], opts)
				i := r.Intn(len(opts) - 1)
				if i >= cur && cur >= 0 {
					i++
				}
				return url.Values{"id": {id}, "option": {strconv.Itoa(i)}}, true
			}})
		case widget.Toggle:
			out = append(out, manip{"/widget", func(_ *rand.Rand, sess *iface.Session) (url.Values, bool) {
				on := !sess.Binding(tree)[node].Present
				return url.Values{"id": {id}, "on": {strconv.FormatBool(on)}}, true
			}})
		case widget.Slider:
			lo, hi := w.Min, w.Max
			out = append(out, manip{"/widget", func(r *rand.Rand, _ *iface.Session) (url.Values, bool) {
				return url.Values{"id": {id}, "value": {num(lo + r.Float64()*(hi-lo))}}, true
			}})
		case widget.RangeSlider:
			lo, hi := w.Min, w.Max
			out = append(out, manip{"/widget", func(r *rand.Rand, _ *iface.Session) (url.Values, bool) {
				a, b := lo+r.Float64()*(hi-lo), lo+r.Float64()*(hi-lo)
				return url.Values{"id": {id}, "lo": {num(math.Min(a, b))}, "hi": {num(math.Max(a, b))}}, true
			}})
		case widget.Textbox:
			seen := lits[nodeKey{tree, node}]
			if len(seen) == 0 {
				continue
			}
			out = append(out, manip{"/widget", func(r *rand.Rand, _ *iface.Session) (url.Values, bool) {
				return url.Values{"id": {id}, "text": {seen[r.Intn(len(seen))]}}, true
			}})
		case widget.Checkbox, widget.Adder:
			n := len(w.Options)
			if n == 0 {
				continue
			}
			out = append(out, manip{"/widget", func(r *rand.Rand, _ *iface.Session) (url.Values, bool) {
				var idx []string
				for i := 0; i < n; i++ {
					if r.Intn(2) == 0 {
						idx = append(idx, strconv.Itoa(i))
					}
				}
				if len(idx) == 0 {
					idx = append(idx, strconv.Itoa(r.Intn(n)))
				}
				return url.Values{"id": {id}, "checked": {strings.Join(idx, ",")}}, true
			}})
		}
	}
	seen := map[[2]string]bool{}
	for _, v := range ifc.VisInts {
		src := ifc.Vis[v.SourceVis].ElemID
		srcTree := ifc.Vis[v.SourceVis].Tree
		kind := string(v.Kind)
		if v.Kind == vis.MultiClick || seen[[2]string{src, kind}] {
			continue
		}
		seen[[2]string{src, kind}] = true
		if v.Kind == vis.Click {
			out = append(out, manip{"/interact", func(r *rand.Rand, sess *iface.Session) (url.Values, bool) {
				res, err := sess.Result(srcTree)
				if err != nil || len(res.Rows) == 0 {
					return nil, false
				}
				return url.Values{"vis": {src}, "kind": {kind}, "row": {strconv.Itoa(r.Intn(len(res.Rows)))}}, true
			}})
			continue
		}
		target := ifc.State.Trees[v.Tree].Root.Find(v.NodeID)
		if target == nil {
			continue
		}
		var doms [][]string
		for _, c := range target.ChoiceNodes() {
			if c.Kind == dt.KindVal {
				doms = append(doms, lits[nodeKey{v.Tree, c.ID}])
			}
		}
		out = append(out, manip{"/interact", func(r *rand.Rand, _ *iface.Session) (url.Values, bool) {
			return url.Values{"vis": {src}, "kind": {kind}, "bounds": {strings.Join(drawBounds(r, doms), ",")}}, true
		}})
	}
	return out
}

// currentOption is the option index a binding selects, or -1.
func currentOption(bv dt.BindValue, opts []string) int {
	if bv.Lit == "" {
		return bv.Index
	}
	for i, o := range opts {
		if o == bv.Lit {
			return i
		}
	}
	return -1
}

type nodeKey struct{ tree, node int }

// boundLiterals collects, per VAL node, the literals the input queries bind
// it to: the node's observed domain.
func boundLiterals(ifc *iface.Interface, tctx *transform.Context) map[nodeKey][]string {
	out := map[nodeKey][]string{}
	for ti, tree := range ifc.State.Trees {
		qb, ok := tree.Bind(tctx)
		if !ok {
			continue
		}
		for _, b := range qb.PerQuery {
			for id, bv := range b {
				if bv.Lit != "" {
					k := nodeKey{ti, id}
					out[k] = append(out[k], bv.Lit)
				}
			}
		}
	}
	for k, v := range out {
		sort.Strings(v)
		out[k] = v
	}
	return out
}

// drawBounds draws one value per VAL node for a brush, pan or zoom. Bounds
// come in (lo, hi) pairs; each pair is drawn from the union of its two
// nodes' observed literals — uniformly between their extremes, to one
// decimal, when they are numbers, among them when they are strings such as
// dates — and ordered lo ≤ hi.
func drawBounds(r *rand.Rand, doms [][]string) []string {
	out := make([]string, 0, len(doms))
	for i := 0; i < len(doms); i += 2 {
		dom := doms[i]
		if i+1 < len(doms) {
			dom = append(append([]string(nil), dom...), doms[i+1]...)
		}
		a, b := drawValue(r, dom), drawValue(r, dom)
		if i+1 >= len(doms) {
			out = append(out, a)
			break
		}
		if lessLit(b, a) {
			a, b = b, a
		}
		out = append(out, a, b)
	}
	return out
}

func drawValue(r *rand.Rand, dom []string) string {
	if len(dom) == 0 {
		return "0"
	}
	lo, hi, ok := numericRange(dom)
	if !ok {
		return dom[r.Intn(len(dom))]
	}
	return num(lo + r.Float64()*(hi-lo))
}

func numericRange(dom []string) (lo, hi float64, ok bool) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, s := range dom {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, false
		}
		lo, hi = math.Min(lo, f), math.Max(hi, f)
	}
	return lo, hi, true
}

func lessLit(a, b string) bool {
	fa, errA := strconv.ParseFloat(a, 64)
	fb, errB := strconv.ParseFloat(b, 64)
	if errA == nil && errB == nil {
		return fa < fb
	}
	return a < b
}

// num renders a drawn number with one decimal.
func num(f float64) string {
	return strconv.FormatFloat(math.Round(f*10)/10, 'f', -1, 64)
}

// deployment is one generated interface served in-process: a session
// registry over a shared plan cache behind iface.Server's handler.
type deployment struct {
	db     *engine.DB
	reg    *iface.Registry
	h      http.Handler
	manips []manip
	rec    *recorder

	// per-layer accumulation for traced ops
	spans  stopwatch
	traced int
}

func deploy(db *engine.DB, ifc *iface.Interface, tctx *transform.Context, withIngest bool) *deployment {
	pc := iface.NewPlanCache()
	reg := iface.NewRegistry(func() (*iface.Session, error) {
		return iface.NewSessionWithPlans(ifc, tctx, db, pc)
	}, iface.RegistryOptions{Plans: pc})
	sv := iface.NewRegistryServer(reg)
	if withIngest {
		sv.WithIngest(db)
	}
	return &deployment{
		db: db, reg: reg, h: sv.Handler(),
		manips: manipsFor(ifc, tctx), rec: newRecorder(), spans: stopwatch{},
	}
}

func (d *deployment) close() { d.reg.Close() }

// serve runs one request against the handler, optionally with a trace in
// its context, and checks the status.
func (d *deployment) serve(req *http.Request, want int, tr *obs.Trace) error {
	if tr != nil {
		req = req.WithContext(obs.WithTrace(req.Context(), tr))
	}
	d.rec.reset()
	d.h.ServeHTTP(d.rec, req)
	if d.rec.code != want {
		return fmt.Errorf("%s %s: status %d, want %d: %.200s", req.Method, req.URL, d.rec.code, want, d.rec.body.String())
	}
	return nil
}

// interact performs one interaction on the session named key: a random
// manipulation POST (when the interface has one) followed by the page GET.
// It returns the latency of the two requests together and the cache
// traffic they caused.
func (d *deployment) interact(r *rand.Rand, key string, traced bool) (time.Duration, cacheCounts, error) {
	var form url.Values
	path := ""
	if len(d.manips) > 0 {
		m := d.manips[r.Intn(len(d.manips))]
		sess, err := d.reg.Acquire(key)
		if err != nil {
			return 0, cacheCounts{}, err
		}
		if f, ok := m.draw(r, sess); ok {
			form, path = f, m.path
			form.Set("session", key)
		}
	}
	var post *http.Request
	if path != "" {
		var err error
		post, err = http.NewRequest(http.MethodPost, path, strings.NewReader(form.Encode()))
		if err != nil {
			return 0, cacheCounts{}, err
		}
		post.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	get, err := http.NewRequest(http.MethodGet, "/?session="+url.QueryEscape(key), nil)
	if err != nil {
		return 0, cacheCounts{}, err
	}
	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace(key)
	}
	c0 := d.counts()
	t0 := time.Now()
	if post != nil {
		if err := d.serve(post, http.StatusSeeOther, tr); err != nil {
			return 0, cacheCounts{}, err
		}
	}
	if err := d.serve(get, http.StatusOK, tr); err != nil {
		return 0, cacheCounts{}, err
	}
	lat := time.Since(t0)
	delta := d.counts().sub(c0)
	if tr != nil {
		d.traced++
		for _, sp := range tr.Spans() {
			name := sp.Name
			if i := strings.IndexByte(name, '.'); i >= 0 {
				name = name[:i]
			}
			d.spans.add(name, sp.Dur)
		}
	}
	return lat, delta, nil
}

// sample is one served page kept for the interpreter check after the
// measured phase: each tree's SQL, the tables served for it, and the table
// snapshots they were computed from. Snapshots are immutable (writes
// publish new ones), so later writes do not disturb a sample.
type sample struct {
	sqls   []iface.TreeSQL
	served []*engine.Table
	snaps  []*engine.Table
}

// capture records the page the session named key currently serves.
func (d *deployment) capture(key string) (sample, error) {
	sess, ok := d.reg.Lookup(key)
	if !ok {
		return sample{}, fmt.Errorf("check: session %s not live", key)
	}
	served, err := sess.Results()
	if err != nil {
		return sample{}, fmt.Errorf("check: results: %w", err)
	}
	s := sample{sqls: sess.CurrentSQLAll(), served: served}
	for _, name := range d.db.TableNames() {
		t, _ := d.db.Table(name)
		s.snaps = append(s.snaps, t)
	}
	return s, nil
}

// verify compares every served tree with the interpreter's result for its
// SQL over the snapshots it was served from.
func (s sample) verify() error {
	db := engine.NewDB(dataset.Now)
	for _, t := range s.snaps {
		db.Add(t)
	}
	for ti, ts := range s.sqls {
		if ts.Err != nil {
			return fmt.Errorf("check: tree %d: %w", ti, ts.Err)
		}
		want, err := engine.ExecSQL(db, ts.SQL, sqlparser.Parse)
		if err != nil {
			return fmt.Errorf("check: interpreter on %q: %w", ts.SQL, err)
		}
		g := s.served[ti]
		if !reflect.DeepEqual(g.Cols, want.Cols) || !reflect.DeepEqual(g.Types, want.Types) || !reflect.DeepEqual(g.Rows, want.Rows) {
			return fmt.Errorf("check: tree %d served result differs from the interpreter for %q", ti, ts.SQL)
		}
	}
	return nil
}

// cacheCounts is the serving cache traffic the per-layer pass reports.
type cacheCounts struct {
	resultHits, resultMisses, planHits, planMisses, compiles uint64
}

func (d *deployment) counts() cacheCounts {
	st := d.reg.Stats()
	return cacheCounts{st.Cache.ResultHits, st.Cache.ResultMisses, st.Cache.PlanHits, st.Cache.PlanMisses, st.PlanCompiles}
}

func (a cacheCounts) sub(b cacheCounts) cacheCounts {
	return cacheCounts{a.resultHits - b.resultHits, a.resultMisses - b.resultMisses,
		a.planHits - b.planHits, a.planMisses - b.planMisses, a.compiles - b.compiles}
}

func (a *cacheCounts) add(b cacheCounts) {
	a.resultHits += b.resultHits
	a.resultMisses += b.resultMisses
	a.planHits += b.planHits
	a.planMisses += b.planMisses
	a.compiles += b.compiles
}
