package iface

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	dt "pi2/internal/difftree"
	"pi2/internal/engine"
	"pi2/internal/obs"
	"pi2/internal/sqlparser"
	"pi2/internal/transform"
)

// Session is the interaction runtime: the in-process stand-in for the
// browser (DESIGN.md §4). It holds the current binding of every Difftree;
// manipulating a widget or visualization interaction routes an event tuple
// to the covered choice nodes (paper §4.2.1), after which the bound queries
// re-resolve and re-execute.
//
// A session keeps its bindings and no tables. Each read resolves the tree
// under its binding and asks the PlanCache, which keys compiled plans and
// their results by the resolved query (so distinct binding states that
// resolve to the same SQL share one plan and one result, and repeated
// widget events — a slider dragged back and forth, a filter toggled — skip
// planning and execution). Entries validate per use against the generations
// of the tables they read (engine.Plan.Stale), so a live write invalidates
// only the plans and results over the written table; everything else stays
// warm. All exported methods lock a per-session mutex, so one Session can
// serve concurrent HTTP requests.
//
// Under a Registry, many sessions run side by side: each keeps its own
// bindings and mutex, while they share one PlanCache (NewSessionWithPlans),
// so the fleet compiles and executes each distinct resolved query once per
// table generation.
type Session struct {
	Ifc *Interface
	Ctx *transform.Context
	DB  *engine.DB

	mu       sync.Mutex
	bindings []dt.Binding // per tree

	// resolved memoizes, per tree, the resolved query of recent binding
	// states (binding-key hash -> AST), so a state the session returns to
	// skips Resolve and re-hashing.
	resolved []*lruCache[uint64, resolvedAST]

	plans *PlanCache // resolved-AST hash -> compiled plan and its result

	// execHook, when set, runs between plan resolution and execution on
	// every attempt that executes, on the cached-execution and explain
	// paths. Test-only: it lets the mutated-mid-request window be exercised
	// deterministically.
	execHook func()
}

// NewSession initializes the runtime with each tree bound to its first
// input query (the interface's initial state) and a PlanCache of its own.
func NewSession(ifc *Interface, ctx *transform.Context, db *engine.DB) (*Session, error) {
	return NewSessionWithPlans(ifc, ctx, db, nil)
}

// NewSessionWithPlans is NewSession with a shared plan cache: compiled
// plans and their results are looked up in (and published to) plans, so a
// fleet of sessions over one interface compiles and executes each distinct
// resolved query once. A nil plans gives the session a PlanCache of its
// own, as NewSession does.
func NewSessionWithPlans(ifc *Interface, ctx *transform.Context, db *engine.DB, plans *PlanCache) (*Session, error) {
	if plans == nil {
		plans = NewPlanCache()
	}
	s := &Session{Ifc: ifc, Ctx: ctx, DB: db, plans: plans}
	for ti, tree := range ifc.State.Trees {
		qb, ok := tree.Bind(ctx)
		if !ok || len(qb.PerQuery) == 0 {
			return nil, fmt.Errorf("iface: tree %d has no query binding", ti)
		}
		s.bindings = append(s.bindings, qb.PerQuery[0].Clone())
		s.resolved = append(s.resolved, newLRU[uint64, resolvedAST](maxResolvedPerTree))
	}
	return s, nil
}

// Stats returns a snapshot of the counters of the session's PlanCache: with
// a shared cache, the traffic of every session sharing it. It is lock-free
// (the counters are atomics), so monitoring never blocks on — and never
// blocks — an in-flight interaction holding the session mutex.
func (s *Session) Stats() CacheStats { return s.plans.stats() }

// Binding exposes the current binding of a tree (for tests). It returns a
// deep copy: the live map is mutated in place by widget events, so handing
// it out would leak unsynchronized interior state past the session mutex.
func (s *Session) Binding(tree int) dt.Binding {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bindings[tree].Clone()
}

// CurrentSQL resolves a tree under its current binding and renders SQL.
func (s *Session) CurrentSQL(tree int) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ast, err := dt.Resolve(s.Ifc.State.Trees[tree].Root, s.bindings[tree])
	if err != nil {
		return "", err
	}
	return sqlparser.ToSQL(ast), nil
}

// TreeSQL is one tree's rendered SQL (or the resolution error) from an
// atomic CurrentSQLAll snapshot.
type TreeSQL struct {
	SQL string
	Err error
}

// CurrentSQLAll resolves every tree under one lock acquisition, so the
// snapshot is consistent even while concurrent requests rebind widgets.
func (s *Session) CurrentSQLAll() []TreeSQL {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TreeSQL, len(s.bindings))
	for ti, tree := range s.Ifc.State.Trees {
		ast, err := dt.Resolve(tree.Root, s.bindings[ti])
		if err != nil {
			out[ti] = TreeSQL{Err: err}
			continue
		}
		out[ti] = TreeSQL{SQL: sqlparser.ToSQL(ast)}
	}
	return out
}

// Results executes every tree under its current binding, serving resolved
// queries some session already executed from the PlanCache. The returned
// tables are shared with the cache (and across callers and sessions): treat
// them as immutable.
func (s *Session) Results() ([]*engine.Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resultsLocked(nil)
}

// ResultsTraced is Results with a request trace attached: each tree that
// finds no kept result records "plan.tN" and "exec.tN" spans, so a slow
// request's log shows exactly which tree recompiled or re-executed. A nil
// trace makes it exactly Results.
func (s *Session) ResultsTraced(tr *obs.Trace) ([]*engine.Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resultsLocked(tr)
}

func (s *Session) resultsLocked(tr *obs.Trace) ([]*engine.Table, error) {
	out := make([]*engine.Table, len(s.bindings))
	for ti := range s.bindings {
		res, err := s.resultLocked(ti, tr)
		if err != nil {
			return nil, err
		}
		out[ti] = res
	}
	return out, nil
}

// Result executes one tree (cached like Results; the returned table is
// shared with the cache — treat it as immutable).
func (s *Session) Result(tree int) (*engine.Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resultLocked(tree, nil)
}

// ExplainAnalyze resolves one tree under its current binding and executes it
// with per-operator profiling (engine.Plan.ExecProfiled). The plan comes
// through the normal plan-cache path, but its kept result is bypassed in
// both directions — profiling only means anything when the query actually
// runs — and left untouched, so explaining never perturbs serving state.
// If the DB mutates between plan resolution and the profiled execution, the
// plan is re-resolved and retried; a sustained writer eventually surfaces
// engine.ErrStalePlan, which the HTTP layer maps to a client error, not a
// 500.
func (s *Session) ExplainAnalyze(tree int) (string, *engine.Profile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tree < 0 || tree >= len(s.bindings) {
		return "", nil, fmt.Errorf("iface: tree %d out of range", tree)
	}
	ast, err := dt.Resolve(s.Ifc.State.Trees[tree].Root, s.bindings[tree])
	if err != nil {
		return "", nil, err
	}
	for attempt := 0; ; attempt++ {
		plan, err := s.plans.Get(s.DB, ast)
		if err != nil {
			return "", nil, err
		}
		if s.execHook != nil {
			s.execHook()
		}
		_, prof, err := plan.ExecProfiled()
		if err == nil {
			return sqlparser.ToSQL(ast), prof, nil
		}
		if !errors.Is(err, engine.ErrStalePlan) || attempt >= execStaleRetries {
			return "", nil, err
		}
	}
}

// ExplainPlan resolves one tree under its current binding and renders the
// compiled plan without executing it (engine.Plan.Explain): access paths and
// their statistics estimates, join strategy and build sides, predicate
// placement. The plan comes through the normal plan-cache path; no result is
// produced and no cache is touched beyond that.
func (s *Session) ExplainPlan(tree int) (string, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tree < 0 || tree >= len(s.bindings) {
		return "", "", fmt.Errorf("iface: tree %d out of range", tree)
	}
	ast, err := dt.Resolve(s.Ifc.State.Trees[tree].Root, s.bindings[tree])
	if err != nil {
		return "", "", err
	}
	plan, err := s.plans.Get(s.DB, ast)
	if err != nil {
		return "", "", err
	}
	return sqlparser.ToSQL(ast), plan.Explain(), nil
}

// resolvedAST is one memoized resolution; key, the canonical binding key,
// guards against 64-bit hash collisions.
type resolvedAST struct {
	key string
	ast *dt.Node
}

// maxResolvedPerTree bounds each tree's resolution memo. It holds ASTs, not
// tables, and only needs to cover the few states a user moves between.
const maxResolvedPerTree = 16

// resolveLocked returns the tree's resolved query under its current binding.
func (s *Session) resolveLocked(tree int) (*dt.Node, error) {
	b := s.bindings[tree]
	key := b.KeyString()
	h := dt.HashKey(key)
	if r, ok := s.resolved[tree].get(h); ok && r.key == key {
		return r.ast, nil
	}
	ast, err := dt.Resolve(s.Ifc.State.Trees[tree].Root, b)
	if err != nil {
		return nil, err
	}
	s.resolved[tree].put(h, resolvedAST{key: key, ast: ast})
	return ast, nil
}

// execStaleRetries bounds how many times the execution paths re-resolve a
// plan that went stale between resolution and execution (a live writer hit
// the window). Past the bound the engine.ErrStalePlan surfaces to the
// caller, which maps it to a retryable client error at the HTTP layer.
const execStaleRetries = 3

// resultLocked is the cached execution path for one tree: resolve the
// binding (resolveLocked), then ask the PlanCache for the resolved query's
// entry (compiling on miss) and its kept result (executing on miss, once
// across sessions). Entries are served only while the tables they read are
// unchanged, so a write to one table drops only the results over that
// table. Each call counts one result hit (nothing executed on its behalf)
// or miss in the PlanCache. tr (nil on untraced calls) receives plan/exec
// spans only when no kept result answers.
//
// Called with the session mutex held; the cache takes only its own shard
// lock underneath (see the locking hierarchy in ARCHITECTURE.md).
func (s *Session) resultLocked(tree int, tr *obs.Trace) (*engine.Table, error) {
	var end func()
	if tr != nil {
		end = tr.Span("plan.t" + strconv.Itoa(tree))
	}
	ast, err := s.resolveLocked(tree)
	if err != nil {
		s.plans.resultMisses.Add(1)
		return nil, err
	}
	executed := false
	for attempt := 0; ; attempt++ {
		e, sh, compiled := s.plans.entry(s.DB, ast)
		if e.err != nil {
			s.plans.resultMisses.Add(1)
			return nil, e.err
		}
		if tbl, ok := sh.kept(e); ok {
			s.plans.countResult(executed)
			return tbl, nil
		}
		if end != nil {
			end()
		}
		if tr != nil {
			end = tr.Span("exec.t" + strconv.Itoa(tree))
		}
		tbl, ran, err := s.plans.result(sh, e, s.execHook)
		if end != nil {
			end()
			end = nil
		}
		if ran && !compiled {
			s.plans.planHits.Add(1)
		}
		executed = executed || ran
		if err == nil {
			s.plans.countResult(executed)
			return tbl, nil
		}
		if !errors.Is(err, engine.ErrStalePlan) || attempt >= execStaleRetries {
			s.plans.resultMisses.Add(1)
			return nil, err
		}
	}
}

func (s *Session) widget(elemID string) (*WidgetSpec, error) {
	for i := range s.Ifc.Widgets {
		if s.Ifc.Widgets[i].ElemID == elemID {
			return &s.Ifc.Widgets[i], nil
		}
	}
	return nil, fmt.Errorf("iface: no widget %q", elemID)
}

func (s *Session) node(tree, id int) (*dt.Node, error) {
	n := s.Ifc.State.Trees[tree].Root.Find(id)
	if n == nil {
		return nil, fmt.Errorf("iface: node %d missing in tree %d", id, tree)
	}
	return n, nil
}

// SetOption binds an enumerating widget (radio, dropdown, button, also
// checkbox-as-single) to its i-th option.
func (s *Session) SetOption(elemID string, option int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, err := s.widget(elemID)
	if err != nil {
		return err
	}
	n, err := s.node(w.Tree, w.NodeID)
	if err != nil {
		return err
	}
	switch n.Kind {
	case dt.KindAny:
		if option < 0 || option >= len(n.Children) {
			return fmt.Errorf("iface: option %d out of range", option)
		}
		s.bindings[w.Tree][n.ID] = dt.BindValue{Index: option}
		return nil
	case dt.KindVal:
		if option < 0 || option >= len(w.Options) {
			return fmt.Errorf("iface: option %d out of range", option)
		}
		kind := dt.KindString
		if w.Kind == "dropdown" && isNumeric(w.Options[option]) {
			kind = dt.KindNumber
		}
		s.bindings[w.Tree][n.ID] = dt.BindValue{Lit: w.Options[option], LitKind: kind}
		return nil
	}
	return fmt.Errorf("iface: SetOption unsupported for node kind %v", n.Kind)
}

// SetToggle binds a toggle's OPT node.
func (s *Session) SetToggle(elemID string, on bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, err := s.widget(elemID)
	if err != nil {
		return err
	}
	n, err := s.node(w.Tree, w.NodeID)
	if err != nil {
		return err
	}
	if n.Kind != dt.KindOpt {
		return fmt.Errorf("iface: SetToggle on non-OPT node")
	}
	s.bindings[w.Tree][n.ID] = dt.BindValue{Present: on}
	if on {
		// nested choice nodes need bindings; default them to the first
		// query that has the OPT present.
		s.defaultSubtree(w.Tree, n)
	}
	return nil
}

// SetSlider binds a numeric VAL.
func (s *Session) SetSlider(elemID string, v float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, err := s.widget(elemID)
	if err != nil {
		return err
	}
	n, err := s.node(w.Tree, w.NodeID)
	if err != nil {
		return err
	}
	if n.Kind != dt.KindVal {
		return fmt.Errorf("iface: SetSlider on non-VAL node")
	}
	s.bindings[w.Tree][n.ID] = dt.BindValue{Lit: formatNum(v), LitKind: dt.KindNumber}
	return nil
}

// SetText binds a textbox VAL.
func (s *Session) SetText(elemID, text string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, err := s.widget(elemID)
	if err != nil {
		return err
	}
	n, err := s.node(w.Tree, w.NodeID)
	if err != nil {
		return err
	}
	if n.Kind != dt.KindVal {
		return fmt.Errorf("iface: SetText on non-VAL node")
	}
	kind := dt.KindString
	if n.Label == "num" {
		if !isNumeric(text) {
			return fmt.Errorf("iface: %q is not numeric", text)
		}
		kind = dt.KindNumber
	}
	s.bindings[w.Tree][n.ID] = dt.BindValue{Lit: text, LitKind: kind}
	return nil
}

// SetRange binds a range slider (two covered VAL nodes, lo ≤ hi).
func (s *Session) SetRange(elemID string, lo, hi float64) error {
	if lo > hi {
		return fmt.Errorf("iface: range slider requires lo <= hi")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w, err := s.widget(elemID)
	if err != nil {
		return err
	}
	n, err := s.node(w.Tree, w.NodeID)
	if err != nil {
		return err
	}
	vals := valNodes(n)
	if len(vals) != 2 {
		return fmt.Errorf("iface: range slider covers %d VALs, want 2", len(vals))
	}
	s.bindings[w.Tree][vals[0].ID] = dt.BindValue{Lit: formatNum(lo), LitKind: dt.KindNumber}
	s.bindings[w.Tree][vals[1].ID] = dt.BindValue{Lit: formatNum(hi), LitKind: dt.KindNumber}
	return nil
}

// SetChecked binds a checkbox list: a SUBSET selection or MULTI repetitions.
func (s *Session) SetChecked(elemID string, options []int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, err := s.widget(elemID)
	if err != nil {
		return err
	}
	n, err := s.node(w.Tree, w.NodeID)
	if err != nil {
		return err
	}
	switch n.Kind {
	case dt.KindSubset:
		idx := append([]int(nil), options...)
		s.bindings[w.Tree][n.ID] = dt.BindValue{Indices: idx}
		return nil
	case dt.KindMulti:
		pattern := n.Children[0]
		var reps []dt.Binding
		for _, o := range options {
			rep := dt.Binding{}
			if pattern.Kind == dt.KindAny {
				if o < 0 || o >= len(pattern.Children) {
					return fmt.Errorf("iface: option %d out of range", o)
				}
				rep[pattern.ID] = dt.BindValue{Index: o}
			}
			reps = append(reps, rep)
		}
		s.bindings[w.Tree][n.ID] = dt.BindValue{Reps: reps}
		return nil
	}
	return fmt.Errorf("iface: SetChecked unsupported for node kind %v", n.Kind)
}

// visInt locates a mapped visualization interaction.
func (s *Session) visInt(sourceElem string, kind string) (*VisIntSpec, error) {
	for i := range s.Ifc.VisInts {
		v := &s.Ifc.VisInts[i]
		if s.Ifc.Vis[v.SourceVis].ElemID == sourceElem && string(v.Kind) == kind {
			return v, nil
		}
	}
	return nil, fmt.Errorf("iface: no %s interaction on %s", kind, sourceElem)
}

// Click simulates clicking the i-th rendered mark of a chart; the event
// value (the mark's value for the stream's column) binds the target VAL.
func (s *Session) Click(sourceElem string, row int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, err := s.visInt(sourceElem, "click")
	if err != nil {
		return err
	}
	srcTree := s.Ifc.Vis[v.SourceVis].Tree
	res, err := s.resultLocked(srcTree, nil)
	if err != nil {
		return err
	}
	if row < 0 || row >= len(res.Rows) {
		return fmt.Errorf("iface: row %d out of range (%d rows)", row, len(res.Rows))
	}
	val := res.Rows[row][v.Cols[0]]
	n, err := s.node(v.Tree, v.NodeID)
	if err != nil {
		return err
	}
	kind := dt.KindString
	if !val.IsStr {
		kind = dt.KindNumber
	}
	s.bindings[v.Tree][n.ID] = dt.BindValue{Lit: val.Text(), LitKind: kind}
	return nil
}

// Brush simulates a 1-D or 2-D brush / pan / zoom: bounds bind the covered
// VAL nodes in order; an OPT wrapper becomes present.
func (s *Session) Brush(sourceElem string, kind string, bounds ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, err := s.visInt(sourceElem, kind)
	if err != nil {
		return err
	}
	n, err := s.node(v.Tree, v.NodeID)
	if err != nil {
		return err
	}
	if n.Kind == dt.KindOpt {
		s.bindings[v.Tree][n.ID] = dt.BindValue{Present: true}
	}
	vals := valNodes(n)
	if len(vals) != len(bounds) {
		return fmt.Errorf("iface: %d bounds for %d VAL nodes", len(bounds), len(vals))
	}
	for i, b := range bounds {
		kind := dt.KindString
		if isNumeric(b) {
			kind = dt.KindNumber
		}
		s.bindings[v.Tree][vals[i].ID] = dt.BindValue{Lit: b, LitKind: kind}
	}
	return nil
}

// ClearBrush simulates clearing a togglable brush: the OPT target resolves
// absent (paper §7.1: "clearing the brush disables the predicate").
func (s *Session) ClearBrush(sourceElem string, kind string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, err := s.visInt(sourceElem, kind)
	if err != nil {
		return err
	}
	n, err := s.node(v.Tree, v.NodeID)
	if err != nil {
		return err
	}
	if n.Kind != dt.KindOpt {
		return fmt.Errorf("iface: interaction target is not optional")
	}
	s.bindings[v.Tree][n.ID] = dt.BindValue{Present: false}
	return nil
}

// ApplyQuery sets every tree that expresses the qi-th input query to that
// query's binding — the runtime face of the paper's expressiveness
// guarantee: for every input query there is a set of manipulations that
// reproduces it exactly.
func (s *Session) ApplyQuery(qi int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyQueryLocked(qi)
}

func (s *Session) applyQueryLocked(qi int) error {
	if qi < 0 || qi >= len(s.Ctx.Queries) {
		return fmt.Errorf("iface: query %d out of range", qi)
	}
	for ti, tree := range s.Ifc.State.Trees {
		pos := -1
		for i, q := range tree.Queries {
			if q == qi {
				pos = i
				break
			}
		}
		if pos < 0 {
			continue
		}
		qb, ok := tree.Bind(s.Ctx)
		if !ok {
			return fmt.Errorf("iface: tree %d lost its bindings", ti)
		}
		s.bindings[ti] = qb.PerQuery[pos].Clone()
	}
	return nil
}

// ExpressesAll verifies the guarantee end to end: applying each input
// query's bindings must resolve its tree to exactly that query.
func (s *Session) ExpressesAll() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for qi, q := range s.Ctx.Queries {
		if err := s.applyQueryLocked(qi); err != nil {
			return err
		}
		for ti, tree := range s.Ifc.State.Trees {
			expressed := false
			for _, tq := range tree.Queries {
				if tq == qi {
					expressed = true
					break
				}
			}
			if !expressed {
				continue
			}
			ast, err := dt.Resolve(tree.Root, s.bindings[ti])
			if err != nil {
				return fmt.Errorf("iface: tree %d query %d: %w", ti, qi, err)
			}
			if !dt.Equal(ast, q) {
				return fmt.Errorf("iface: tree %d resolves query %d to %q, want %q",
					ti, qi, sqlparser.ToSQL(ast), sqlparser.ToSQL(q))
			}
		}
	}
	return nil
}

// defaultSubtree fills missing bindings under a node from the first input
// query whose binding covers them.
func (s *Session) defaultSubtree(tree int, n *dt.Node) {
	qb, ok := s.Ifc.State.Trees[tree].Bind(s.Ctx)
	if !ok {
		return
	}
	for _, c := range n.ChoiceNodes() {
		if _, bound := s.bindings[tree][c.ID]; bound {
			continue
		}
		for _, b := range qb.PerQuery {
			if v, ok := b[c.ID]; ok {
				s.bindings[tree][c.ID] = v.Clone()
				break
			}
		}
	}
}

func valNodes(n *dt.Node) []*dt.Node {
	var out []*dt.Node
	for _, c := range n.ChoiceNodes() {
		if c.Kind == dt.KindVal {
			out = append(out, c)
		}
	}
	return out
}

func isNumeric(s string) bool {
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}

func formatNum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
