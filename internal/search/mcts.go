// Package search implements PI2's single-player Monte Carlo Tree Search
// over Difftree states (paper §6.2): UCT selection with the variance term
// of Eq. (1), full expansion, random rollouts ended by the TERMINATE rule,
// K random-interface-mapping reward estimation, Cadiaplayer-style
// max-reward return, and the parallel-worker / early-stop / synchronization
// optimizations of §6.2.1.
package search

import (
	"math"
	"math/rand"
	"time"

	"pi2/internal/engine"
	"pi2/internal/mapping"
	"pi2/internal/obs"
	"pi2/internal/transform"
)

// Params configures the search; defaults mirror §7.3.
type Params struct {
	EarlyStop    int // es: stop after this many non-improving iterations (default 30)
	Workers      int // p: parallel MCTS workers (default 3)
	SyncInterval int // s: iterations between coordinator syncs (default 10)

	C, D            float64 // UCT exploration and variance constants
	K               int     // random interface mappings per reward (default 5)
	MaxIterations   int     // per-worker iteration cap
	MaxRolloutDepth int     // random playout depth cap
	MaxChildren     int     // branching cap per expansion
	Seed            int64

	ClusterInit bool // partition queries by result schema first (§6.1)
	MaxReturn   bool // return max-reward state (Cadiaplayer) vs best average
	UseVariance bool // include Eq. (1)'s third term

	// Trace, when non-nil, accumulates "search.rollout" and "search.reward"
	// aggregate timers (obs.Trace.AddTimer is concurrency-safe, so all
	// workers feed one trace). Purely observational: the search touches no
	// RNG through it, so traced and untraced runs return identical results.
	Trace *obs.Trace

	MapOpts mapping.Options
}

// DefaultParams returns the paper's default configuration.
func DefaultParams() Params {
	return Params{
		EarlyStop:       30,
		Workers:         3,
		SyncInterval:    10,
		C:               1.4,
		D:               1.0,
		K:               5,
		MaxIterations:   400,
		MaxRolloutDepth: 16,
		MaxChildren:     32,
		Seed:            1,
		ClusterInit:     true,
		MaxReturn:       true,
		UseVariance:     true,
		MapOpts:         mapping.DefaultOptions(),
	}
}

// Result reports the search outcome.
type Result struct {
	State      *transform.State
	BestReward float64
	Iterations int // total iterations across workers
	Rollouts   int
}

// failReward marks states that admit no valid interface mapping.
const failReward = -1e9

type node struct {
	state    *transform.State
	children []*node
	visits   int
	sum      float64
	sumSq    float64
	expanded bool
	terminal bool
}

// worker is one independent MCTS instance.
type worker struct {
	root    *node
	rng     *rand.Rand
	p       Params
	ctx     *transform.Context
	db      *engine.DB
	best    *transform.State
	bestR   float64
	seen    map[uint64]bool
	rewards *rewardCache // shared across workers
	iters   int
	rolls   int
	stale   int // iterations since the local best improved

	// reused scratch buffers for the selection path and rule enumeration,
	// avoiding per-iteration (and per-rollout-step) slice churn.
	path []*node
	apps []transform.Application

	// running reward range for UCT normalization: rewards live on the cost
	// model's scale (thousands), so Eq. (1)'s constants only make sense
	// after mapping means and variances into [0, 1].
	minR, maxR float64
	haveRange  bool
}

// newWorker builds one MCTS instance over the reward cache shared across
// workers; p.MapOpts.Exec carries the shared safety-check execution cache.
func newWorker(ctx *transform.Context, db *engine.DB, p Params, seed int64, rewards *rewardCache) *worker {
	init := transform.InitState(ctx, p.ClusterInit)
	w := &worker{
		root:    &node{state: init},
		rng:     rand.New(rand.NewSource(seed)),
		p:       p,
		ctx:     ctx,
		db:      db,
		bestR:   math.Inf(-1),
		seen:    map[uint64]bool{init.Hash(): true},
		rewards: rewards,
	}
	return w
}

// reward estimates a state's reward as the negative of the minimum cost
// over K random interface mappings (§6.2.1 step 4), memoized per state
// across all workers. The estimate is a pure function of (Params.Seed,
// state): the sampling RNG is derived from the state hash, not from the
// worker's rollout RNG, so whichever worker computes it first stores the
// value every other worker would have computed.
func (w *worker) reward(s *transform.State) float64 {
	h := s.Hash()
	r := w.rewards.get(h, func() float64 { return w.rewardUncached(s, h) })
	// The normalization range stays worker-local (it feeds this worker's UCT
	// scores) and is updated on every observation, hit or miss.
	if r != failReward {
		if !w.haveRange {
			w.minR, w.maxR, w.haveRange = r, r, true
		} else {
			if r < w.minR {
				w.minR = r
			}
			if r > w.maxR {
				w.maxR = r
			}
		}
	}
	return r
}

// norm maps a reward into [0, 1] using the observed range; failed states
// land below every real reward.
func (w *worker) norm(r float64) float64 {
	if r == failReward {
		return -1
	}
	if !w.haveRange || w.maxR == w.minR {
		return 0.5
	}
	return (r - w.minR) / (w.maxR - w.minR)
}

func (w *worker) rewardUncached(s *transform.State, h uint64) float64 {
	if w.p.Trace != nil {
		defer func(t0 time.Time) { w.p.Trace.AddTimer("search.reward", time.Since(t0)) }(time.Now())
	}
	sa, err := mapping.Analyze(s, w.ctx)
	if err != nil {
		return failReward
	}
	// Per-state RNG: the K−1 random samples draw from a stream seeded by
	// (Seed, state hash), making the estimate reproducible across workers
	// and runs regardless of which worker evaluates the state first.
	rng := rand.New(rand.NewSource(w.p.Seed ^ int64(h)))
	best := math.Inf(1)
	got := false
	// one greedy sample anchors the estimate; the remaining K−1 samples are
	// random per the paper's procedure.
	if ifc, ok := mapping.Greedy(sa, w.db, w.p.MapOpts); ok {
		best = ifc.Cost
		got = true
	}
	for i := 1; i < w.p.K; i++ {
		ifc, ok := mapping.Random(sa, w.db, rng, w.p.MapOpts)
		if !ok {
			continue
		}
		got = true
		if ifc.Cost < best {
			best = ifc.Cost
		}
	}
	if !got {
		return failReward
	}
	return -best
}

// observe records a new local best. States are immutable once published
// (see transform.State), so the pointer is kept as-is — no defensive clone.
func (w *worker) observe(s *transform.State, r float64) {
	if r > w.bestR {
		w.bestR = r
		w.best = s
		w.stale = 0
	}
}

// fpu is the "first play urgency": unvisited children get this optimistic
// normalized value instead of infinite priority, so selection can deepen
// along improving paths without first visiting every sibling (the Difftree
// search needs chains a dozen rules deep; paper §6.2's massive space).
const fpu = 1.15

// uct scores a child per Eq. (1), over range-normalized rewards.
func (w *worker) uct(parent, child *node) float64 {
	if child.visits == 0 {
		return fpu + w.p.C*math.Sqrt(math.Log(float64(parent.visits+1)))
	}
	span := w.maxR - w.minR
	if !w.haveRange || span == 0 {
		span = 1
	}
	mean := child.sum / float64(child.visits)
	nMean := (mean - w.minR) / span
	v := nMean + w.p.C*math.Sqrt(math.Log(float64(parent.visits))/float64(child.visits))
	if w.p.UseVariance {
		varTerm := (child.sumSq - float64(child.visits)*mean*mean) / float64(child.visits)
		if varTerm < 0 {
			varTerm = 0
		}
		varTerm /= span * span
		v += math.Sqrt(varTerm + w.p.D/float64(child.visits))
	}
	return v
}

// expand adds all children of a leaf: the result of every valid rule
// application plus the TERMINATE transition. Applications are interleaved
// across trees so the branching cap cannot starve later trees of their
// transforms.
func (w *worker) expand(n *node) {
	apps := interleaveByTree(transform.Applicable(n.state, w.ctx))
	count := 0
	for _, a := range apps {
		if w.p.MaxChildren > 0 && count >= w.p.MaxChildren {
			break
		}
		next, ok := a.Run()
		if !ok {
			continue
		}
		h := next.Hash()
		if w.seen[h] {
			continue
		}
		w.seen[h] = true
		n.children = append(n.children, &node{state: next})
		count++
	}
	// TERMINATE: a terminal copy of the state
	n.children = append(n.children, &node{state: n.state, terminal: true})
	n.expanded = true
}

// interleaveByTree round-robins rule applications across the state's trees
// (cross-tree rules keep their primary tree's slot) so no tree's rewrites
// are starved by the branching cap.
func interleaveByTree(apps []transform.Application) []transform.Application {
	groups := map[int][]transform.Application{}
	maxTree := 0
	for _, a := range apps {
		groups[a.Tree] = append(groups[a.Tree], a)
		if a.Tree > maxTree {
			maxTree = a.Tree
		}
	}
	out := make([]transform.Application, 0, len(apps))
	for len(out) < len(apps) {
		for t := 0; t <= maxTree; t++ {
			if len(groups[t]) > 0 {
				out = append(out, groups[t][0])
				groups[t] = groups[t][1:]
			}
		}
	}
	return out
}

// ruleWeight biases random playouts toward refactoring/mutation rules;
// cross-tree restructuring is explored but less frequently.
func ruleWeight(rule string) int {
	switch rule {
	case "Merge", "Split":
		return 1
	case "PushANY":
		return 8
	case "ANY→VAL", "PushOPT1", "PushOPT2", "OptIntro":
		return 5
	default:
		return 3
	}
}

// rollout plays random transforms from the state until TERMINATE is chosen,
// no rule applies, or the depth cap is reached. Every visited state is
// evaluated (the paper returns the state with the maximum reward
// encountered *during rollouts*, §6.2.1); rollout returns that maximum.
func (w *worker) rollout(s *transform.State) float64 {
	cur := s
	best := w.reward(cur)
	w.observe(cur, best)
	for depth := 0; depth < w.p.MaxRolloutDepth; depth++ {
		w.apps = transform.AppendApplicable(w.apps[:0], cur, w.ctx)
		apps := w.apps
		if len(apps) == 0 {
			return best
		}
		// weighted random choice; TERMINATE holds one unit of weight
		total := 1
		for _, a := range apps {
			total += ruleWeight(a.Rule)
		}
		pick := w.rng.Intn(total)
		if pick == 0 {
			return best // TERMINATE
		}
		pick--
		start := 0
		for i, a := range apps {
			wgt := ruleWeight(a.Rule)
			if pick < wgt {
				start = i
				break
			}
			pick -= wgt
		}
		// try applications starting from the chosen index (failed ones are
		// skipped rather than retried forever)
		applied := false
		for off := 0; off < len(apps); off++ {
			a := apps[(start+off)%len(apps)]
			if next, ok := a.Run(); ok {
				cur = next
				applied = true
				break
			}
		}
		if !applied {
			return best
		}
		r := w.reward(cur)
		w.observe(cur, r)
		if r > best {
			best = r
		}
	}
	return best
}

// iterate runs one MCTS iteration: select, expand, simulate, backpropagate.
func (w *worker) iterate() {
	w.iters++
	w.stale++
	// 1. select
	path := append(w.path[:0], w.root)
	cur := w.root
	for cur.expanded && !cur.terminal && len(cur.children) > 0 {
		var best *node
		bestScore := math.Inf(-1)
		for _, c := range cur.children {
			s := w.uct(cur, c)
			if s > bestScore {
				bestScore = s
				best = c
			}
		}
		cur = best
		path = append(path, cur)
	}
	// 2. expand
	simulateFrom := cur
	if !cur.terminal && !cur.expanded {
		w.expand(cur)
		if len(cur.children) > 0 {
			child := cur.children[w.rng.Intn(len(cur.children))]
			path = append(path, child)
			simulateFrom = child
		}
	}
	// 3. simulate
	var r float64
	if simulateFrom.terminal {
		r = w.reward(simulateFrom.state)
		w.observe(simulateFrom.state, r)
	} else {
		if w.p.Trace != nil {
			t0 := time.Now()
			r = w.rollout(simulateFrom.state)
			w.p.Trace.AddTimer("search.rollout", time.Since(t0))
		} else {
			r = w.rollout(simulateFrom.state)
		}
		w.rolls++
	}
	// 4. backpropagate
	for _, n := range path {
		n.visits++
		n.sum += r
		n.sumSq += r * r
	}
	w.path = path // keep the (possibly grown) buffer for the next iteration
}

// done reports whether the worker hit its local stopping condition.
func (w *worker) done() bool {
	if w.iters >= w.p.MaxIterations {
		return true
	}
	if w.p.EarlyStop > 0 && w.stale >= w.p.EarlyStop {
		return true
	}
	// all root children terminal
	if w.root.expanded {
		allTerm := true
		for _, c := range w.root.children {
			if !c.terminal {
				allTerm = false
				break
			}
		}
		if allTerm && len(w.root.children) > 0 {
			return true
		}
	}
	return false
}

// Run executes the parallel MCTS (§6.2.1): p workers search independently
// and synchronize through a coordinator every s iterations, exchanging the
// best state found; the search stops when every worker reports early-stop
// and no higher-reward state arrives.
func Run(ctx *transform.Context, db *engine.DB, p Params) *Result {
	if p.Workers < 1 {
		p.Workers = 1
	}
	if p.SyncInterval < 1 {
		p.SyncInterval = 10
	}
	// Cross-worker caches: one reward memo and one safety-check execution
	// cache serve all workers (the DB is read-only during search), so a
	// state reached by several workers is rewarded exactly once and a
	// safety query executes once. Sharing cannot change the result because
	// reward estimates are a pure function of (Seed, state).
	rewards := newRewardCache()
	if p.MapOpts.Exec == nil && p.MapOpts.CheckSafety {
		p.MapOpts.Exec = mapping.NewExecCache(db)
	}
	workers := make([]*worker, p.Workers)
	for i := range workers {
		workers[i] = newWorker(ctx, db, p, p.Seed+int64(i)*7919, rewards)
	}

	type report struct {
		best  *transform.State
		r     float64
		done  bool
		iters int
		rolls int
	}
	globalBest := math.Inf(-1)
	var globalState *transform.State
	totalIters, totalRolls := 0, 0

	// lock-step rounds: each worker runs s iterations concurrently, then
	// the coordinator gathers and redistributes the best state. Reports are
	// processed in worker order so ties break deterministically and repeat
	// runs with the same seed return the same state. States are immutable
	// once published, so the coordinator and the workers share pointers
	// instead of cloning on every exchange.
	for round := 0; ; round++ {
		reports := make([]report, len(workers))
		done := make(chan int, len(workers))
		for wi, w := range workers {
			go func(wi int, w *worker) {
				for i := 0; i < p.SyncInterval && !w.done(); i++ {
					w.iterate()
				}
				reports[wi] = report{best: w.best, r: w.bestR, done: w.done(), iters: w.iters, rolls: w.rolls}
				done <- wi
			}(wi, w)
		}
		for range workers {
			<-done
		}
		allDone := true
		totalIters, totalRolls = 0, 0
		for _, rep := range reports {
			totalIters += rep.iters
			totalRolls += rep.rolls
			if rep.r > globalBest && rep.best != nil {
				globalBest = rep.r
				globalState = rep.best
			}
			if !rep.done {
				allDone = false
			}
		}
		// distribute the maximum-reward state back to the workers
		for _, w := range workers {
			if globalState != nil && globalBest > w.bestR {
				w.bestR = globalBest
				w.best = globalState
			}
		}
		// Termination rule: the search ends on the first round in which
		// every worker reports its local stopping condition (iteration cap,
		// early stop, or exhausted root). An incoming better state does not
		// restart a stopped worker — workers only ever *record* received
		// bests — so "all done" alone decides; there is no separate
		// "improved" condition.
		if allDone {
			break
		}
	}

	if !p.MaxReturn {
		// ablation: traditional MCTS returns the state with the highest
		// average reward among visited tree nodes instead of the maximum
		// reward encountered (Cadiaplayer).
		bestAvg := math.Inf(-1)
		var bestState *transform.State
		for _, w := range workers {
			var walk func(n *node)
			walk = func(n *node) {
				if n.visits > 0 {
					avg := n.sum / float64(n.visits)
					if avg > bestAvg {
						bestAvg = avg
						bestState = n.state
					}
				}
				for _, c := range n.children {
					walk(c)
				}
			}
			walk(w.root)
		}
		if bestState != nil {
			return &Result{State: bestState.Clone(), BestReward: bestAvg, Iterations: totalIters, Rollouts: totalRolls}
		}
	}
	if globalState == nil {
		// no valid mapping anywhere: fall back to the initial state
		globalState = transform.InitState(ctx, p.ClusterInit)
	}
	// One defensive clone at the boundary: the returned state escapes to the
	// caller while the internal one may alias search-tree nodes.
	return &Result{State: globalState.Clone(), BestReward: globalBest, Iterations: totalIters, Rollouts: totalRolls}
}
