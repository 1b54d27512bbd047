package engine

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"
)

// Profile is the per-operator execution report behind EXPLAIN ANALYZE: one
// OpStat per physical operator the plan actually ran, in execution order,
// plus the total wall time.
//
// Profiling is opt-in per execution: Plan.Exec passes a nil *Profile down
// the operator tree and every instrumentation site is gated on `prof !=
// nil`, so an unprofiled run pays one branch per operator — no timestamps,
// no allocations. ExecProfiled is the only way to turn the hooks on.
type Profile struct {
	Ops   []OpStat
	Total time.Duration
}

// OpStat describes one executed operator.
type OpStat struct {
	Op      string // "scan", "hash-build", "join", "cross-filter", "filter", "group", "project", "top-k", ...
	Detail  string // operator-specific: source alias, join mode, limit
	Path    string // access path / execution mode: "full-scan", "index-scan(col)", "vectorized", "vectorized-filter", ...
	RowsIn  int
	RowsOut int
	Batches int // vectorized batches processed; 0 for row-at-a-time operators
	Dur     time.Duration
}

func (p *Profile) add(op, detail string, in, out int, d time.Duration) {
	p.addPath(op, detail, "", in, out, d)
}

func (p *Profile) addPath(op, detail, path string, in, out int, d time.Duration) {
	p.Ops = append(p.Ops, OpStat{Op: op, Detail: detail, Path: path, RowsIn: in, RowsOut: out, Dur: d})
}

// addVec records a vectorized operator with its batch count.
func (p *Profile) addVec(op, detail, path string, in, out, batches int, d time.Duration) {
	p.Ops = append(p.Ops, OpStat{Op: op, Detail: detail, Path: path, RowsIn: in, RowsOut: out, Batches: batches, Dur: d})
}

// String renders the report as an aligned EXPLAIN ANALYZE-style table. The
// batches column is blank for row-at-a-time operators (and for vectorized
// ones that reused a cached selection or hash this execution).
func (p *Profile) String() string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "operator\tdetail\taccess\trows in\trows out\tbatches\ttime")
	for _, op := range p.Ops {
		batches := ""
		if op.Batches > 0 {
			batches = fmt.Sprintf("%d", op.Batches)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%s\t%s\n", op.Op, op.Detail, op.Path, op.RowsIn, op.RowsOut, batches, fmtDur(op.Dur))
	}
	fmt.Fprintf(tw, "total\t\t\t\t\t\t%s\n", fmtDur(p.Total))
	tw.Flush()
	return sb.String()
}

// fmtDur rounds for readability without losing sub-microsecond operators.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	case d >= 10*time.Microsecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(100 * time.Nanosecond).String()
	}
}

// ExecProfiled runs the plan like Exec while collecting per-operator row
// counts and wall times. The result table is identical to Exec's — the
// profile hooks observe, they never change what executes.
func (p *Plan) ExecProfiled() (*Table, *Profile, error) {
	if p.Stale() {
		return nil, nil, ErrStalePlan
	}
	prof := &Profile{}
	env := newExecEnv()
	defer env.plan.release()
	t0 := time.Now()
	t, err := p.root.run(env, prof)
	prof.Total = time.Since(t0)
	if err != nil {
		return nil, prof, err
	}
	return t, prof, nil
}
