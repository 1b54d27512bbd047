// Command pi2bench regenerates the paper's evaluation figures and tables.
//
// Usage:
//
//	pi2bench -fig latency      # per-log generation times (headline numbers)
//	pi2bench -fig 14           # interaction-taxonomy coverage (Figure 14)
//	pi2bench -fig 15           # case studies (Figure 15)
//	pi2bench -fig 16 [-full]   # runtime-quality trade-off sweep (Figure 16)
//	pi2bench -fig 17           # parameter sensitivity (Figure 17)
//	pi2bench -fig scale        # scalability in #queries (§7.3)
//	pi2bench -fig 18           # non-optimal interface quality (appendix)
//	pi2bench -fig t1 / t2      # visualization / widget catalogs (Tables 1, 2)
//	pi2bench -fig ablations    # design-choice ablations
//	pi2bench -fig all          # everything except the full sweep
//	pi2bench -overhead-check   # serving-metrics overhead gate
//
// End-to-end performance is measured by the repository benchmark
// (bash perfbench/run.sh), not by this command.
package main

import (
	"flag"
	"fmt"
	"os"

	"pi2/internal/experiment"
	"pi2/internal/vis"
	"pi2/internal/widget"
	"pi2/internal/workload"
)

func main() {
	fig := flag.String("fig", "latency", "figure/table to regenerate")
	full := flag.Bool("full", false, "use the paper's full sweep resolution (slow)")
	overheadCheck := flag.Bool("overhead-check", false, "measure serving-metrics overhead (instrumented vs disabled) and fail if it exceeds -overhead-max")
	overheadMax := flag.Float64("overhead-max", 1.05, "maximum allowed instrumented/disabled ratio for -overhead-check")
	flag.Parse()

	if *overheadCheck {
		if err := runOverheadCheck(*overheadMax); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	e := experiment.NewEnv()
	w := os.Stdout

	run := func(name string) {
		switch name {
		case "latency":
			fmt.Fprintln(w, "== end-to-end generation latency (paper: 2–19 s, median 6 s) ==")
			experiment.Latency(w, e)
		case "14", "14a", "14b", "14c", "14d":
			fmt.Fprintln(w, "== Figure 14: Yi et al. taxonomy coverage ==")
			experiment.Taxonomy(w, e)
		case "15", "15a", "15b", "15c":
			fmt.Fprintln(w, "== Figure 15: case studies ==")
			experiment.CaseStudies(w, e)
		case "16":
			fmt.Fprintln(w, "== Figure 16: runtime-quality trade-off ==")
			logs := []workload.Log{workload.Explore(), workload.Filter(), workload.Covid()}
			experiment.Figure16(w, e, logs, *full)
		case "17":
			fmt.Fprintln(w, "== Figure 17: parameter sensitivity ==")
			experiment.Figure17(w, e)
		case "scale":
			fmt.Fprintln(w, "== Scalability: duplicated Filter log (paper: linear to 900 queries) ==")
			factors := []int{1, 2, 4, 10, 25, 50, 100}
			if !*full {
				factors = []int{1, 2, 4, 10, 25}
			}
			experiment.Scalability(w, e, factors)
		case "18":
			fmt.Fprintln(w, "== Figures 18/19: quality of non-optimal interfaces ==")
			experiment.QualitySpread(w, e, workload.Filter())
		case "t1":
			fmt.Fprintln(w, "== Table 1: visualization schemas, FDs, interactions ==")
			printTable1(w)
		case "t2":
			fmt.Fprintln(w, "== Table 2: widget schemas and constraints ==")
			printTable2(w)
		case "ablations":
			fmt.Fprintln(w, "== Ablations (Filter) ==")
			experiment.Ablations(w, e, workload.Filter())
		default:
			fmt.Fprintf(os.Stderr, "pi2bench: unknown figure %q\n", name)
			os.Exit(1)
		}
	}

	if *fig == "all" {
		for _, name := range []string{"latency", "14", "15", "16", "17", "scale", "18", "t1", "t2", "ablations"} {
			run(name)
			fmt.Fprintln(w)
		}
		return
	}
	run(*fig)
}

func printTable1(w *os.File) {
	for _, s := range vis.Catalog() {
		fmt.Fprintf(w, "%-6s", s.Type)
		if s.AnySchema {
			fmt.Fprintf(w, " any schema")
		} else {
			fmt.Fprintf(w, " <")
			for i, v := range s.Vars {
				if i > 0 {
					fmt.Fprint(w, ", ")
				}
				t := ""
				if v.Quant {
					t = "Q"
				}
				if v.Cat {
					if t != "" {
						t += "|"
					}
					t += "C"
				}
				if v.Optional {
					t += "?"
				}
				fmt.Fprintf(w, "%s:%s", v.Name, t)
			}
			fmt.Fprint(w, ">")
		}
		for _, fd := range s.FDs {
			fmt.Fprintf(w, "  FD %v→%s", fd.Determinants, fd.Dependent)
		}
		var kinds []string
		for _, i := range vis.InteractionsFor(s.Type) {
			kinds = append(kinds, string(i.Kind))
		}
		fmt.Fprintf(w, "  interactions: %v\n", kinds)
	}
}

func printTable2(w *os.File) {
	for _, k := range widget.Kinds() {
		a0, a1, a2 := widget.CostCoeffs(k)
		fmt.Fprintf(w, "%-12s %-18s %-8s Cm=%g+%g·d+%g·d²\n",
			k, widget.SchemaPattern(k), widget.Constraint(k), a0, a1, a2)
	}
}
