package main

import (
	"reflect"
	"runtime"
	"testing"
)

// workCounts are the per-layer counts that must repeat exactly for a seed:
// the search and safety-check work of generation, the serving cache
// traffic and compiles, and the rows written.
var workCounts = []string{
	"search.iterations", "search.rewards", "safety.execs",
	"iface.result_hits", "iface.result_misses", "iface.plan_hits", "iface.plan_misses", "iface.plan_compiles",
	"engine.append_rows",
}

func shortRun(t *testing.T, workload string, seed int64) *report {
	t.Helper()
	rounds := 300
	if workload == "gen-paper" {
		rounds = 1
	}
	rep, err := run(config{workload: workload, seed: seed, trace: true, rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed > 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed: %v", workload, seed, rep.failed, rep.attempted, rep.errs)
	}
	return rep
}

func pick(rep *report) map[string]float64 {
	out := map[string]float64{}
	for _, k := range workCounts {
		out[k] = rep.counts[k]
	}
	return out
}

// TestWorkDeterminism runs each workload twice with one seed and once with
// another: the work counts must repeat exactly for the seed and differ for
// the other one.
func TestWorkDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload three times")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, w := range []string{"gen-paper", "serve-xfilter", "serve-live"} {
		t.Run(w, func(t *testing.T) {
			a, b := pick(shortRun(t, w, 7)), pick(shortRun(t, w, 7))
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed, different work:\n%v\n%v", a, b)
			}
			if c := pick(shortRun(t, w, 8)); reflect.DeepEqual(a, c) {
				t.Fatalf("seeds 7 and 8 did the same work: %v", a)
			}
			t.Logf("%v", a)
		})
	}
}

// TestSeedChangesInputs checks that each input generator follows the seed.
func TestSeedChangesInputs(t *testing.T) {
	if reflect.DeepEqual(flightsTable(1, 100), flightsTable(1, 100)) == false {
		t.Fatal("flights is not a function of the seed")
	}
	if reflect.DeepEqual(flightsTable(1, 100), flightsTable(2, 100)) {
		t.Fatal("flights ignores the seed")
	}
	if reflect.DeepEqual(covidTable(1, 5, 10), covidTable(2, 5, 10)) {
		t.Fatal("covid ignores the seed")
	}
}
