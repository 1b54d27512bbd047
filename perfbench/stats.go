package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank p-th percentile.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(p/100*float64(len(s))))-1, 0)]
}

// geomean is the geometric mean of positive values; 0 for no samples.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tailLadder is the set of percentiles tail() chooses from, and
// tailBeyond the samples a rung needs beyond it: twice the ten the method
// asks for, so that runs whose sample counts differ by up to half still
// report the same percentile and stay comparable.
var tailLadder = []float64{99.9, 99, 90, 50}

const tailBeyond = 20

// tail returns the highest ladder percentile (nearest-rank) that has at
// least tailBeyond samples beyond it, with the percentile and that count.
func tail(xs []float64) (value, pct float64, beyond int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if rank >= 1 && n-rank >= tailBeyond {
			return s[rank-1], p, n - rank
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	return s[n-1], 100, 0
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// heapAfterGCMB forces a collection and returns the live heap in MB.
func heapAfterGCMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// rtSample is a snapshot of the runtime counters the per-layer pass reports.
type rtSample struct {
	allocBytes, allocObjs, gcCycles float64
	gcCPU, totalCPU                 float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{v(0), v(1), v(2), v(3), v(4)}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{a.allocBytes - b.allocBytes, a.allocObjs - b.allocObjs, a.gcCycles - b.gcCycles,
		a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// stopwatch accumulates durations under names, for the traced pass.
type stopwatch map[string]time.Duration

func (s stopwatch) add(name string, d time.Duration) { s[name] += d }
