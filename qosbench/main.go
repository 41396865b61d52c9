// Command qosbench is the repository benchmark. It times the public entry
// points of probqos from outside: the offline accuracy sweep
// (experiment.RunAll over Figures 1-6, and sim.Run per point) and the online
// negotiation daemon (qosd, driven over loopback TCP through service.Start).
//
//	go run . --workload sweep|qosd-deep --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it prints
// the per-layer metrics of a separate instrumented run (sim.Probe for the
// sweep, qosd's request spans for the daemon). The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Any failed output check prints correct=false and exits 1. README.md
// explains the workloads and how to read the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line arguments shared by every workload.
type options struct {
	seed   int64
	window time.Duration
	traced bool
}

// workloads maps each workload name to its runner. A runner returns the
// result to print, or an error when the run could not be measured at all.
var workloads = map[string]func(options) (result, error){
	"sweep":     runSweep,
	"qosd-deep": runQosd,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: sweep or qosd-deep")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 10, "length of the timed window in seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an instrumented run")
	)
	flag.Parse()
	run, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "qosbench: unknown workload %q\n", *name)
		os.Exit(2)
	case *seconds < 1:
		fmt.Fprintf(os.Stderr, "qosbench: --seconds must be at least 1, got %d\n", *seconds)
		os.Exit(2)
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(os.Stderr, "qosbench: --trace must be 0 or 1, got %d\n", *traced)
		os.Exit(2)
	}
	res, err := run(options{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		traced: *traced == 1,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "qosbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qosbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// checks collects output-check failures; a run with any is not correct.
type checks struct{ failures []string }

// failf records one failed check and echoes it to standard error.
func (c *checks) failf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "check failed:", msg)
	c.failures = append(c.failures, msg)
}

func (c *checks) ok() bool { return len(c.failures) == 0 }

// quantile returns the nearest-rank q-quantile of xs (which it sorts), or 0
// for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// heapMB forces a collection and returns the live heap in MiB. The second
// collection frees what sync.Pools kept alive through the first.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), or 0 for no samples. It sorts xs.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// logf reports progress on standard error, keeping standard output for the
// result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qosbench: "+format+"\n", args...)
}
