// Command epochbench is the repository's end-to-end benchmark: it starts
// real transport center, relay and point servers on loopback TCP, feeds
// them seeded internal/trace traffic, drives closed-loop epoch rounds and
// live and historical T-queries through the public API, checks every
// answer class against an ideal sketch, and prints its metrics as one
// JSON line. See README.md.
//
//	epochbench --workload flat-spread --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonMetric is one metric in the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("epochbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: flat-spread, tree-size or history-size")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	dir := fs.String("dir", ".bench_build/epochbench", "scratch directory for epoch-log stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "epochbench:", err)
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "epochbench: --trace must be 0 or 1")
		return 2
	}
	var logMu sync.Mutex
	res, err := Run(w, Options{
		Seed:     *seed,
		Duration: time.Duration(*seconds * float64(time.Second)),
		Trace:    *traceFlag == 1,
		Dir:      *dir,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			fmt.Fprintf(stderr, "epochbench: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, "epochbench:", err)
		return 1
	}
	for _, f := range res.Failures {
		fmt.Fprintln(stderr, "epochbench: FAIL:", f)
	}
	fmt.Fprintf(stdout, "# workload=%s seed=%d rounds=%d goos=%s goarch=%s cpus=%d GOMAXPROCS=%d go=%s\n",
		w.Name, *seed, res.Rounds, runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if res.SelfTimes != nil {
		fmt.Fprintf(stdout, "# spans: %s\n", res.SpanFile)
		writeSelfTable(prefixWriter{stdout}, res.SelfTimes)
	}
	metrics := make(map[string]jsonMetric, len(res.Metrics))
	for _, m := range res.Metrics {
		metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, "epochbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// prefixWriter comments out every line so the result stays the last
// non-comment line.
type prefixWriter struct{ w io.Writer }

func (p prefixWriter) Write(b []byte) (int, error) {
	if _, err := fmt.Fprintf(p.w, "# %s", b); err != nil {
		return 0, err
	}
	return len(b), nil
}
