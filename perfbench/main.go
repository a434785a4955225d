// Command perfbench is QFw's end-to-end benchmark. One run drives one
// named workload against the real stack (core.Launch, then Frontend or
// serve.Client, then DEFw, serve, QPM, router and the engines), checks every
// output, and prints its metrics by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured untraced.
// With --trace 1 the run alternates traced and untraced passes, records the
// benchmark's own spans around its calls into each layer, runs the layer
// probes, and reports the per-layer set plus the tracing overhead; the
// spans are written as a Chrome trace file.
//
// Build and run it through run.sh, which pins the environment:
//
//	bash perfbench/run.sh --workload request_floor --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	_ "qfw/internal/backends" // register the backend QPMs
)

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the same seed generates the same inputs")
	fs.IntVar(&o.seconds, "seconds", 15, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloadSet[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	o.trace = traceFlag == 1
	return o, nil
}

// runEnv is the pinned environment a run reports beside its metrics.
type runEnv struct {
	Tune       string `json:"QFW_TUNE"`
	Cost       string `json:"QFW_COST"`
	Obs        string `json:"QFW_OBS"`
	GOMAXPROCS int    `json:"GOMAXPROCS"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

// pinnedEnv checks the settings the figures depend on. A cold autotuner
// or cost-model probe would land in the measured set-up, and injected
// faults would land in every metric, so anything but the pinned values is
// refused.
func pinnedEnv() (runEnv, error) {
	env := runEnv{
		Tune:       os.Getenv("QFW_TUNE"),
		Cost:       os.Getenv("QFW_COST"),
		Obs:        os.Getenv("QFW_OBS"),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	var errs []error
	if env.Tune != "deterministic" {
		errs = append(errs, fmt.Errorf("QFW_TUNE=%q, want deterministic", env.Tune))
	}
	if env.Cost != "deterministic" {
		errs = append(errs, fmt.Errorf("QFW_COST=%q, want deterministic", env.Cost))
	}
	if v, set := os.LookupEnv("QFW_FAULTS"); set {
		errs = append(errs, fmt.Errorf("QFW_FAULTS=%q must be unset", v))
	}
	if env.GOMAXPROCS != env.NumCPU {
		errs = append(errs, fmt.Errorf("GOMAXPROCS=%d, want nproc=%d", env.GOMAXPROCS, env.NumCPU))
	}
	return env, errors.Join(errs...)
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout))
}

func mainErr(args []string, out io.Writer) int {
	if len(args) == 1 && args[0] == "--describe" {
		data, _ := json.MarshalIndent(describe(), "", "  ")
		fmt.Fprintln(out, string(data))
		return 0
	}
	opts, err := parseOptions(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	env, err := pinnedEnv()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: environment not pinned (use run.sh): %v\n", err)
		return 2
	}
	rep, err := runWorkload(workloadSet[opts.workload], opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", opts.workload, err)
		return 1
	}
	printReport(out, opts, env, rep)
	return 0
}

// Seeds for claims: probeSeed is the seed the benchmark was tuned on;
// heldOutSeed was never run while it was written and is kept for checking
// a claimed gain on unseen inputs.
const (
	probeSeed   = 1
	heldOutSeed = 90217
)

// description is what --describe prints: why each workload exists, which
// end-to-end metric each per-layer metric should move and on which
// workload, and the probe and held-out seeds. perfbench/metrics.json is
// its committed output.
type description struct {
	Workloads   []workloadDoc `json:"workloads"`
	PerLayer    []layerMetric `json:"per_layer"`
	ProbeSeed   int64         `json:"probe_seed"`
	HeldOutSeed int64         `json:"held_out_seed"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func describe() description {
	d := description{PerLayer: layerTable, ProbeSeed: probeSeed, HeldOutSeed: heldOutSeed}
	for _, name := range workloadNames() {
		d.Workloads = append(d.Workloads, workloadDoc{Name: name, Why: workloadSet[name](probeSeed).why()})
	}
	return d
}

// printReport writes the human-readable lines, then the JSON result line.
func printReport(w io.Writer, opts options, env runEnv, rep *report) {
	envJSON, _ := json.Marshal(env)
	mode := "untraced"
	if opts.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d %s env=%s\n", opts.workload, opts.seed, opts.seconds, mode, envJSON)
	for _, line := range rep.notes {
		fmt.Fprintf(w, "  %s\n", line)
	}
	names := make([]string, 0, len(rep.checks))
	for name := range rep.checks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := rep.checks[name]
		fmt.Fprintf(w, "  check %-28s %d/%d passed\n", name, c.passed, c.passed+c.failed)
	}
	keys := make([]string, 0, len(rep.metrics))
	for k := range rep.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := rep.metrics[k]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", k, m.Value, m.Unit)
	}
	line, _ := json.Marshal(result{
		Correct:   rep.correct(),
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	fmt.Fprintln(w, string(line))
}
