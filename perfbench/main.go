// Command perfbench is the repository benchmark. It drives the stack
// users run — the repro/qtrans facade, and internal/server with its
// client for the online path — through four seeded workloads, checks
// every result against internal/oracle, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics read from
// DB.LastBatchStats and the Options.Metrics registry, plus the
// tracing overhead). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A result that
// disagrees with the oracle exits with status 1.
//
// Run it through the launcher from the repository root:
//
//	python3 perfbench/run.py --workload batch-skew --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks every workload's key space, batch sizes and rates
	// (1 = the sizes README.md states; the smoke test uses less).
	scale  float64
	commit string
	// outDir holds the run's data directories and the trace file.
	outDir string
	// corrupt flips one result before it is checked (smoke test only).
	corrupt bool
}

// result is what one workload run reports.
type result struct {
	attempted, failed int64
	// e2e holds the end-to-end metrics (every workload reports all of
	// them); layer the per-layer metrics of a traced run.
	e2e, layer map[string]float64
	// table is the human-readable report under the metric names of
	// the workload's own phases.
	table []row
	tr    *tracer
}

type row struct {
	name, unit string
	value      float64
	note       string
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json
// order. Every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"heap_mb", "MB"},
}

// perLayer lists the metrics of a traced run. A layer a workload does
// not exercise reports 0.
var perLayer = []metricDef{
	{"core.qsat_ms", "ms"},
	{"core.reduction", "ratio"},
	{"core.inferred_frac", "ratio"},
	{"core.batch_ms_p50", "ms"},
	{"core.busy_frac", "ratio"},
	{"cache.pass_ms", "ms"},
	{"cache.hit_rate", "ratio"},
	{"cache.evictions_per_batch", "count"},
	{"cache.flushes_per_batch", "count"},
	{"palm.find_ms", "ms"},
	{"palm.evaluate_ms", "ms"},
	{"palm.modify_ms", "ms"},
	{"palm.fence_hit_rate", "ratio"},
	{"palm.leafop_imbalance", "ratio"},
	{"btree.splits_per_batch", "count"},
	{"btree.shifted_slots_per_batch", "count"},
	{"btree.gap_claims_per_batch", "count"},
	{"batcher.batch_size_mean", "count"},
	{"batcher.batches_per_s", "1/s"},
	{"batcher.fill_permille_p50", "permille"},
	{"server.shed_frac", "ratio"},
	{"server.light_p50_ms", "ms"},
	{"server.light_p99_ms", "ms"},
	{"client.do_us_p50", "us"},
	{"client.wait_ms_p50", "ms"},
	{"gen.lag_ms_max", "ms"},
	{"wal.append_us_p50", "us"},
	{"wal.fsync_us_p50", "us"},
	{"wal.bytes_per_write", "B"},
	{"wal.recover_s", "s"},
	{"wal.disk_mb", "MB"},
	{"tier.resident_keys", "count"},
	{"tier.resident_over_budget", "ratio"},
	{"tier.cold_keys", "count"},
	{"tier.faults_per_batch", "count"},
	{"tier.promotions", "count"},
	{"tier.demotions", "count"},
	{"tier.disk_mb", "MB"},
	{"trace.qps_overhead", "ratio"},
	{"trace.p50_overhead", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"batch-skew":    func(c config) (*result, error) { return runBatch(c, skewSpec(c.scale)) },
	"batch-uniform": func(c config) (*result, error) { return runBatch(c, uniformSpec(c.scale)) },
	"tiered-drift":  func(c config) (*result, error) { return runBatch(c, tieredSpec(c.scale)) },
	"serve-mixed":   runServe,
}

// errMismatch marks a result that disagrees with the oracle.
var errMismatch = errors.New("result mismatch")

func mismatchf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMismatch, fmt.Sprintf(format, args...))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return execute(cfg, stdout, stderr)
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+names())
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured time per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.Float64Var(&cfg.scale, "scale", 1, "size multiplier for key spaces, batches and rates")
	fs.StringVar(&cfg.commit, "commit", "unknown", "source revision recorded in the provenance line")
	fs.StringVar(&cfg.outDir, "out", ".bench_build", "directory for data directories and the trace file")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.trace = trace == 1
	switch {
	case workloads[cfg.workload] == nil:
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, names())
	case trace != 0 && trace != 1:
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	case cfg.seconds <= 0 || cfg.scale <= 0 || cfg.scale > 1:
		return cfg, fmt.Errorf("--seconds must be positive and --scale in (0, 1]")
	}
	return cfg, nil
}

func names() string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return fmt.Sprint(ns)
}

// output is the last line of standard output.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func execute(cfg config, stdout, stderr io.Writer) int {
	prov, _ := json.Marshal(map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"scale":      cfg.scale,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     cfg.commit,
	})
	fmt.Fprintf(stdout, "provenance %s\n", prov)
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	res, err := workloads[cfg.workload](cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		if errors.Is(err, errMismatch) {
			line, _ := json.Marshal(output{Correct: false, Metrics: map[string]metricValue{}})
			fmt.Fprintf(stdout, "%s\n", line)
		}
		return 1
	}

	fmt.Fprintf(stdout, "%-16s %14s %-6s %s\n", "metric", "value", "unit", "")
	for _, r := range res.table {
		fmt.Fprintf(stdout, "%-16s %14.4f %-6s %s\n", r.name, r.value, r.unit, r.note)
	}
	fmt.Fprintf(stdout, "%-16s %14.4f %-6s %d of %d requests\n", "failed_frac", frac(float64(res.failed), float64(res.attempted)), "ratio", res.failed, res.attempted)

	out := output{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	defs, vals := endToEnd, res.e2e
	if cfg.trace {
		defs, vals = perLayer, res.layer
		fmt.Fprintln(stdout, "per-layer self time (traced rounds/passes):")
		printSelfTimes(stdout, res.tr.selfTimes())
		path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl")
		if err := res.tr.writeFile(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
