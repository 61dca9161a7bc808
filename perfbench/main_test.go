package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyArgs runs a workload at a hundredth of its size, with seconds
// enough for the serve phases to send a few hundred requests. The
// tiered workload runs at a tenth: below that its whole key space fits
// the engine's 64Ki-entry cache, the tree stays empty and nothing is
// ever demoted.
func tinyArgs(t *testing.T, workload string, trace string) []string {
	scale := "0.01"
	if workload == "tiered-drift" {
		scale = "0.1"
	}
	return []string{"--workload", workload, "--seed", "3", "--seconds", "2", "--scale", scale,
		"--trace", trace, "--out", t.TempDir()}
}

// lastLine parses the final JSON line of a run's standard output.
func lastLine(t *testing.T, stdout string) output {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, stdout)
	}
	return out
}

// tableMetrics are the metric names each workload's report prints.
var tableMetrics = map[string][]string{
	"batch-skew":    {"setup_s", "qps", "batch_p50_ms", "batch_p90_ms", "failed_frac", "heap_mb", "disk_mb"},
	"batch-uniform": {"setup_s", "qps", "batch_p50_ms", "batch_p90_ms", "failed_frac", "heap_mb", "disk_mb"},
	"tiered-drift":  {"setup_s", "qps", "batch_p50_ms", "batch_p90_ms", "failed_frac", "heap_mb", "disk_mb"},
	"serve-mixed": {"setup_s", "peak_qps", "light_p50_ms", "light_p99_ms", "heavy_p50_ms", "heavy_p99_ms",
		"recover_s", "failed_frac", "heap_mb", "disk_mb"},
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	for name, table := range tableMetrics {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tinyArgs(t, name, "0"), &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			if !strings.HasPrefix(stdout.String(), "provenance {") {
				t.Errorf("no provenance line:\n%s", stdout.String())
			}
			for _, m := range table {
				if !strings.Contains(stdout.String(), "\n"+m+" ") {
					t.Errorf("report lacks %s:\n%s", m, stdout.String())
				}
			}
			out := lastLine(t, stdout.String())
			if !out.Correct || out.Attempted < 1 || out.Failed != 0 || len(out.Metrics) != len(endToEnd) {
				t.Fatalf("result %+v", out)
			}
			for _, d := range endToEnd {
				if m, ok := out.Metrics[d.name]; !ok || m.Unit != d.unit || m.Value <= 0 {
					t.Errorf("metric %s = %+v (present %v), want a positive value in %s", d.name, m, ok, d.unit)
				}
			}
		})
	}
}

func TestTracedRunReportsLayers(t *testing.T) {
	for name := range tableMetrics {
		t.Run(name, func(t *testing.T) {
			args := tinyArgs(t, name, "1")
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			out := lastLine(t, stdout.String())
			if !out.Correct || len(out.Metrics) != len(perLayer) {
				t.Fatalf("result %+v", out)
			}
			for _, d := range perLayer {
				if m, ok := out.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("metric %s = %+v (present %v), want unit %s", d.name, m, ok, d.unit)
				}
			}
			// Every workload runs the engine, so the core layer is never
			// bypassed; each other layer is exercised by its own workload.
			exercised := map[string]string{
				"batch-skew":    "cache.hit_rate",
				"batch-uniform": "palm.find_ms",
				"tiered-drift":  "tier.demotions",
				"serve-mixed":   "wal.fsync_us_p50",
			}[name]
			for _, m := range []string{"core.batch_ms_p50", exercised} {
				if out.Metrics[m].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m, out.Metrics[m].Value)
				}
			}
			if !strings.Contains(stdout.String(), "self_ms") {
				t.Errorf("no self-time table:\n%s", stdout.String())
			}
			spans, err := os.ReadFile(filepath.Join(args[len(args)-1], "trace-"+name+".jsonl"))
			if err != nil || !bytes.Contains(spans, []byte(`"parent":`)) {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

func TestCorruptedResultIsCaught(t *testing.T) {
	for _, name := range []string{"batch-skew", "serve-mixed"} {
		t.Run(name, func(t *testing.T) {
			cfg, err := parseFlags(tinyArgs(t, name, "0"), &bytes.Buffer{})
			if err != nil {
				t.Fatal(err)
			}
			cfg.corrupt = true
			var stdout, stderr bytes.Buffer
			if code := execute(cfg, &stdout, &stderr); code == 0 {
				t.Fatalf("corrupted run exited 0:\n%s", stdout.String())
			}
			if out := lastLine(t, stdout.String()); out.Correct {
				t.Errorf("corrupted run reported correct")
			}
			if !strings.Contains(stderr.String(), "result mismatch") {
				t.Errorf("stderr lacks the mismatch: %s", stderr.String())
			}
		})
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "batch-skew", "--trace", "2"},
		{"--workload", "batch-skew", "--seconds", "0"},
	} {
		if code := run(args, &bytes.Buffer{}, &bytes.Buffer{}); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists and
// workloads in step with the program's.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(bench.Workloads), len(workloads))
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}
