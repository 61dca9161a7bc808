// Command qtransprobe measures a single (dataset, update-ratio)
// configuration across engine modes and prints the per-stage time
// breakdown — the quick diagnosis tool behind EXPERIMENTS.md's cost
// analysis.
//
// Usage:
//
//	qtransprobe -dataset zipfian -scale 0.15 -u 0.25 -batches 3
//	qtransprobe -tiered -tiered-budget 100000   # cold-range tiering on
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "qtransprobe:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("qtransprobe", flag.ContinueOnError)
	var (
		dataset = fs.String("dataset", "zipfian", "Table I dataset name")
		scale   = fs.Float64("scale", 0.05, "dataset scale in (0,1]")
		u       = fs.Float64("u", 0.25, "update ratio")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "BSP workers")
		batches = fs.Int("batches", 3, "batches per mode")
		seed    = fs.Int64("seed", 42, "workload seed")
		modes   = fs.String("modes", "org,intra,inter,sim", "comma-separated modes")
		shards  = fs.Int("shards", 1, "range-partitioned shard count (>1 splits the worker budget across shards)")
		rebal   = fs.Int("rebalance", 0, "rebalance shard boundaries every N batches (0 = never; needs -shards > 1)")
		auto    = fs.Bool("autoshard", false, "traffic-aware automatic resharding: one controller step per batch (needs -shards > 1)")
		tiered  = fs.Bool("tiered", false, "cold-range tiering: spill cold key ranges to runs in a temp directory, bounding resident keys")
		tierBud = fs.Int("tiered-budget", 0, "tiered resident key budget (0 = a quarter of the keys stored after prefill)")

		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /healthz and /debug/pprof on this address during the run (e.g. :9100); also prints the final metrics table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale <= 0 || *scale > 1 {
		return fmt.Errorf("-scale %v out of range (0,1]", *scale)
	}
	if *u < 0 || *u > 1 {
		return fmt.Errorf("-u %v out of range [0,1]", *u)
	}
	if *workers < 1 {
		return fmt.Errorf("-workers %d must be >= 1", *workers)
	}
	if *batches < 1 {
		return fmt.Errorf("-batches %d must be >= 1", *batches)
	}
	if *shards < 1 {
		return fmt.Errorf("-shards %d must be >= 1", *shards)
	}
	if *rebal < 0 {
		return fmt.Errorf("-rebalance %d must be >= 0", *rebal)
	}
	if *rebal > 0 && *shards <= 1 {
		return fmt.Errorf("-rebalance %d needs -shards > 1", *rebal)
	}
	if *auto && *shards <= 1 {
		return fmt.Errorf("-autoshard needs -shards > 1")
	}
	if *tierBud < 0 {
		return fmt.Errorf("-tiered-budget %d must be >= 0", *tierBud)
	}
	tierDir := ""
	if *tiered {
		dir, err := os.MkdirTemp("", "qtransprobe-tier-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		tierDir = dir
	}

	var reg *metrics.Registry
	if *metricsAddr != "" {
		reg = metrics.New()
		bound, stop, err := metrics.Serve(*metricsAddr, reg, nil)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Printf("metrics: serving http://%s/metrics\n", bound)
	}

	rn := harness.NewRunner(harness.Options{
		Scale: *scale, Workers: *workers, Seed: *seed,
		CacheCapacity: 1 << 16, Batches: *batches,
		Metrics:      reg,
		Autoshard:    shard.AutoshardConfig{Enabled: *auto},
		TieredDir:    tierDir,
		TieredBudget: *tierBud,
	})
	spec, err := workload.SpecByName(*dataset, *scale)
	if err != nil {
		return err
	}

	byName := map[string]core.Mode{
		"org": core.Original, "intra": core.Intra,
		"inter": core.IntraInter, "sim": core.SimIntra,
	}
	for _, name := range strings.Split(*modes, ",") {
		mode, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return fmt.Errorf("unknown mode %q (want org, intra, inter, sim)", name)
		}
		res, err := rn.RunOne(harness.Arm{Spec: spec, Mode: mode, UpdateRatio: *u, Shards: *shards, RebalanceEvery: *rebal})
		if err != nil {
			return err
		}
		fmt.Printf("%-6s qps=%.3g reduction=%.3f mean_latency=%v  ",
			mode, res.Throughput, res.ReductionRatio(), res.Latency.Mean().Round(time.Millisecond))
		for _, s := range stats.Stages() {
			if res.Totals.Elapsed[s] > 0 {
				fmt.Printf("%s=%v ", s, res.Totals.Elapsed[s].Round(time.Millisecond))
			}
		}
		if res.Tier != nil {
			ts := res.Tier
			fmt.Printf(" tier: resident=%d cold=%d runs=%d disk_kb=%d faults=%d promotions=%d demotions=%d",
				ts.ResidentKeys, ts.ColdKeys, ts.ColdRanges, ts.DiskBytes/1024, ts.Faults, ts.Promotions, ts.Demotions)
		}
		if *shards > 1 {
			fmt.Printf(" %s", res.ShardStats)
		} else {
			allocs, bytes := res.Mem.PerBatch(res.Batches)
			fmt.Printf(" allocs/batch=%.0f KB/batch=%.0f gc_pause=%v",
				allocs, bytes/1024, time.Duration(res.Mem.PauseNs).Round(time.Microsecond))
		}
		fmt.Println()
	}
	if reg != nil {
		fmt.Println()
		if err := reg.Snapshot().WriteText(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
