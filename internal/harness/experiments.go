package harness

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/palm"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/tier"
	"repro/internal/workload"
)

// Experiment regenerates one figure or table, writing rows to w.
type Experiment struct {
	// ID is the figure/table identifier, e.g. "fig9a", "table2".
	ID string
	// Title describes what the paper shows there.
	Title string
	// Run executes the experiment.
	Run func(rn *Runner, w io.Writer) error
}

// Experiments returns the full roster, in paper order.
func Experiments() []Experiment {
	exps := []Experiment{
		{"fig4", "key distribution skew: top-N coverage (taxi, ycsb-latest, ycsb-zipfian)", Fig4},
	}
	for i, ds := range []string{"gaussian", "self-similar", "zipfian", "uniform"} {
		ds := ds
		sub := string(rune('a' + i))
		exps = append(exps,
			Experiment{"fig9" + sub, "throughput org vs opt, " + ds, func(rn *Runner, w io.Writer) error {
				return ThroughputFigure(rn, w, ds)
			}},
			Experiment{"fig10" + sub, "scalability, " + ds, func(rn *Runner, w io.Writer) error {
				return ScalabilityFigure(rn, w, ds)
			}},
		)
	}
	exps = append(exps,
		Experiment{"fig11a", "throughput org vs opt, ycsb-latest", func(rn *Runner, w io.Writer) error {
			return ThroughputFigure(rn, w, "ycsb-latest")
		}},
		Experiment{"fig11b", "throughput org vs opt, ycsb-zipfian", func(rn *Runner, w io.Writer) error {
			return ThroughputFigure(rn, w, "ycsb-zipfian")
		}},
		Experiment{"fig11c", "scalability, ycsb-latest", func(rn *Runner, w io.Writer) error {
			return ScalabilityFigure(rn, w, "ycsb-latest")
		}},
		Experiment{"fig11d", "scalability, ycsb-zipfian", func(rn *Runner, w io.Writer) error {
			return ScalabilityFigure(rn, w, "ycsb-zipfian")
		}},
		Experiment{"fig12a", "throughput org vs opt, taxi", func(rn *Runner, w io.Writer) error {
			return ThroughputFigure(rn, w, "taxi")
		}},
		Experiment{"fig12b", "scalability, taxi", func(rn *Runner, w io.Writer) error {
			return ScalabilityFigure(rn, w, "taxi")
		}},
		Experiment{"fig13", "per-thread leaf operations (load balance), self-similar U-0.25", Fig13},
		Experiment{"fig14a", "throughput breakdown org/intra/inter, self-similar", Fig14a},
		Experiment{"fig14b", "query reduction ratio, self-similar", Fig14b},
		Experiment{"fig14c", "stage time breakdown, self-similar", Fig14c},
		Experiment{"fig15", "batch size impact, self-similar U-0.25", Fig15},
		Experiment{"abl1", "transform strategy ablation: org vs intra vs inter vs sim (zipfian)", Ablation1},
		Experiment{"pipe", "pipelined vs serial stream execution, self-similar U-0.25", PipelineExp},
		Experiment{"shard", "range-partitioned sharding sweep: throughput and imbalance per shard count", ShardExp},
		Experiment{"abl2", "tree utilization under churn: relaxed batched deletes vs strict serial", Ablation2},
		Experiment{"scan", "range scans vs repeated point gets, RMW vs get-then-insert pairs", ScanExp},
		Experiment{"metrics", "per-stage time breakdown from the metrics registry (org and inter)", MetricsExp},
		Experiment{"serve", "network front end under concurrent connections: steady, overload (shedding), graceful drain", ServeExp},
		Experiment{"autoshard", "traffic-aware autosharding vs static partitioning under a drifting hotspot", AutoshardExp},
		Experiment{"tiered", "cold-range tiering vs all-in-memory: bounded resident keys under a drifting hotspot", TieredExp},
		Experiment{"table1", "dataset configurations", Table1},
		Experiment{"table2", "latency per dataset (opt vs org, U-0 and U-0.75)", Table2},
	)
	return exps
}

// ExperimentByID looks an experiment up.
func ExperimentByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}

// Fig4 reports the skew statistics behind Fig. 4: fraction of queries
// covered by the hottest keys for the realistic datasets.
func Fig4(rn *Runner, w io.Writer) error {
	samples := int(float64(2_000_000) * rn.Opts.Scale * 50)
	if samples < 50_000 {
		samples = 50_000
	}
	row(w, "dataset", "samples", "distinct", "top1000_coverage", "top1pct_coverage")
	for _, name := range []string{"taxi", "ycsb-latest", "ycsb-zipfian"} {
		spec, err := workload.SpecByName(name, rn.Opts.Scale)
		if err != nil {
			return err
		}
		gen := spec.Build()
		r := rand.New(rand.NewSource(rn.Opts.Seed))
		frac1000, distinct := workload.Coverage(gen, r, samples, 1000)
		r = rand.New(rand.NewSource(rn.Opts.Seed))
		onePct := distinct / 100
		if onePct < 1 {
			onePct = 1
		}
		fracPct, _ := workload.Coverage(gen, r, samples, onePct)
		row(w, name, samples, distinct, frac1000, fracPct)
	}
	return nil
}

// ThroughputFigure emits the org-vs-opt throughput rows of Figs. 9,
// 11(a-b), and 12(a): one row per update ratio.
func ThroughputFigure(rn *Runner, w io.Writer, dataset string) error {
	spec, err := workload.SpecByName(dataset, rn.Opts.Scale)
	if err != nil {
		return err
	}
	row(w, "update_ratio", "org_qps", "opt_qps", "speedup", "reduction")
	for _, u := range UpdateRatios {
		org, err := rn.RunOne(Arm{Spec: spec, Mode: core.Original, UpdateRatio: u})
		if err != nil {
			return err
		}
		opt, err := rn.RunOne(Arm{Spec: spec, Mode: core.IntraInter, UpdateRatio: u})
		if err != nil {
			return err
		}
		row(w, u, org.Throughput, opt.Throughput, opt.Throughput/org.Throughput, opt.ReductionRatio())
	}
	return nil
}

// ScalabilityFigure emits the thread-sweep rows of Figs. 10, 11(c-d),
// and 12(b): opt throughput per (threads, update ratio).
func ScalabilityFigure(rn *Runner, w io.Writer, dataset string) error {
	spec, err := workload.SpecByName(dataset, rn.Opts.Scale)
	if err != nil {
		return err
	}
	row(w, "threads", "update_ratio", "opt_qps")
	for _, th := range ThreadCounts(rn.Opts.Workers) {
		for _, u := range UpdateRatios {
			opt, err := rn.RunOne(Arm{Spec: spec, Mode: core.IntraInter, UpdateRatio: u, Threads: th})
			if err != nil {
				return err
			}
			row(w, th, u, opt.Throughput)
		}
	}
	return nil
}

// Fig13 reports per-thread leaf-operation counts for self-similar
// U-0.25, with and without the prefix-sum load balancing (§V-A).
func Fig13(rn *Runner, w io.Writer) error {
	spec, err := workload.SpecByName("self-similar", rn.Opts.Scale)
	if err != nil {
		return err
	}
	row(w, "balancing", "thread", "leaf_ops")
	for _, lb := range []bool{true, false} {
		res, err := rn.RunOne(Arm{Spec: spec, Mode: core.IntraInter, UpdateRatio: 0.25, NaiveBalance: !lb})
		if err != nil {
			return err
		}
		label := "prefix-sum"
		if !lb {
			label = "naive"
		}
		for tid, ops := range res.Totals.LeafOps {
			row(w, label, tid, ops)
		}
		row(w, label, "imbalance(max/mean)", res.Totals.LeafOpImbalance())
	}
	return nil
}

// Fig14a: throughput of org / intra / inter per update ratio.
func Fig14a(rn *Runner, w io.Writer) error {
	spec, err := workload.SpecByName("self-similar", rn.Opts.Scale)
	if err != nil {
		return err
	}
	row(w, "update_ratio", "org_qps", "intra_qps", "inter_qps")
	for _, u := range UpdateRatios {
		var qps [3]float64
		for i, mode := range []core.Mode{core.Original, core.Intra, core.IntraInter} {
			res, err := rn.RunOne(Arm{Spec: spec, Mode: mode, UpdateRatio: u})
			if err != nil {
				return err
			}
			qps[i] = res.Throughput
		}
		row(w, u, qps[0], qps[1], qps[2])
	}
	return nil
}

// Fig14b: query reduction ratio of intra and inter per update ratio.
func Fig14b(rn *Runner, w io.Writer) error {
	spec, err := workload.SpecByName("self-similar", rn.Opts.Scale)
	if err != nil {
		return err
	}
	row(w, "update_ratio", "intra_reduction", "inter_reduction")
	for _, u := range UpdateRatios {
		intra, err := rn.RunOne(Arm{Spec: spec, Mode: core.Intra, UpdateRatio: u})
		if err != nil {
			return err
		}
		inter, err := rn.RunOne(Arm{Spec: spec, Mode: core.IntraInter, UpdateRatio: u})
		if err != nil {
			return err
		}
		row(w, u, intra.ReductionRatio(), inter.ReductionRatio())
	}
	return nil
}

// Fig14c: per-stage execution time for each mode and update ratio.
func Fig14c(rn *Runner, w io.Writer) error {
	spec, err := workload.SpecByName("self-similar", rn.Opts.Scale)
	if err != nil {
		return err
	}
	header := []interface{}{"update_ratio", "mode"}
	for _, s := range stats.Stages() {
		header = append(header, s.String()+"_ms")
	}
	row(w, header...)
	for _, u := range UpdateRatios {
		for _, mode := range []core.Mode{core.Original, core.Intra, core.IntraInter} {
			res, err := rn.RunOne(Arm{Spec: spec, Mode: mode, UpdateRatio: u})
			if err != nil {
				return err
			}
			cols := []interface{}{u, mode.String()}
			for _, s := range stats.Stages() {
				cols = append(cols, float64(res.Totals.Elapsed[s])/float64(time.Millisecond))
			}
			row(w, cols...)
		}
	}
	return nil
}

// Fig15: throughput vs batch size (0.5M / 3M / 6M at paper scale) for
// self-similar U-0.25 across the three modes.
func Fig15(rn *Runner, w io.Writer) error {
	spec, err := workload.SpecByName("self-similar", rn.Opts.Scale)
	if err != nil {
		return err
	}
	sizes := []int{
		scaleInt(500_000, rn.Opts.Scale),
		scaleInt(3_000_000, rn.Opts.Scale),
		scaleInt(6_000_000, rn.Opts.Scale),
	}
	row(w, "batch_size", "org_qps", "intra_qps", "inter_qps")
	for _, bs := range sizes {
		var qps [3]float64
		for i, mode := range []core.Mode{core.Original, core.Intra, core.IntraInter} {
			res, err := rn.RunOne(Arm{Spec: spec, Mode: mode, UpdateRatio: 0.25, BatchSize: bs})
			if err != nil {
				return err
			}
			qps[i] = res.Throughput
		}
		row(w, bs, qps[0], qps[1], qps[2])
	}
	return nil
}

func scaleInt(v int, scale float64) int {
	out := int(float64(v) * scale)
	if out < 1 {
		out = 1
	}
	return out
}

// Ablation1 compares all four engine modes — including the §IV-E
// "alternative solution" (simulation-based elimination, mode "sim") —
// on the zipfian dataset across update ratios. Not a paper figure; it
// quantifies the discussion at the end of §IV-E.
func Ablation1(rn *Runner, w io.Writer) error {
	spec, err := workload.SpecByName("zipfian", rn.Opts.Scale)
	if err != nil {
		return err
	}
	row(w, "update_ratio", "org_qps", "intra_qps", "inter_qps", "sim_qps")
	for _, u := range UpdateRatios {
		var qps [4]float64
		for i, mode := range []core.Mode{core.Original, core.Intra, core.IntraInter, core.SimIntra} {
			res, err := rn.RunOne(Arm{Spec: spec, Mode: mode, UpdateRatio: u})
			if err != nil {
				return err
			}
			qps[i] = res.Throughput
		}
		row(w, u, qps[0], qps[1], qps[2], qps[3])
	}
	return nil
}

// PipelineExp compares serial and two-stage pipelined stream execution
// (EngineConfig.Pipeline; not a paper figure — the paper's stages run
// back-to-back) on self-similar U-0.25, for the org and inter modes at
// two batch sizes. Rows report end-to-end throughput and the per-batch
// allocation rates of both arms. Overlap speedup requires spare cores:
// with the transform and tree stages time-sliced on one core the
// speedup is ~1x (see EXPERIMENTS.md).
func PipelineExp(rn *Runner, w io.Writer) error {
	spec, err := workload.SpecByName("self-similar", rn.Opts.Scale)
	if err != nil {
		return err
	}
	sizes := []int{spec.BatchSize, 4 * spec.BatchSize}
	row(w, "batch_size", "mode", "serial_qps", "pipe_qps", "speedup", "serial_allocs/batch", "pipe_allocs/batch")
	for _, bs := range sizes {
		for _, mode := range []core.Mode{core.Original, core.IntraInter} {
			arm := Arm{Spec: spec, Mode: mode, UpdateRatio: 0.25, BatchSize: bs, Stream: true}
			ser, err := rn.RunOne(arm)
			if err != nil {
				return err
			}
			arm.Pipeline = true
			pipe, err := rn.RunOne(arm)
			if err != nil {
				return err
			}
			serAllocs, _ := ser.Mem.PerBatch(ser.Batches)
			pipeAllocs, _ := pipe.Mem.PerBatch(pipe.Batches)
			row(w, bs, mode.String(), ser.Throughput, pipe.Throughput,
				pipe.Throughput/ser.Throughput, serAllocs, pipeAllocs)
		}
	}
	return nil
}

// ShardExp sweeps the shard count of the range-partitioned engine on a
// uniform and a skewed dataset (U-0.25), dividing a fixed worker budget
// across the shards. Rows report end-to-end throughput, speedup over
// the single-shard arm, and the routing imbalance (max/mean queries per
// shard) with and without periodic rebalancing — the skewed dataset is
// where static equal-width boundaries go wrong and Rebalance earns its
// keep. Not a paper figure; it extends the paper's scalability story
// (§VI) to partitioned trees.
func ShardExp(rn *Runner, w io.Writer) error {
	row(w, "dataset", "shards", "rebalance", "qps", "speedup", "imbalance", "rebalances", "migrated")
	for _, ds := range []string{"uniform", "zipfian"} {
		spec, err := workload.SpecByName(ds, rn.Opts.Scale)
		if err != nil {
			return err
		}
		var base float64
		for _, shards := range []int{1, 2, 4, 8} {
			for _, rebalanceEvery := range []int{0, 8} {
				if shards == 1 && rebalanceEvery > 0 {
					continue // single shard: nothing to re-split
				}
				res, err := rn.RunOne(Arm{Spec: spec, Mode: core.IntraInter, UpdateRatio: 0.25, Shards: shards, RebalanceEvery: rebalanceEvery})
				if err != nil {
					return err
				}
				if shards == 1 {
					base = res.Throughput
				}
				mode := "off"
				if rebalanceEvery > 0 {
					mode = fmt.Sprintf("every%d", rebalanceEvery)
				}
				row(w, ds, shards, mode, res.Throughput, res.Throughput/base,
					res.ShardStats.Imbalance(), res.ShardStats.Rebalances, res.ShardStats.Migrated)
			}
		}
	}
	return nil
}

// Ablation2 quantifies the DESIGN.md §4.2 substitution: PALM's relaxed
// delete policy (under-full nodes tolerated, only empty nodes removed)
// degrades leaf fill under insert/delete churn compared to the serial
// tree's textbook borrow/merge rebalancing. Both trees process the
// same churn cycles; rows report mean leaf fill after each cycle.
func Ablation2(rn *Runner, w io.Writer) error {
	o := rn.Opts
	n := scaleInt(2_000_000, o.Scale)
	if n < 1000 {
		n = 1000
	}

	proc, err := palm.New(palm.Config{Order: o.Order, Workers: o.Workers, LoadBalance: true}, nil)
	if err != nil {
		return err
	}
	defer proc.Close()
	serial, err := btree.New(o.Order)
	if err != nil {
		return err
	}

	r := rand.New(rand.NewSource(o.Seed))
	row(w, "cycle", "palm_leaf_fill", "serial_leaf_fill", "palm_leaves", "serial_leaves")
	rs := keys.NewResultSet(n)
	for cycle := 0; cycle < 6; cycle++ {
		batch := make([]keys.Query, n)
		for i := range batch {
			k := keys.Key(r.Intn(2 * n))
			if cycle%2 == 0 || r.Intn(3) == 0 {
				batch[i] = keys.Insert(k, keys.Value(i))
			} else {
				batch[i] = keys.Delete(k)
			}
		}
		keys.Number(batch)
		serialBatch := append([]keys.Query(nil), batch...)
		rs.Reset(n)
		proc.ProcessBatch(batch, rs)
		serial.ApplyAll(serialBatch, nil)

		pm := proc.Tree().CollectMetrics()
		sm := serial.CollectMetrics()
		row(w, cycle, pm.LeafFill, sm.LeafFill, pm.LeafNodes, sm.LeafNodes)
	}
	return nil
}

// ScanExp measures the range-scan and read-modify-write paths
// (DESIGN.md §11) against their point-query equivalents on a prefilled
// uniform tree. The scan arms compare batched scans of span W against
// W repeated point gets over the same ranges; both arms resolve the
// same key range, so the fair metric is keys covered per second. The
// RMW arm compares AddDelta batches against the two-round
// search-then-insert sequence a client without server-side RMW would
// issue (read the batch, compute, write the batch back). Not a paper
// figure; the paper's query model is point-only.
func ScanExp(rn *Runner, w io.Writer) error {
	o := rn.Opts
	spec, err := workload.SpecByName("uniform", o.Scale)
	if err != nil {
		return err
	}
	eng, err := newStack(rn.stackConfig(Arm{Mode: core.IntraInter}))
	if err != nil {
		return err
	}
	defer eng.Close()

	gen := spec.Build()
	r := rand.New(rand.NewSource(o.Seed))
	eng.load(workload.Prefill(gen, r, spec.UniqueKeys), spec.BatchSize)

	rounds := 4
	if o.Batches > 0 && o.Batches < rounds {
		rounds = o.Batches
	}
	keyMax := gen.KeyRange()

	row(w, "workload", "arm", "queries_per_batch", "keys_per_batch", "qps", "keys_per_sec", "speedup_vs_point")

	for _, span := range []uint64{16, 128, 1024} {
		if span >= keyMax {
			continue
		}
		nScans := spec.BatchSize / int(span)
		if nScans < 1 {
			nScans = 1
		}
		coverage := nScans * int(span)
		// Both arms draw the same range starts from the same seed, so
		// they inspect identical key ranges.
		drawLo := func(rr *rand.Rand) keys.Key {
			lo := uint64(gen.Key(rr))
			if lo+span > keyMax {
				lo = keyMax - span
			}
			return keys.Key(lo)
		}

		var pointElapsed time.Duration
		{
			rr := rand.New(rand.NewSource(o.Seed + int64(span)))
			batch := make([]keys.Query, coverage)
			prs := keys.NewResultSet(coverage)
			for b := 0; b < rounds; b++ {
				qi := 0
				for s := 0; s < nScans; s++ {
					lo := drawLo(rr)
					for j := uint64(0); j < span; j++ {
						batch[qi] = keys.Search(lo + keys.Key(j))
						qi++
					}
				}
				keys.Number(batch)
				prs.Reset(coverage)
				start := time.Now()
				eng.ProcessBatch(batch, prs)
				pointElapsed += time.Since(start)
			}
		}

		var scanElapsed time.Duration
		{
			rr := rand.New(rand.NewSource(o.Seed + int64(span)))
			batch := make([]keys.Query, nScans)
			srs := keys.NewResultSet(nScans)
			for b := 0; b < rounds; b++ {
				for s := 0; s < nScans; s++ {
					lo := drawLo(rr)
					batch[s] = keys.Scan(lo, lo+keys.Key(span), 0)
				}
				keys.Number(batch)
				srs.Reset(nScans)
				start := time.Now()
				eng.ProcessBatch(batch, srs)
				scanElapsed += time.Since(start)
			}
		}

		name := fmt.Sprintf("scan_span%d", span)
		pointKps := stats.Throughput(rounds*coverage, pointElapsed)
		scanKps := stats.Throughput(rounds*coverage, scanElapsed)
		row(w, name, "point_gets", coverage, coverage,
			stats.Throughput(rounds*coverage, pointElapsed), pointKps, 1.0)
		row(w, name, "batched_scan", nScans, coverage,
			stats.Throughput(rounds*nScans, scanElapsed), scanKps, scanKps/pointKps)
	}

	// RMW vs the client-side equivalent: one search batch, then one
	// insert batch writing old+1 back (two engine rounds per logical
	// update batch, plus the value plumbing between them).
	n := spec.BatchSize
	ks := make([]keys.Key, n)
	var pairElapsed time.Duration
	{
		rr := rand.New(rand.NewSource(o.Seed + 7))
		b1 := make([]keys.Query, n)
		b2 := make([]keys.Query, n)
		rrs := keys.NewResultSet(n)
		for b := 0; b < rounds; b++ {
			for i := range ks {
				ks[i] = gen.Key(rr)
				b1[i] = keys.Search(ks[i])
			}
			keys.Number(b1)
			rrs.Reset(n)
			start := time.Now()
			eng.ProcessBatch(b1, rrs)
			pairElapsed += time.Since(start)
			for i := range ks {
				var old keys.Value
				if res, ok := rrs.Get(int32(i)); ok && res.Found {
					old = res.Value
				}
				b2[i] = keys.Insert(ks[i], old+1)
			}
			keys.Number(b2)
			rrs.Reset(n)
			start = time.Now()
			eng.ProcessBatch(b2, rrs)
			pairElapsed += time.Since(start)
		}
	}
	var rmwElapsed time.Duration
	{
		rr := rand.New(rand.NewSource(o.Seed + 7))
		batch := make([]keys.Query, n)
		rrs := keys.NewResultSet(n)
		for b := 0; b < rounds; b++ {
			for i := range ks {
				batch[i] = keys.AddDelta(gen.Key(rr), 1)
			}
			keys.Number(batch)
			rrs.Reset(n)
			start := time.Now()
			eng.ProcessBatch(batch, rrs)
			rmwElapsed += time.Since(start)
		}
	}
	pairUps := stats.Throughput(rounds*n, pairElapsed)
	rmwUps := stats.Throughput(rounds*n, rmwElapsed)
	row(w, "rmw_add", "search_then_insert", 2*n, n,
		stats.Throughput(rounds*2*n, pairElapsed), pairUps, 1.0)
	row(w, "rmw_add", "rmw", n, n,
		stats.Throughput(rounds*n, rmwElapsed), rmwUps, rmwUps/pairUps)
	return nil
}

// MetricsExp runs org and inter arms with a live metrics registry
// (internal/metrics) attached and prints the per-stage time breakdown
// the registry collected: per stage, total time, share of the summed
// batch wall, and the p50/p99 of the per-batch stage latency. The
// coverage row reports sum-of-stages / batch-wall — how much of the
// measured wall the stage timers account for (transform, cache, and
// tree stages; the small remainder is commit/broadcast/merge glue).
func MetricsExp(rn *Runner, w io.Writer) error {
	spec, err := workload.SpecByName("self-similar", rn.Opts.Scale)
	if err != nil {
		return err
	}
	row(w, "mode", "stage", "total_ms", "share_of_wall", "p50_us", "p99_us")
	for _, mode := range []core.Mode{core.Original, core.IntraInter} {
		reg := metrics.New()
		arm := *rn
		arm.Opts.Metrics = reg
		if _, err := arm.RunOne(Arm{Spec: spec, Mode: mode, UpdateRatio: 0.25}); err != nil {
			return err
		}
		snap := reg.Snapshot()
		wall := snap.Histograms["batch_wall_ns"]
		var stageSum int64
		for _, s := range stats.Stages() {
			h, ok := snap.Histograms["stage_"+s.String()+"_ns"]
			if !ok || h.Count == 0 {
				continue
			}
			stageSum += h.Sum
			share := 0.0
			if wall.Sum > 0 {
				share = float64(h.Sum) / float64(wall.Sum)
			}
			row(w, mode.String(), s.String(),
				float64(h.Sum)/float64(time.Millisecond), share,
				float64(h.P50)/float64(time.Microsecond),
				float64(h.P99)/float64(time.Microsecond))
		}
		coverage := 0.0
		if wall.Sum > 0 {
			coverage = float64(stageSum) / float64(wall.Sum)
		}
		row(w, mode.String(), "batch_wall",
			float64(wall.Sum)/float64(time.Millisecond), 1.0,
			float64(wall.P50)/float64(time.Microsecond),
			float64(wall.P99)/float64(time.Microsecond))
		row(w, mode.String(), "coverage(sum/wall)", float64(stageSum)/float64(time.Millisecond), coverage, "-", "-")
	}
	return nil
}

// Table1 prints the dataset roster (Table I) at the current scale and
// at paper scale.
func Table1(rn *Runner, w io.Writer) error {
	row(w, "dataset", "queries(paper)", "uniq_keys(paper)", "batch(paper)", "queries(run)", "uniq_keys(run)", "batch(run)")
	paper := workload.Specs(1)
	scaled := workload.Specs(rn.Opts.Scale)
	for i := range paper {
		row(w, paper[i].Name, paper[i].Queries, paper[i].UniqueKeys, paper[i].BatchSize,
			scaled[i].Queries, scaled[i].UniqueKeys, scaled[i].BatchSize)
	}
	return nil
}

// Table2 prints per-dataset batch latency: opt and org at U-0 and
// U-0.75 with the Table II batch sizes.
func Table2(rn *Runner, w io.Writer) error {
	row(w, "dataset", "batch_size", "opt_U0_ms", "opt_U75_ms", "org_U0_ms", "org_U75_ms")
	for _, sp := range workload.Specs(rn.Opts.Scale) {
		lat := func(mode core.Mode, u float64) (float64, error) {
			res, err := rn.RunOne(Arm{Spec: sp, Mode: mode, UpdateRatio: u})
			if err != nil {
				return 0, err
			}
			return float64(res.Latency.Mean()) / float64(time.Millisecond), nil
		}
		optU0, err := lat(core.IntraInter, 0)
		if err != nil {
			return err
		}
		optU75, err := lat(core.IntraInter, 0.75)
		if err != nil {
			return err
		}
		orgU0, err := lat(core.Original, 0)
		if err != nil {
			return err
		}
		orgU75, err := lat(core.Original, 0.75)
		if err != nil {
			return err
		}
		row(w, sp.Name, sp.BatchSize, optU0, optU75, orgU0, orgU75)
	}
	return nil
}

// AutoshardExp measures traffic-aware autosharding (DESIGN.md §13)
// against static partitioning under a drifting hotspot: 90% of queries
// hit a window of contiguous keys whose center walks the key space, so
// any fixed boundary layout is right only for a while. Per-shard caches
// are sized to a third of the window — smaller than the hot set, so the
// static arm's one hot shard thrashes, while the controller's boundary
// moves spread the window across shards whose aggregate cache covers
// it. The autoshard arm starts at two shards and is capped at the
// static arm's four, so both arms end with identical resources; splits,
// merges, and boundary moves all run live during the measured loop.
// Rows report end-to-end throughput, speedup over the static arm, the
// cumulative routing imbalance, structural/migration activity, batch
// wall percentiles, and the longest single controller pause — the
// non-stop-the-world claim is that the pause stays within one batch
// wall time.
func AutoshardExp(rn *Runner, w io.Writer) error {
	o := rn.Opts
	// The measured loops are sub-second on small machines; a GC cycle
	// landing inside one arm's window (but not the other's) would
	// swamp the comparison. Relax the GC for the duration — both arms
	// run under the identical setting.
	defer debug.SetGCPercent(debug.SetGCPercent(800))
	span := scaleInt(4_000_000, o.Scale)
	if span < 4096 {
		span = 4096
	}
	width := span / 16
	cacheCap := width / 3
	batchSize := scaleInt(40_960, o.Scale)
	if batchSize < 64 {
		batchSize = 64
	}
	nBatches := 150
	if o.Batches > 0 && nBatches > o.Batches {
		nBatches = o.Batches
	}

	type armResult struct {
		shards   int
		qps      float64
		st       *stats.Shard
		hitRate  float64
		p50, max time.Duration
		maxPause time.Duration
		pauseP99 time.Duration
	}
	runArm := func(shards int, auto shard.AutoshardConfig) (*armResult, error) {
		gen := &workload.Drifting{
			Span:          uint64(span),
			Width:         uint64(width),
			VelocityMilli: 15,
			HotFraction:   0.98,
		}
		cfg := rn.stackConfig(Arm{Mode: core.IntraInter, Shards: shards})
		// Order 4 keeps the trees deep at harness scales, so a cache
		// miss costs a realistic multi-level descent; both arms use
		// the identical engine config.
		cfg.Engine.Palm.Order = 4
		cfg.Engine.CacheCapacity = cacheCap
		cfg.KeyMax = keys.Key(span - 1)
		cfg.Autoshard = auto
		eng, err := newStack(cfg)
		if err != nil {
			return nil, err
		}
		defer eng.Close()

		// Uniform-density prefill (every other key), so equal-width
		// boundaries start equal-count too: the static arm is the best
		// fixed layout for everything but the hotspot.
		prefill := make([]keys.Query, 0, span/2+1)
		for k := 0; k < span; k += 2 {
			prefill = append(prefill, keys.Insert(keys.Key(k), keys.Value(k)))
		}
		eng.load(prefill, batchSize)

		r := rand.New(rand.NewSource(o.Seed))
		batch := make([]keys.Query, batchSize)
		rs := keys.NewResultSet(batchSize)

		// Warmup (untimed): both arms process the same draws; the
		// autoshard arm's controller converges its boundaries onto the
		// hotspot here, so the measured loop below compares steady
		// states, not the one-off cost of leaving the cold layout.
		for b := 0; b < nBatches/3; b++ {
			workload.FillBatch(gen, r, batch, 0.5)
			rs.Reset(len(batch))
			eng.ProcessBatch(batch, rs)
			// Step until the controller has no pending migration (the
			// initial convergence away from equal-width boundaries is
			// many MaxStep slices); bounded so a flapping layout cannot
			// spin forever.
			for s := 0; auto.Enabled && s < 64; s++ {
				r := eng.se.AutoshardStep()
				if r.Moved == 0 && !r.Split && !r.Merge {
					break
				}
			}
		}

		// A clean heap before each arm's measured loop: the arms run
		// sequentially in one process, and letting the first arm's
		// garbage bill land in the second arm's window would skew the
		// comparison on small machines.
		runtime.GC()
		totals := stats.NewBatch(cfg.Engine.Palm.Workers)
		var lat, pauses stats.LatencyRecorder
		var maxPause time.Duration
		// Three repetitions of the measured window; the reported
		// throughput is the best one. Scheduler and GC interference on
		// small machines only ever slows a window down, so the fastest
		// repetition is the closest estimate of each arm's intrinsic
		// rate — and both arms are scored the same way.
		const reps = 3
		bestQps := 0.0
		for rep := 0; rep < reps; rep++ {
			var elapsed time.Duration
			queries := 0
			for b := 0; b < nBatches; b++ {
				workload.FillBatch(gen, r, batch, 0.5)
				rs.Reset(len(batch))
				start := time.Now()
				eng.ProcessBatch(batch, rs)
				d := time.Since(start)
				elapsed += d
				lat.Record(d)
				eng.Stats().AddTo(totals)
				queries += len(batch)
				if auto.Enabled {
					// Two controller steps per batch, each a bounded
					// pause at a batch boundary.
					for s := 0; s < 2; s++ {
						ps := time.Now()
						eng.se.AutoshardStep()
						p := time.Since(ps)
						pauses.Record(p)
						if p > maxPause {
							maxPause = p
						}
					}
				}
			}
			if q := stats.Throughput(queries, elapsed); q > bestQps {
				bestQps = q
			}
		}
		hitRate := 0.0
		if looked := totals.CacheHits + totals.CacheMisses; looked > 0 {
			hitRate = float64(totals.CacheHits) / float64(looked)
		}
		return &armResult{
			shards:   eng.se.Shards(),
			qps:      bestQps,
			st:       eng.se.ShardStats(),
			hitRate:  hitRate,
			p50:      lat.Percentile(0.50),
			max:      lat.Max(),
			maxPause: maxPause,
			pauseP99: pauses.Percentile(0.99),
		}, nil
	}

	static, err := runArm(4, shard.AutoshardConfig{})
	if err != nil {
		return err
	}
	autoCfg := shard.AutoshardConfig{
		Enabled:    true,
		Interval:   -1, // stepped manually so every pause is timed
		Buckets:    256,
		DecayShift: 3,
		SplitAbove: 1.6,
		MergeBelow: 0.15,
		Hysteresis: 3,
		MaxStep:    256,
		MaxShards:  4,
		MinShards:  2,
		MinHeat:    16,
	}
	auto, err := runArm(4, autoCfg)
	if err != nil {
		return err
	}

	row(w, "arm", "shards", "qps", "speedup", "hit_rate", "imbalance", "splits", "merges", "moves", "migrated", "p50_batch_ms", "max_batch_ms", "pause_p99_ms", "max_pause_ms")
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	row(w, "static", static.shards, static.qps, 1.0, static.hitRate, static.st.Imbalance(),
		0, 0, 0, 0, ms(static.p50), ms(static.max), 0.0, 0.0)
	row(w, "autoshard", auto.shards, auto.qps, auto.qps/static.qps, auto.hitRate, auto.st.Imbalance(),
		auto.st.AutoSplits, auto.st.AutoMerges, auto.st.Moves, auto.st.Migrated,
		ms(auto.p50), ms(auto.max), ms(auto.pauseP99), ms(auto.maxPause))
	// The non-stop-the-world claim, asserted rather than eyeballed: the
	// controller's batch-boundary pause must stay within one batch wall
	// time. p99 is the asserted statistic — the absolute max of a
	// sub-millisecond timer is owned by whichever GC or scheduler
	// preemption lands inside it, which the max_pause_ms column reports
	// for transparency without gating on it. The bound is only
	// meaningful when a batch is at least one migration slice of work:
	// at micro scales a MaxStep-key move legitimately outweighs a
	// smaller batch, so the assertion is skipped there.
	if batchSize >= autoCfg.MaxStep && auto.pauseP99 > auto.p50 {
		return fmt.Errorf("autoshard: p99 migration pause %v exceeds one batch wall %v", auto.pauseP99, auto.p50)
	}
	return nil
}

// TieredExp measures cold-range tiering (DESIGN.md §14) against the
// all-in-memory baseline on a key space four times the tiered arm's
// resident budget: both arms load the full span through the engine,
// then serve a working-set workload — a hot window of reads and
// updates whose position walks half the span over the run, plus a 2%
// trickle of uniform point reads over the whole space. The load
// overflows the tiered arm's budget immediately, so demotions run
// throughout; the drifting window then writes into demoted territory,
// faulting ranges back in as it moves, while the uniform reads land in
// cold ranges and are answered from runs on disk without promoting —
// the full fault/promote/demote cycle is live during the measured
// loop. (Uniform traffic is deliberately read-only: promotion is
// per-range, so scattered cold writes fault in far more keys than they
// touch, and no demotion bandwidth can bound residency under them —
// the classic tiering thrash regime, measurable by editing the fill
// loop, but not this experiment's operating point.)
// Rows report end-to-end throughput, the tier gauges (resident/cold
// keys, run count, disk bytes) and counters (faults, promotions,
// demotions), and the post-GC live heap. The bounded-RSS claim is
// asserted, not eyeballed: the tiered arm's final resident keys must
// stay within the budget plus the transient slack one batch can add
// (in-flight promotions, not-yet-demoted inserts, dirty cache); the
// plain arm, by construction, holds the whole span.
func TieredExp(rn *Runner, w io.Writer) error {
	o := rn.Opts
	defer debug.SetGCPercent(debug.SetGCPercent(800))
	span := scaleInt(2_000_000, o.Scale)
	if span < 8192 {
		span = 8192
	}
	budget := span / 4
	runKeys := budget / 8
	batchSize := scaleInt(40_960, o.Scale)
	if batchSize < 512 {
		batchSize = 512
	}
	nBatches := 120
	if o.Batches > 0 && nBatches > o.Batches {
		nBatches = o.Batches
	}
	// Demotion moves at most one heat-bucket-wide range per action, so
	// per-batch demotion bandwidth is actions x span/buckets keys; with
	// 64 buckets and eight actions that is span/8 per batch — an order
	// above the load inflow (one batch of fresh inserts) and the
	// promotion inflow (the window's walk rate, span/(2 x batches)).
	const actionsPerBatch = 8
	const heatBuckets = 64
	// The write-back cache holds dirty pairs outside the tree, where the
	// resident budget cannot see them; size it well below the budget so
	// cached slack stays a small fraction of the bound (both arms use
	// the same cache, so the comparison stays fair).
	cacheCap := budget / 8
	if cacheCap < 64 {
		cacheCap = 64
	}

	type armResult struct {
		qps    float64
		heapMB float64
		st     tier.Stats
	}
	runArm := func(tiered bool) (*armResult, error) {
		cfg := rn.stackConfig(Arm{Mode: core.IntraInter})
		cfg.Engine.CacheCapacity = cacheCap
		eng, err := newStack(cfg)
		if err != nil {
			return nil, err
		}
		defer eng.Close()
		if tiered {
			dir, err := os.MkdirTemp("", "qtrans-tiered-exp-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			tc := tier.Config{
				Dir:         filepath.Join(dir, "tier"),
				MaxResident: budget,
				RunKeys:     runKeys,
				Buckets:     heatBuckets,
				KeyMax:      keys.Key(span - 1),
				Metrics:     o.Metrics,
			}
			if err := eng.wrapTier(tc, actionsPerBatch); err != nil {
				return nil, err
			}
		}

		// Load the whole span (value = key). The tiered arm's budget
		// overflows a quarter of the way in, so the load itself runs
		// under continuous demotion pressure.
		fill := make([]keys.Query, span)
		for k := range fill {
			fill[k] = keys.Insert(keys.Key(k), keys.Value(k))
		}
		eng.load(fill, batchSize)

		r := rand.New(rand.NewSource(o.Seed))
		width := span / 16
		batch := make([]keys.Query, batchSize)
		rs := keys.NewResultSet(batchSize)
		var elapsed time.Duration
		queries := 0
		for b := 0; b < nBatches; b++ {
			// The window's low edge walks half the span over the run.
			winLo := b * span / (2 * nBatches)
			for i := range batch {
				if r.Float64() < 0.98 {
					k := keys.Key(winLo + r.Intn(width))
					if r.Float64() < 0.3 {
						batch[i] = keys.Insert(k, keys.Value(k))
					} else {
						batch[i] = keys.Search(k)
					}
				} else {
					batch[i] = keys.Search(keys.Key(r.Intn(span)))
				}
			}
			keys.Number(batch)
			rs.Reset(len(batch))
			start := time.Now()
			eng.ProcessBatch(batch, rs)
			elapsed += time.Since(start)
			queries += len(batch)
		}

		res := &armResult{qps: stats.Throughput(queries, elapsed)}
		st, err := eng.tierStats()
		if err != nil {
			return nil, err
		}
		if st != nil {
			// The workload never deletes, so hot + cold must still hold
			// exactly the loaded span — a logical-integrity check on the
			// whole demote/promote churn above.
			if got := eng.te.Len(); got != span {
				return nil, fmt.Errorf("tiered arm lost keys: Len %d, loaded %d", got, span)
			}
			res.st = *st
		} else {
			res.st.ResidentKeys = int64(eng.se.StoredLen())
		}
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		res.heapMB = float64(m.HeapAlloc) / 1e6
		return res, nil
	}

	plain, err := runArm(false)
	if err != nil {
		return err
	}
	tieredRes, err := runArm(true)
	if err != nil {
		return err
	}

	row(w, "arm", "qps", "speedup", "resident_keys", "cold_keys", "cold_ranges", "disk_mb", "faults", "promotions", "demotions", "heap_mb")
	row(w, "plain", plain.qps, 1.0, plain.st.ResidentKeys, 0, 0, 0.0, 0, 0, 0, plain.heapMB)
	ts := tieredRes.st
	row(w, "tiered", tieredRes.qps, tieredRes.qps/plain.qps, ts.ResidentKeys, ts.ColdKeys,
		ts.ColdRanges, float64(ts.DiskBytes)/1e6, ts.Faults, ts.Promotions, ts.Demotions, tieredRes.heapMB)

	if ts.Demotions == 0 || ts.ColdKeys == 0 {
		return fmt.Errorf("tiered: no demotions on a span (%d) four times the budget (%d)", span, budget)
	}
	// The transient slack: one batch can promote up to actionsPerBatch
	// runs before the following boundaries demote the overflow back out,
	// a batch of fresh inserts lands resident first, and dirty cached
	// pairs sit outside the tree the budget check reads.
	bound := int64(budget + actionsPerBatch*runKeys + batchSize + cacheCap)
	if ts.ResidentKeys > bound {
		return fmt.Errorf("tiered: resident keys %d exceed budget %d + slack (bound %d)", ts.ResidentKeys, budget, bound)
	}
	return nil
}
