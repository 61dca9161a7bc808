// Package harness drives the paper's evaluation (§VI): it builds trees
// from Table I dataset specs, streams query batches through the
// original PALM pipeline and the QTrans-optimized pipelines, and emits
// the rows behind every figure and table. Each experiment function
// corresponds to one figure/table; see DESIGN.md §3 for the index.
package harness

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/palm"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/tier"
	"repro/internal/workload"
)

// Options configures a harness run.
type Options struct {
	// Scale shrinks Table I dataset sizes (1 = paper scale). The
	// default used by the CLI and benches is laptop-scale.
	Scale float64
	// Workers is the BSP thread count; <= 0 selects GOMAXPROCS.
	Workers int
	// Order is the B+ tree order; <= 0 selects the default.
	Order int
	// Seed makes workloads reproducible.
	Seed int64
	// CacheCapacity is the top-K cache size for IntraInter runs.
	CacheCapacity int
	// Batches caps the number of batches per run (0 = all queries).
	Batches int

	// Metrics, when non-nil, instruments every engine the harness builds
	// into the given registry (nil keeps runs uninstrumented, identical
	// to before).
	Metrics *metrics.Registry

	// Autoshard, when Enabled, turns on the traffic-aware resharding
	// controller for sharded runs (RunOne with Arm.Shards > 1). The
	// harness never starts the background loop; it steps the
	// controller at batch boundaries, so the measured loop stays
	// deterministic.
	Autoshard shard.AutoshardConfig

	// TieredDir, when set, wraps every RunOne arm — one shard or
	// several, batch-at-a-time or streamed — with the cold-range tier
	// store (DESIGN.md §14) rooted at this directory; the directory is
	// wiped on open.
	TieredDir string
	// TieredBudget is the tiered runs' resident key budget
	// (0 = a quarter of the keys stored after prefill).
	TieredBudget int

	// Conns is the number of concurrent client connections the serve
	// experiment drives (<= 0 derives a laptop-scale count from Scale).
	Conns int
	// ServerBin, when set, points the serve experiment at a built
	// cmd/qtransserver binary: each phase spawns its own server process
	// (so client and server draw on separate file-descriptor budgets)
	// and parses its stdout counter lines. Empty runs the server
	// in-process, which caps Conns at inprocConnCap because every
	// connection then costs two descriptors in one process.
	ServerBin string
}

// normalized fills defaults.
func (o Options) normalized() Options {
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 0.002
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.CacheCapacity == 0 {
		o.CacheCapacity = 1 << 16
	}
	return o
}

// Result is the outcome of one (dataset, mode, update ratio, threads)
// measurement.
type Result struct {
	Dataset     string
	Mode        core.Mode
	UpdateRatio float64
	Threads     int
	BatchSize   int
	Queries     int
	Elapsed     time.Duration
	// Throughput in queries/second over the whole run.
	Throughput float64
	// Latency summarizes per-batch wall time (Table II).
	Latency stats.LatencyRecorder
	// Totals accumulates per-batch stats (reduction ratio, stage
	// times, leaf ops).
	Totals *stats.Batch
	// Batches is the number of measured batches.
	Batches int
	// Mem is the allocation/GC growth over the measured loop (the
	// allocation-sweep metrics; divide by Batches for per-batch rates).
	Mem stats.MemDelta
	// ShardStats carries the routing/imbalance counters of the run's
	// shard router (a single shard unless Arm.Shards > 1).
	ShardStats *stats.Shard
	// Tier carries the cold-store gauges and counters for tiered runs
	// (nil otherwise).
	Tier *tier.Stats
}

// ReductionRatio of the whole run.
func (r *Result) ReductionRatio() float64 { return r.Totals.ReductionRatio() }

// Runner executes measurements.
type Runner struct {
	Opts Options
}

// NewRunner returns a Runner with normalized options.
func NewRunner(opts Options) *Runner { return &Runner{Opts: opts.normalized()} }

// Arm describes one measured configuration of the engine stack.
type Arm struct {
	// Spec is the Table I dataset to prefill and draw batches from.
	Spec workload.Spec
	// Mode is the QTrans configuration.
	Mode core.Mode
	// UpdateRatio is the share of updates (inserts and deletes) in
	// each batch; the rest are searches.
	UpdateRatio float64
	// Threads is the BSP thread budget (<= 0 = Options.Workers),
	// divided across the shards: max(1, Threads/Shards) each, so a
	// shard sweep compares partitionings of a fixed budget.
	Threads int
	// BatchSize overrides the spec's (scaled) batch size (<= 0 keeps
	// it).
	BatchSize int
	// Shards range-partitions the key space (<= 1 = one shard).
	// Initial boundaries are equal-width over the generator's key
	// range.
	Shards int
	// RebalanceEvery re-splits the shard boundaries from the stored
	// keys after the prefill and then every that many batches (0 =
	// never).
	RebalanceEvery int
	// NaiveBalance splits leaf groups evenly by count instead of by
	// PALM's prefix-sum query balancing (the Fig. 13 ablation).
	NaiveBalance bool
	// Stream drives the batches through the engine's streaming
	// interface; Pipeline turns on the two-stage pipeline that
	// overlaps one batch's transform with the previous batch's tree
	// evaluation (only streamed batches overlap).
	Stream, Pipeline bool
}

// normalized fills an arm's defaults from the runner options.
func (a Arm) normalized(o Options) Arm {
	if a.Threads <= 0 {
		a.Threads = o.Workers
	}
	if a.BatchSize <= 0 {
		a.BatchSize = a.Spec.BatchSize
	}
	a.BatchSize = max(a.BatchSize, 1)
	a.Shards = max(a.Shards, 1)
	return a
}

// perShard is the arm's BSP thread count per shard.
func (a Arm) perShard() int { return max(1, a.Threads/a.Shards) }

// engine is the batch surface of the harness's engine stack: the
// shard.Engine, or the tier.Engine wrapping it.
type engine interface {
	ProcessBatch(qs []keys.Query, rs *keys.ResultSet)
	ProcessStream(in <-chan *core.Job, emit func(*core.Job))
	Stats() *stats.Batch
	Close()
}

// stack is the engine stack every harness measurement drives, layered
// as the qtrans facade layers it: a range-partitioned shard.Engine
// (one shard unless the arm asks for more), optionally wrapped by the
// cold-range tier store. Batches go to the embedded outermost engine.
type stack struct {
	engine
	se *shard.Engine
	te *tier.Engine // nil unless tiered
}

// stackConfig is the engine-stack config of an arm: the runner's
// order, cache, metrics and autoshard controller, and the arm's mode,
// shards and per-shard threads (prefix-sum load balancing whenever a
// shard has more than one thread, unless the arm is naive).
func (rn *Runner) stackConfig(a Arm) shard.Config {
	o := rn.Opts
	a = a.normalized(o)
	w := a.perShard()
	return shard.Config{
		Shards: a.Shards,
		Engine: core.EngineConfig{
			Mode:          a.Mode,
			Palm:          palm.Config{Order: o.Order, Workers: w, LoadBalance: w > 1 && !a.NaiveBalance},
			CacheCapacity: o.CacheCapacity,
			Pipeline:      a.Pipeline,
			Metrics:       o.Metrics,
		},
		Autoshard: o.Autoshard,
	}
}

// newStack builds the shard engine of cfg.
func newStack(cfg shard.Config) (*stack, error) {
	se, err := shard.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	return &stack{engine: se, se: se}, nil
}

// wrapTier wraps the stack with a tier store rooted at cfg.Dir (wiped
// on open), applying at most actions demotions per batch boundary.
func (s *stack) wrapTier(cfg tier.Config, actions int) error {
	st, err := tier.Open(cfg, true)
	if err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	s.te = tier.NewEngine(s.se, st, actions)
	s.engine = s.te
	return nil
}

// load applies qs in batches of batchSize, untimed: the prefill and
// bulk-load step of every measurement.
func (s *stack) load(qs []keys.Query, batchSize int) {
	rs := keys.NewResultSet(batchSize)
	for lo := 0; lo < len(qs); lo += batchSize {
		chunk := keys.Number(qs[lo:min(lo+batchSize, len(qs))])
		rs.Reset(len(chunk))
		s.ProcessBatch(chunk, rs)
	}
}

// tierStats returns the cold-store gauges and counters of a tiered
// stack (nil when untiered), or the sticky tier failure.
func (s *stack) tierStats() (*tier.Stats, error) {
	if s.te == nil {
		return nil, nil
	}
	if err := s.te.Err(); err != nil {
		return nil, fmt.Errorf("harness: tiered run: %w", err)
	}
	st := s.te.Store().Stats()
	return &st, nil
}

// RunOne measures one arm: it prefills the stack with the dataset's
// unique keys, then times the batches one at a time (per-batch
// latency, rebalance and autoshard steps included) or, for streamed
// arms, the whole stream end to end.
func (rn *Runner) RunOne(a Arm) (*Result, error) {
	o := rn.Opts
	a = a.normalized(o)
	gen := a.Spec.Build()
	cfg := rn.stackConfig(a)
	cfg.KeyMax = keys.Key(gen.KeyRange())
	s, err := newStack(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()

	// Prefill through the engine itself in batch-sized chunks (fast and
	// latch-free). The tier wrapper attaches after the prefill, so its
	// default budget can be sized against the keys actually stored
	// (skewed datasets collapse many draws onto few distinct keys).
	r := rand.New(rand.NewSource(o.Seed))
	s.load(workload.Prefill(gen, r, a.Spec.UniqueKeys), a.BatchSize)
	if a.RebalanceEvery > 0 {
		// Start from boundaries fitted to the prefilled store.
		if _, err := s.se.Rebalance(); err != nil {
			return nil, err
		}
	}
	if o.TieredDir != "" {
		budget := o.TieredBudget
		if budget <= 0 {
			budget = max(1, s.se.StoredLen()/4)
		}
		// Eight maintenance actions per batch so residency converges
		// toward the budget within a short probe run.
		tc := tier.Config{Dir: o.TieredDir, MaxResident: budget, KeyMax: cfg.KeyMax, Metrics: o.Metrics}
		if err := s.wrapTier(tc, 8); err != nil {
			return nil, err
		}
	}

	res := &Result{
		Dataset:     a.Spec.Name,
		Mode:        a.Mode,
		UpdateRatio: a.UpdateRatio,
		Threads:     a.perShard() * a.Shards,
		BatchSize:   a.BatchSize,
		Totals:      stats.NewBatch(a.perShard()),
		Batches:     (a.Spec.Queries + a.BatchSize - 1) / a.BatchSize,
		ShardStats:  s.se.ShardStats(),
	}
	if o.Batches > 0 && res.Batches > o.Batches {
		res.Batches = o.Batches
	}
	if a.Stream {
		rn.stream(s, gen, r, a, res)
	} else if err := rn.batches(s, gen, r, a, res); err != nil {
		return nil, err
	}
	res.Throughput = stats.Throughput(res.Queries, res.Elapsed)
	if res.Tier, err = s.tierStats(); err != nil {
		return nil, err
	}
	return res, nil
}

// batches times res.Batches batches one at a time.
func (rn *Runner) batches(s *stack, gen workload.Generator, r *rand.Rand, a Arm, res *Result) error {
	batch := make([]keys.Query, a.BatchSize)
	rs := keys.NewResultSet(a.BatchSize)
	m0 := stats.CaptureMem()
	for b := 0; b < res.Batches; b++ {
		workload.FillBatch(gen, r, batch, a.UpdateRatio)
		rs.Reset(len(batch))
		start := time.Now()
		s.ProcessBatch(batch, rs)
		if a.RebalanceEvery > 0 && (b+1)%a.RebalanceEvery == 0 {
			if _, err := s.se.Rebalance(); err != nil {
				return err
			}
		}
		if rn.Opts.Autoshard.Enabled {
			s.se.AutoshardStep()
		}
		d := time.Since(start)
		res.Elapsed += d
		res.Latency.Record(d)
		s.Stats().AddTo(res.Totals)
		res.Queries += len(batch)
	}
	res.Mem = stats.CaptureMem().Sub(m0)
	return nil
}

// stream times res.Batches batches through the engine's streaming
// interface. All batches are pre-generated so streamed arms see
// identical inputs and generation cost stays outside the measured
// region; the elapsed time is end-to-end wall clock over the whole
// stream, which is what pipelining improves (per-batch latency does
// not shrink — batches overlap — so none is recorded).
func (rn *Runner) stream(s *stack, gen workload.Generator, r *rand.Rand, a Arm, res *Result) {
	jobs := make([]*core.Job, res.Batches)
	for b := range jobs {
		qs := make([]keys.Query, a.BatchSize)
		workload.FillBatch(gen, r, qs, a.UpdateRatio)
		jobs[b] = &core.Job{Qs: qs}
	}
	in := make(chan *core.Job, 1)
	m0 := stats.CaptureMem()
	start := time.Now()
	go func() {
		for _, j := range jobs {
			in <- j
		}
		close(in)
	}()
	s.ProcessStream(in, func(j *core.Job) {
		s.Stats().AddTo(res.Totals)
		res.Queries += len(j.Qs)
	})
	res.Elapsed = time.Since(start)
	res.Mem = stats.CaptureMem().Sub(m0)
}

// UpdateRatios are the x-axis points of Figs. 9-12 and 14.
var UpdateRatios = []float64{0, 0.25, 0.5, 0.75}

// ThreadCounts returns the scalability sweep points of Figs. 10-12:
// powers of two from 1 up to max (the paper sweeps 1..64).
func ThreadCounts(max int) []int {
	if max < 1 {
		max = 1
	}
	var out []int
	for t := 1; t <= max; t *= 2 {
		out = append(out, t)
	}
	if out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// row prints an aligned table row.
func row(w io.Writer, cols ...interface{}) {
	for i, c := range cols {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		switch v := c.(type) {
		case float64:
			fmt.Fprintf(w, "%.4g", v)
		default:
			fmt.Fprintf(w, "%v", v)
		}
	}
	fmt.Fprintln(w)
}
