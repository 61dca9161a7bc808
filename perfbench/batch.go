package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/qtrans"
)

// batchSpec is one closed-loop batch workload: a single producer
// replays a fixed, seeded sequence of batches through DB.Run. Every
// round opens a fresh DB, prefills it and replays the same sequence,
// so every round (and both sides of a comparison) does the same work
// and ends in the same tree state; rounds repeat until the measured
// time reaches --seconds.
type batchSpec struct {
	space     uint64  // key space [0, space)
	prefill   float64 // share of the key space present after set-up
	batchSize int
	batches   int // batches per round
	// budget is Options.Tiered.MaxResidentKeys; 0 leaves tiering off.
	budget int
	// newFill returns the round's query generator; fill writes one
	// batch of queries (numbered 0..len-1) into qs.
	newFill func(space uint64) func(r *rand.Rand, qs []keys.Query)
}

// minRounds is the fewest rounds a batch run makes: set-up time is the
// median over rounds, and a traced run alternates untraced and traced
// rounds (ABAB), so it needs at least two of each.
const minRounds = 4

func skewSpec(scale float64) batchSpec {
	return batchSpec{
		space:     scaled(2<<20, scale),
		prefill:   0.5,
		batchSize: int(scaled(65536, scale)),
		batches:   100,
		newFill: func(space uint64) func(*rand.Rand, []keys.Query) {
			gen := workload.NewZipfian(space, 0.99)
			return func(r *rand.Rand, qs []keys.Query) { workload.FillBatch(gen, r, qs, 0.5) }
		},
	}
}

func uniformSpec(scale float64) batchSpec {
	return batchSpec{
		space:     scaled(8<<20, scale),
		prefill:   0.5,
		batchSize: int(scaled(65536, scale)),
		batches:   100,
		newFill: func(space uint64) func(*rand.Rand, []keys.Query) {
			gen := workload.NewUniform(space)
			return func(r *rand.Rand, qs []keys.Query) { workload.FillBatch(gen, r, qs, 0.05) }
		},
	}
}

func tieredSpec(scale float64) batchSpec {
	space := scaled(2<<20, scale)
	return batchSpec{
		space:     space,
		prefill:   0.5,
		batchSize: int(scaled(16384, scale)),
		batches:   100,
		budget:    int(space / 8), // a quarter of the prefilled keys
		newFill: func(space uint64) func(*rand.Rand, []keys.Query) {
			hot := &workload.Drifting{Span: space, Width: space / 64, VelocityMilli: 250, HotFraction: 1}
			cold := workload.NewUniform(space)
			return func(r *rand.Rand, qs []keys.Query) {
				for i := range qs {
					switch u := r.Float64(); {
					case u < 0.2:
						qs[i] = keys.Insert(hot.Key(r), keys.Value(r.Uint64()))
					case u < 0.9:
						qs[i] = keys.Search(hot.Key(r))
					default:
						qs[i] = keys.Search(cold.Key(r))
					}
				}
				keys.Number(qs)
			}
		},
	}
}

func scaled(n uint64, scale float64) uint64 {
	v := uint64(float64(n) * scale)
	if v < 64 {
		v = 64
	}
	return v
}

// mix is the splitmix64 finalizer, used to derive per-key choices from
// the seed without storing them.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// prefilled visits, in ascending order, the keys present after set-up:
// each key of [0, space) independently with probability share, chosen
// by the seed. Nothing is stored, so the benchmark's own heap stays out
// of heap_mb.
func prefilled(seed int64, space uint64, share float64, fn func(k keys.Key, v keys.Value)) {
	all, cut := share >= 1, uint64(share*(1<<63))<<1
	for k := uint64(0); k < space; k++ {
		if h := mix(uint64(seed)<<32 ^ k); all || h < cut {
			fn(keys.Key(k), keys.Value(mix(h)))
		}
	}
}

// prefillBatch is the insert batch size used to load the prefill keys.
const prefillBatch = 65536

// load inserts the prefill keys into db through Run, in batches.
func load(db *qtrans.DB, seed int64, space uint64, share float64) {
	b := qtrans.NewBatch()
	prefilled(seed, space, share, func(k keys.Key, v keys.Value) {
		b.Insert(k, v)
		if b.Len() == prefillBatch {
			db.Run(b)
			b = qtrans.NewBatch()
		}
	})
	if b.Len() > 0 {
		db.Run(b)
	}
}

// toBatch copies generated queries into a facade batch.
func toBatch(qs []keys.Query) *qtrans.Batch {
	b := qtrans.NewBatch()
	for _, q := range qs {
		switch q.Op {
		case keys.OpSearch:
			b.Search(q.Key)
		case keys.OpInsert:
			b.Insert(q.Key, q.Value)
		case keys.OpDelete:
			b.Delete(q.Key)
		default:
			panic(fmt.Sprintf("perfbench: batch workloads generate no %v", q.Op))
		}
	}
	return b
}

// digest folds one batch's results (position, presence, value) into a
// hash, so later rounds can be checked against the oracle-verified
// first round without keeping every result.
func digest(qs []keys.Query, res *qtrans.Results) uint64 {
	h := uint64(len(qs))
	for i, q := range qs {
		if q.Op != keys.OpSearch {
			continue
		}
		r, _ := res.Search(i)
		f := uint64(0)
		if r.Found {
			f = 1
		}
		h = mix(h ^ uint64(i)<<1 ^ f ^ uint64(r.Value)*0x100000001b3)
	}
	return h
}

// batchLayers accumulates LastBatchStats and the registry over the
// traced rounds.
type batchLayers struct {
	total     *stats.Batch
	batches   int
	imbalance float64
	batchWall metrics.HistogramSnapshot // the engine's batch_wall_ns
	busy      time.Duration             // time inside Run
	wall      time.Duration             // round time after set-up
	tier      map[string][]float64
}

func runBatch(cfg config, spec batchSpec) (*result, error) {
	res := &result{e2e: map[string]float64{}, layer: map[string]float64{}}
	base := filepath.Join(cfg.outDir, fmt.Sprintf("data-%d", os.Getpid()))
	defer os.RemoveAll(base)
	qs := make([]keys.Query, spec.batchSize)

	var (
		setups   []float64
		roundQPS []float64
		// Indexed [untraced, traced]: batch latencies and time inside Run.
		lat        [2][]float64
		busy       [2]time.Duration
		digests    []uint64
		wantLen    int
		heap, disk float64
		lay        = batchLayers{tier: map[string][]float64{}}
	)
	for round := 0; ; round++ {
		traced := cfg.trace && round%2 == 1
		tr := (*tracer)(nil)
		if traced {
			if res.tr == nil {
				res.tr = newTracer()
			}
			tr = res.tr
		}
		dir := filepath.Join(base, fmt.Sprintf("round%d", round))
		opts := qtrans.Options{}
		if spec.budget > 0 {
			opts.Tiered = qtrans.Tiered{Dir: filepath.Join(dir, "tier"), MaxResidentKeys: spec.budget, KeyMax: keys.Key(spec.space)}
		}
		if traced {
			opts.Metrics = qtrans.NewMetrics()
		}
		runtime.GC()

		t0 := time.Now()
		db, err := qtrans.Open(opts)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		load(db, cfg.seed, spec.space, spec.prefill)
		t2 := time.Now()
		setups = append(setups, t2.Sub(t0).Seconds())
		tr.add("qtrans.open", t0, t1, -1, -1)
		tr.add("prefill", t1, t2, -1, -1)

		var orc *oracle.Oracle
		var ors *keys.ResultSet
		if round == 0 {
			orc = oracle.New()
			prefilled(cfg.seed, spec.space, spec.prefill, func(k keys.Key, v keys.Value) {
				orc.Apply(keys.Insert(k, v), nil)
			})
			ors = keys.NewResultSet(spec.batchSize)
		}
		fill := spec.newFill(spec.space)
		r := rand.New(rand.NewSource(cfg.seed))
		t := b2i(traced)
		var roundBusy time.Duration
		roundStart := time.Now()
		for i := 0; i < spec.batches; i++ {
			fill(r, qs)
			b := toBatch(qs)
			start := time.Now()
			out := db.Run(b)
			end := time.Now()
			d := end.Sub(start)
			roundBusy += d
			lat[t] = append(lat[t], ms(d))

			if traced {
				st := db.LastBatchStats()
				id := int64(round)<<32 | int64(i)
				tr.stages(tr.add("db.run", start, end, -1, id), start, st, id)
				if lay.total == nil {
					lay.total = stats.NewBatch(len(st.LeafOps))
				}
				st.AddTo(lay.total)
				lay.imbalance += st.LeafOpImbalance()
				lay.batches++
			}
			if orc != nil {
				if err := checkBatch(orc, ors, qs, out, i, cfg.corrupt && i == 0); err != nil {
					return nil, err
				}
				digests = append(digests, digest(qs, out))
			} else if got := digest(qs, out); got != digests[i] {
				return nil, mismatchf("round %d batch %d: result digest %x, want %x (round 0 matched the oracle)", round, i, got, digests[i])
			}
			res.attempted += int64(len(qs))
		}
		roundWall := time.Since(roundStart)
		busy[t] += roundBusy
		roundQPS = append(roundQPS, float64(spec.batches*spec.batchSize)/roundBusy.Seconds())

		endLen := db.Len()
		if orc != nil {
			wantLen = orc.Len()
			if err := checkState(db, orc); err != nil {
				return nil, err
			}
			orc = nil
		}
		if endLen != wantLen {
			return nil, mismatchf("round %d: %d keys stored, want %d", round, endLen, wantLen)
		}
		if traced {
			lay.busy += roundBusy
			lay.wall += roundWall
			snap := opts.Metrics.Snapshot()
			lay.batchWall = metrics.Merge(lay.batchWall, snap.Histograms["batch_wall_ns"])
			readTierLayers(snap, spec, lay.tier)
		}
		done := (busy[0]+busy[1]).Seconds() >= cfg.seconds && round+1 >= minRounds && (!cfg.trace || round%2 == 1)
		if done {
			heap = heapMB()
			if spec.budget > 0 {
				disk = float64(dirBytes(dir)) / (1 << 20)
			}
			runtime.KeepAlive(db)
		}
		db.Close()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if done {
			break
		}
	}

	all := append(append([]float64(nil), lat[0]...), lat[1]...)
	qpsOf := func(lat []float64, busy time.Duration) float64 {
		return float64(len(lat)*spec.batchSize) / busy.Seconds()
	}
	qps := qpsOf(all, busy[0]+busy[1])
	p50, p90 := quantile(all, 0.5), quantile(all, 0.9)
	res.e2e["setup_s"] = median(setups)
	res.e2e["qps"] = qps
	res.e2e["p50_ms"] = p50
	res.e2e["tail_ms"] = p90
	res.e2e["heap_mb"] = heap
	res.table = []row{
		{"setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups))},
		{"qps", "1/s", qps, fmt.Sprintf("%d rounds x %d batches x %d queries (rounds %.0f..%.0f)", len(setups), spec.batches, spec.batchSize, slices.Min(roundQPS), slices.Max(roundQPS))},
		{"batch_p50_ms", "ms", p50, fmt.Sprintf("%d batches", len(all))},
		{"batch_p90_ms", "ms", p90, fmt.Sprintf("%d batches beyond", len(all)-int(0.9*float64(len(all))))},
		{"heap_mb", "MB", heap, "live heap after GC, DB open"},
		{"disk_mb", "MB", disk, "tier runs + manifest"},
	}
	if cfg.trace {
		batchLayerMetrics(res, &lay, spec)
		res.layer["trace.qps_overhead"] = 1 - frac(qpsOf(lat[1], busy[1]), qpsOf(lat[0], busy[0]))
		res.layer["trace.p50_overhead"] = frac(quantile(lat[1], 0.5), quantile(lat[0], 0.5)) - 1
	}
	return res, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// checkBatch evaluates qs on the oracle and compares every search
// result with the DB's. With corrupt, the first search result read
// from the DB has its presence bit flipped first — the smoke test's
// deliberately wrong answer.
func checkBatch(orc *oracle.Oracle, ors *keys.ResultSet, qs []keys.Query, out *qtrans.Results, batch int, corrupt bool) error {
	ors.Reset(len(qs))
	orc.ApplyAll(qs, ors)
	for i, q := range qs {
		if q.Op != keys.OpSearch {
			continue
		}
		want, _ := ors.Get(int32(i))
		got, ok := out.Search(i)
		if corrupt {
			got.Found, corrupt = !got.Found, false
		}
		if !ok || got != want {
			return mismatchf("batch %d position %d %v: got %+v (recorded %v), oracle %+v", batch, i, q, got, ok, want)
		}
	}
	return nil
}

// checkState compares the DB's full contents with the oracle's.
func checkState(db *qtrans.DB, orc *oracle.Oracle) error {
	ks, vs := orc.Dump()
	i := 0
	var err error
	db.Scan(func(k keys.Key, v keys.Value) bool {
		if i >= len(ks) || ks[i] != k || vs[i] != v {
			err = mismatchf("final state differs from the oracle at row %d (key %d)", i, k)
			return false
		}
		i++
		return true
	})
	if err == nil && i != len(ks) {
		err = mismatchf("final state holds %d pairs, oracle %d", i, len(ks))
	}
	return err
}

// readTierLayers appends the tier_* instruments of one traced round.
func readTierLayers(s metrics.Snapshot, spec batchSpec, into map[string][]float64) {
	if spec.budget == 0 {
		return
	}
	into["tier.resident_keys"] = append(into["tier.resident_keys"], float64(s.Gauges["tier_resident_keys"]))
	into["tier.resident_over_budget"] = append(into["tier.resident_over_budget"], float64(s.Gauges["tier_resident_keys"])/float64(spec.budget))
	into["tier.cold_keys"] = append(into["tier.cold_keys"], float64(s.Gauges["tier_cold_keys"]))
	into["tier.faults_per_batch"] = append(into["tier.faults_per_batch"], float64(s.Counters["tier_faults"])/float64(spec.batches))
	into["tier.promotions"] = append(into["tier.promotions"], float64(s.Counters["tier_promotions"]))
	into["tier.demotions"] = append(into["tier.demotions"], float64(s.Counters["tier_demotions"]))
	into["tier.disk_mb"] = append(into["tier.disk_mb"], float64(s.Gauges["tier_disk_bytes"])/(1<<20))
}

// batchLayerMetrics turns the traced rounds' stage stats into the
// per-layer metrics (per-batch means unless named otherwise).
func batchLayerMetrics(res *result, lay *batchLayers, spec batchSpec) {
	t, n := lay.total, float64(lay.batches)
	perBatch := func(d time.Duration) float64 { return ms(d) / n }
	e := t.Elapsed
	res.layer["core.qsat_ms"] = perBatch(e[stats.StageQSAT1] + e[stats.StageQSAT2])
	res.layer["core.reduction"] = t.ReductionRatio()
	res.layer["core.inferred_frac"] = frac(float64(t.InferredReturns), float64(t.BatchSize))
	res.layer["core.batch_ms_p50"] = float64(lay.batchWall.Quantile(0.5)) / 1e6
	res.layer["core.busy_frac"] = frac(float64(lay.busy), float64(lay.wall))
	res.layer["cache.pass_ms"] = perBatch(e[stats.StageCache])
	res.layer["cache.hit_rate"] = frac(float64(t.CacheHits), float64(t.CacheHits+t.CacheMisses))
	res.layer["cache.evictions_per_batch"] = float64(t.CacheEvictions) / n
	res.layer["cache.flushes_per_batch"] = float64(t.CacheFlushes) / n
	res.layer["palm.find_ms"] = perBatch(e[stats.StageFind])
	res.layer["palm.evaluate_ms"] = perBatch(e[stats.StageEvaluate])
	res.layer["palm.modify_ms"] = perBatch(e[stats.StageModify])
	res.layer["palm.fence_hit_rate"] = frac(float64(t.FenceHits), float64(t.RemainingQueries))
	res.layer["palm.leafop_imbalance"] = lay.imbalance / n
	res.layer["btree.splits_per_batch"] = float64(t.Splits) / n
	res.layer["btree.shifted_slots_per_batch"] = float64(t.ShiftedSlots) / n
	res.layer["btree.gap_claims_per_batch"] = float64(t.GapClaims) / n
	for name, vs := range lay.tier {
		res.layer[name] = median(vs)
	}
}
