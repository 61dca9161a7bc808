package core

import (
	"math/rand"
	"testing"

	"repro/internal/btree"
	"repro/internal/keys"
	"repro/internal/oracle"
)

// mixedBatch builds one batch drawing from all five operations over a
// small key space, so in-batch key collisions (and therefore scan
// fences, RMW chains, and covering scans) are common.
func mixedBatch(r *rand.Rand, size, keySpace int) []keys.Query {
	qs := make([]keys.Query, size)
	for i := range qs {
		k := keys.Key(r.Intn(keySpace))
		switch r.Intn(8) {
		case 0, 1:
			qs[i] = keys.Insert(k, keys.Value(r.Intn(1_000_000)))
		case 2:
			qs[i] = keys.Delete(k)
		case 3:
			span := keys.Key(1 + r.Intn(keySpace/2))
			qs[i] = keys.Scan(k, k+span, keys.Value(r.Intn(4))) // limit 0..3
		case 4:
			qs[i] = keys.AddDelta(k, keys.Value(1+r.Intn(100)))
		case 5:
			qs[i] = keys.SetIfAbsent(k, keys.Value(r.Intn(1_000_000)))
		default:
			qs[i] = keys.Search(k)
		}
	}
	return keys.Number(qs)
}

// compareBatch checks every point result and every scan row set of got
// against want (the oracle's ResultSet for the same batch).
func compareBatch(t *testing.T, tag string, batch []keys.Query, want, got *keys.ResultSet) {
	t.Helper()
	for i := range batch {
		idx := batch[i].Idx
		w, wok := want.Get(idx)
		g, gok := got.Get(idx)
		if wok != gok || w != g {
			t.Fatalf("%s: query %d (%v): got %+v (%v), want %+v (%v)",
				tag, i, batch[i].Op, g, gok, w, wok)
		}
		if batch[i].Op != keys.OpScan {
			continue
		}
		wr, _ := want.ScanRows(idx)
		gr, ok := got.ScanRows(idx)
		if !ok && len(wr) > 0 {
			t.Fatalf("%s: scan %d: no rows recorded, want %v", tag, i, wr)
		}
		if len(wr) != len(gr) {
			t.Fatalf("%s: scan %d [%d,%d) limit %d: %d rows, want %d\n got %v\nwant %v",
				tag, i, batch[i].Key, batch[i].Key2, batch[i].Value, len(gr), len(wr), gr, wr)
		}
		for j := range wr {
			if wr[j] != gr[j] {
				t.Fatalf("%s: scan %d row %d = %+v, want %+v", tag, i, j, gr[j], wr[j])
			}
		}
	}
}

// scanRMWDifferential streams mixed batches through an engine and the
// oracle, comparing all results per batch and the store at the end.
func scanRMWDifferential(t *testing.T, cfg EngineConfig, batches [][]keys.Query) {
	t.Helper()
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	o := oracle.New()

	for bi, batch := range batches {
		want := keys.NewResultSet(len(batch))
		o.ApplyAll(batch, want)
		got := keys.NewResultSet(len(batch))
		eng.ProcessBatch(batch, got)
		compareBatch(t, cfg.Mode.String()+" batch "+itoa(bi), batch, want, got)
		if err := eng.Processor().Tree().Validate(btree.RelaxedFill); err != nil {
			t.Fatalf("mode=%v batch %d: %v", cfg.Mode, bi, err)
		}
	}

	eng.Flush()
	gk, gv := eng.Processor().Tree().Dump()
	wk, wv := o.Dump()
	if len(gk) != len(wk) {
		t.Fatalf("mode=%v: final sizes %d vs %d", cfg.Mode, len(gk), len(wk))
	}
	for i := range gk {
		if gk[i] != wk[i] || gv[i] != wv[i] {
			t.Fatalf("mode=%v: final store mismatch at %d: (%d,%d) vs (%d,%d)",
				cfg.Mode, i, gk[i], gv[i], wk[i], wv[i])
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestEngineScanRMWDifferential is the main differential arm for the
// extended query set: every engine mode against the oracle on batches
// mixing all five operations, on the gapped node layout.
func TestEngineScanRMWDifferential(t *testing.T) {
	for _, mode := range []Mode{Original, Intra, IntraInter} {
		t.Run(mode.String()+"/gapped", func(t *testing.T) {
			r := rand.New(rand.NewSource(7 * int64(mode)))
			batches := make([][]keys.Query, 12)
			for b := range batches {
				batches[b] = mixedBatch(r, 200, 64)
			}
			cfg := EngineConfig{Mode: mode}
			cfg.Palm.Workers = 3
			scanRMWDifferential(t, cfg, batches)
		})
	}
}

// TestEngineScanRMWSmallBatches is the random-5-op-batch property of
// the QSAT extension: for many independent tiny batches — where every
// interleaving of scan fences, RMW folds, and covering kills is likely
// hit eventually — the transformed execution must equal the serial
// oracle.
func TestEngineScanRMWSmallBatches(t *testing.T) {
	for _, mode := range []Mode{Original, Intra, IntraInter} {
		t.Run(mode.String(), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(mode) + 1))
			batches := make([][]keys.Query, 400)
			for b := range batches {
				batches[b] = mixedBatch(r, 5, 8)
			}
			cfg := EngineConfig{Mode: mode}
			cfg.Palm.Workers = 2
			scanRMWDifferential(t, cfg, batches)
		})
	}
}

// TestEngineScanRMWPipeline drives mixed batches through the two-stage
// pipeline: extended batches take the drain-and-fence path inside the
// tree stage, and results must still match the oracle in stream order.
func TestEngineScanRMWPipeline(t *testing.T) {
	for _, mode := range []Mode{Original, IntraInter} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := EngineConfig{Mode: mode, Pipeline: true, CacheCapacity: 128}
			cfg.Palm.Workers = 2
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			o := oracle.New()

			r := rand.New(rand.NewSource(99))
			const nBatches = 16
			jobs := make([]*Job, nBatches)
			wants := make([]*keys.ResultSet, nBatches)
			for b := range jobs {
				var qs []keys.Query
				if b%3 == 2 {
					// Interleave point-only batches: the pipeline must
					// switch between the fast path and the extended path.
					qs = mixedPointBatch(r, 100, 64)
				} else {
					qs = mixedBatch(r, 100, 64)
				}
				jobs[b] = &Job{Qs: qs, Tag: b}
				wants[b] = keys.NewResultSet(len(qs))
				o.ApplyAll(qs, wants[b])
			}

			in := make(chan *Job)
			go func() {
				for _, j := range jobs {
					in <- j
				}
				close(in)
			}()
			done := 0
			eng.ProcessStream(in, func(j *Job) {
				b := j.Tag.(int)
				compareBatch(t, "pipeline batch "+itoa(b), j.Qs, wants[b], j.RS)
				done++
			})
			if done != nBatches {
				t.Fatalf("completed %d batches, want %d", done, nBatches)
			}
		})
	}
}

func mixedPointBatch(r *rand.Rand, size, keySpace int) []keys.Query {
	qs := make([]keys.Query, size)
	for i := range qs {
		k := keys.Key(r.Intn(keySpace))
		switch r.Intn(4) {
		case 0:
			qs[i] = keys.Insert(k, keys.Value(r.Intn(1000)))
		case 1:
			qs[i] = keys.Delete(k)
		default:
			qs[i] = keys.Search(k)
		}
	}
	return keys.Number(qs)
}

// TestPlanEpochsStructure pins the epoch split rule on hand-built
// batches.
func TestPlanEpochsStructure(t *testing.T) {
	idxs := func(qs []keys.Query) []int32 {
		out := make([]int32, len(qs))
		for i, q := range qs {
			out[i] = q.Idx
		}
		return out
	}
	eq := func(got []int32, want ...int32) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}

	t.Run("write-in-range-fences", func(t *testing.T) {
		qs := keys.Number([]keys.Query{
			keys.Insert(5, 1),   // 0: epoch 0
			keys.Scan(0, 10, 0), // 1: group 0
			keys.Search(5),      // 2: epoch 0 (searches commute)
			keys.Insert(5, 2),   // 3: in range -> opens epoch 1
			keys.Scan(0, 10, 0), // 4: group 1
			keys.Delete(5),      // 5: in range -> opens epoch 2
		})
		p := planEpochs(qs)
		if len(p.epochs) != 3 || len(p.scans) != 3 {
			t.Fatalf("epochs=%d scans=%d, want 3/3", len(p.epochs), len(p.scans))
		}
		if !eq(idxs(p.epochs[0]), 0, 2) || !eq(idxs(p.scans[0]), 1) {
			t.Fatalf("E0=%v S0=%v", idxs(p.epochs[0]), idxs(p.scans[0]))
		}
		if !eq(idxs(p.epochs[1]), 3) || !eq(idxs(p.scans[1]), 4) {
			t.Fatalf("E1=%v S1=%v", idxs(p.epochs[1]), idxs(p.scans[1]))
		}
		if !eq(idxs(p.epochs[2]), 5) || len(p.scans[2]) != 0 {
			t.Fatalf("E2=%v S2=%v", idxs(p.epochs[2]), idxs(p.scans[2]))
		}
	})

	t.Run("write-outside-range-stays", func(t *testing.T) {
		qs := keys.Number([]keys.Query{
			keys.Scan(0, 10, 0),  // 0
			keys.Insert(50, 1),   // 1: outside every active range
			keys.AddDelta(99, 1), // 2: outside
			keys.Insert(3, 1),    // 3: inside -> fences
		})
		p := planEpochs(qs)
		if len(p.epochs) != 2 {
			t.Fatalf("epochs=%d, want 2", len(p.epochs))
		}
		if !eq(idxs(p.epochs[0]), 1, 2) || !eq(idxs(p.epochs[1]), 3) {
			t.Fatalf("E0=%v E1=%v", idxs(p.epochs[0]), idxs(p.epochs[1]))
		}
	})

	t.Run("rmw-only-single-epoch", func(t *testing.T) {
		qs := keys.Number([]keys.Query{
			keys.AddDelta(1, 1), keys.SetIfAbsent(2, 2), keys.AddDelta(1, 1),
		})
		if scan, rmw := hasScanOrRMW(qs); scan || !rmw {
			t.Fatalf("hasScanOrRMW = %v,%v", scan, rmw)
		}
		// The engine routes RMW-only batches around planEpochs entirely;
		// planEpochs itself must still produce one epoch for them.
		p := planEpochs(qs)
		if len(p.epochs) != 1 || len(p.epochs[0]) != 3 || len(p.scans[0]) != 0 {
			t.Fatalf("plan = %d epochs, E0 len %d", len(p.epochs), len(p.epochs[0]))
		}
	})
}

// TestScanNeverReorderedPastOverlappingWrite is the fencing property:
// in any plan, for every scan S and every write W whose key lies in
// S's range, W is planned before S's group iff W precedes S in the
// batch, and after it otherwise.
func TestScanNeverReorderedPastOverlappingWrite(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	for iter := 0; iter < 300; iter++ {
		qs := mixedBatch(r, 40, 32)
		p := planEpochs(qs)

		// epochOf[idx] = epoch number a point query landed in;
		// groupOf[idx] = group number a scan landed in.
		epochOf := map[int32]int{}
		groupOf := map[int32]int{}
		for e, ep := range p.epochs {
			for _, q := range ep {
				epochOf[q.Idx] = e
			}
		}
		for g, grp := range p.scans {
			for _, q := range grp {
				groupOf[q.Idx] = g
			}
		}
		if len(epochOf)+len(groupOf) != len(qs) {
			t.Fatalf("iter %d: plan lost queries: %d+%d of %d", iter, len(epochOf), len(groupOf), len(qs))
		}

		for _, s := range qs {
			if s.Op != keys.OpScan {
				continue
			}
			g := groupOf[s.Idx]
			for _, w := range qs {
				if w.Op == keys.OpSearch || w.Op == keys.OpScan {
					continue
				}
				if w.Key < s.Key || w.Key >= s.Key2 {
					continue
				}
				e := epochOf[w.Idx]
				// Group g runs after epoch g and before epoch g+1.
				if w.Idx < s.Idx && e > g {
					t.Fatalf("iter %d: write idx %d (key %d) planned in epoch %d, after scan idx %d [%d,%d) in group %d",
						iter, w.Idx, w.Key, e, s.Idx, s.Key, s.Key2, g)
				}
				if w.Idx > s.Idx && e <= g {
					t.Fatalf("iter %d: write idx %d (key %d) planned in epoch %d, before scan idx %d [%d,%d) in group %d",
						iter, w.Idx, w.Key, e, s.Idx, s.Key, s.Key2, g)
				}
			}
		}
	}
}

// TestCoveringKillNeverDropsKeys is the covering-scan property: for
// random scan groups over a random store, deriving a covered scan's
// rows from its cover must yield exactly the rows a direct evaluation
// would — no key lost to the kill, limits still honored.
func TestCoveringKillNeverDropsKeys(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for iter := 0; iter < 500; iter++ {
		o := oracle.New()
		for i := 0; i < 40; i++ {
			k := keys.Key(r.Intn(64))
			o.Apply(keys.Insert(k, keys.Value(k*3+1)), nil)
		}

		group := make([]keys.Query, 1+r.Intn(6))
		for i := range group {
			lo := keys.Key(r.Intn(64))
			hi := lo + keys.Key(r.Intn(32))
			group[i] = keys.Scan(lo, hi, keys.Value(r.Intn(3)))
			group[i].Idx = int32(i)
		}

		tasks, killed := planScanGroup(group)
		nCovered := 0
		for ti := range tasks {
			tk := &tasks[ti]
			direct := o.Scan(tk.q.Key, tk.q.Key2, tk.q.Value)
			var got []keys.KV
			if tk.coveredBy < 0 {
				got = direct
			} else {
				nCovered++
				cover := tasks[tk.coveredBy]
				if cover.coveredBy >= 0 {
					t.Fatalf("iter %d: cover %d is itself covered", iter, tk.coveredBy)
				}
				if cover.q.Value != 0 {
					t.Fatalf("iter %d: limited scan %d used as cover", iter, tk.coveredBy)
				}
				if cover.q.Key > tk.q.Key || cover.q.Key2 < tk.q.Key2 {
					t.Fatalf("iter %d: cover [%d,%d) does not contain [%d,%d)",
						iter, cover.q.Key, cover.q.Key2, tk.q.Key, tk.q.Key2)
				}
				coverRows := o.Scan(cover.q.Key, cover.q.Key2, 0)
				got = filterCoverRows(coverRows, tk.q.Key, tk.q.Key2, tk.q.Value)
			}
			if len(got) != len(direct) {
				t.Fatalf("iter %d scan %d [%d,%d) limit %d: derived %v, want %v",
					iter, ti, tk.q.Key, tk.q.Key2, tk.q.Value, got, direct)
			}
			for j := range direct {
				if got[j] != direct[j] {
					t.Fatalf("iter %d scan %d row %d: %+v, want %+v", iter, ti, j, got[j], direct[j])
				}
			}
		}
		if nCovered != killed {
			t.Fatalf("iter %d: killed=%d but %d tasks covered", iter, killed, nCovered)
		}
	}
}

// TestEngineScanStats checks the scan counters: a batch with two
// identical unlimited scans and one sub-range scan kills two of the
// three tree walks and reports the summed row count.
func TestEngineScanStats(t *testing.T) {
	cfg := EngineConfig{Mode: IntraInter}
	cfg.Palm.Workers = 2
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	fill := make([]keys.Query, 10)
	for i := range fill {
		fill[i] = keys.Insert(keys.Key(i*2), keys.Value(i))
	}
	rs := keys.NewResultSet(len(fill))
	eng.ProcessBatch(keys.Number(fill), rs)

	qs := keys.Number([]keys.Query{
		keys.Scan(0, 20, 0), // walks the tree: all 10 keys
		keys.Scan(0, 20, 0), // identical: derived from the first
		keys.Scan(4, 8, 0),  // contained: derived too (keys 4, 6)
	})
	rs.Reset(len(qs))
	eng.ProcessBatch(qs, rs)
	st := eng.Stats()
	if st.ScanQueries != 3 {
		t.Fatalf("ScanQueries = %d, want 3", st.ScanQueries)
	}
	if st.ScanKills != 2 {
		t.Fatalf("ScanKills = %d, want 2", st.ScanKills)
	}
	if st.ScanRows != 10+10+2 {
		t.Fatalf("ScanRows = %d, want 22", st.ScanRows)
	}
	for i, want := range []int{10, 10, 2} {
		rows, ok := rs.ScanRows(int32(i))
		if !ok || len(rows) != want {
			t.Fatalf("scan %d: %d rows (%v), want %d", i, len(rows), ok, want)
		}
	}
}

// TestEngineCacheDrainedBeforeScan pins the inter-batch cache rule: a
// value buffered in the top-K cache must be visible to a scan in a
// later batch (the extended path drains the cache before touching the
// tree).
func TestEngineCacheDrainedBeforeScan(t *testing.T) {
	cfg := EngineConfig{Mode: IntraInter, CacheCapacity: 64}
	cfg.Palm.Workers = 2
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Batch 1: hot-key writes that stay buffered in the cache.
	b1 := keys.Number([]keys.Query{
		keys.Insert(5, 50), keys.Search(5), keys.Insert(5, 51), keys.Search(5),
	})
	rs := keys.NewResultSet(len(b1))
	eng.ProcessBatch(b1, rs)

	// Batch 2: the scan must see the cached write.
	b2 := keys.Number([]keys.Query{keys.Scan(0, 10, 0)})
	rs.Reset(len(b2))
	eng.ProcessBatch(b2, rs)
	rows, ok := rs.ScanRows(0)
	if !ok || len(rows) != 1 || rows[0] != (keys.KV{Key: 5, Value: 51}) {
		t.Fatalf("scan rows = %v (%v), want [{5 51}]", rows, ok)
	}

	// Batch 3: point queries still work after the drain.
	b3 := keys.Number([]keys.Query{keys.Search(5)})
	rs.Reset(len(b3))
	eng.ProcessBatch(b3, rs)
	if r, _ := rs.Get(0); !r.Found || r.Value != 51 {
		t.Fatalf("post-drain search = %+v", r)
	}
}

// FuzzRangeRMWEquivalence is the extended-query differential fuzzer:
// arbitrary bytes decode into a batch mixing all five operations, which
// must produce oracle-identical results and final stores under every
// engine mode.
func FuzzRangeRMWEquivalence(f *testing.F) {
	f.Add([]byte{3, 0, 16, 1, 5, 7, 3, 0, 16})          // scan, insert, identical scan
	f.Add([]byte{4, 2, 9, 4, 2, 9, 0, 2, 0})            // RMW chain then search
	f.Add([]byte{1, 4, 8, 3, 2, 40, 2, 4, 0, 3, 2, 40}) // write, scan, delete fence, rescan
	f.Add([]byte("covering-scans-and-rmw-fences"))

	f.Fuzz(func(t *testing.T, data []byte) {
		qs := decodeMixedQueries(data)
		if len(qs) == 0 {
			return
		}
		for _, mode := range []Mode{Original, IntraInter} {
			o := oracle.New()
			want := keys.NewResultSet(len(qs))
			o.ApplyAll(qs, want)

			cfg := EngineConfig{Mode: mode}
			cfg.Palm.Workers = 2
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := keys.NewResultSet(len(qs))
			eng.ProcessBatch(qs, got)
			compareBatch(t, mode.String(), qs, want, got)

			eng.Flush()
			gk, gv := eng.Processor().Tree().Dump()
			wk, wv := o.Dump()
			if len(gk) != len(wk) {
				t.Fatalf("mode=%v: final sizes %d vs %d", mode, len(gk), len(wk))
			}
			for i := range gk {
				if gk[i] != wk[i] || gv[i] != wv[i] {
					t.Fatalf("mode=%v: final mismatch at %d", mode, i)
				}
			}
			eng.Close()
		}
	})
}

// decodeMixedQueries turns fuzz bytes into a query sequence over a
// small key space, three bytes per query: op selector, key, and an
// auxiliary byte (scan width + limit, RMW delta, insert value).
func decodeMixedQueries(data []byte) []keys.Query {
	var qs []keys.Query
	for i := 0; i+2 < len(data); i += 3 {
		k := keys.Key(data[i+1] % 24)
		aux := data[i+2]
		switch data[i] % 6 {
		case 0:
			qs = append(qs, keys.Search(k))
		case 1:
			qs = append(qs, keys.Insert(k, keys.Value(aux)))
		case 2:
			qs = append(qs, keys.Delete(k))
		case 3:
			hi := k + keys.Key(aux%32)
			qs = append(qs, keys.Scan(k, hi, keys.Value(aux>>5))) // limit 0..7
		case 4:
			qs = append(qs, keys.AddDelta(k, keys.Value(aux)))
		default:
			qs = append(qs, keys.SetIfAbsent(k, keys.Value(aux)))
		}
	}
	return keys.Number(qs)
}
