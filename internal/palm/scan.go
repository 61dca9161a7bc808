package palm

import (
	"sort"

	"repro/internal/keys"
	"repro/internal/stats"
)

// EvalScans evaluates a group of range scans against the tree in one
// batched Stage-1-style pass: the scans are sorted by lower bound and
// partitioned across workers, each worker locates its first scan's
// leaf with the path-reuse finder (ascending lower bounds keep the
// descent cheap, exactly like the sorted-run point FIND) and then
// walks the leaf chain collecting rows. Leaves are iterated via the
// occupancy accessors, so gap and sentinel slots never appear in scan
// output.
//
// All scans in a group must observe the same tree state: the engine
// calls EvalScans between point epochs, with the tree quiescent. The
// caller must have sized rs for the batch; EvalScans calls EnsureScans
// itself (single-goroutine, before the parallel phase).
//
// Scans with hi <= lo produce empty row sets. scans is re-ordered in
// place (by lower bound); Idx routing keeps results attributable.
func (p *Processor) EvalScans(scans []keys.Query, rs *keys.ResultSet) {
	st := p.batchStats
	st.Reset()
	st.BatchSize = len(scans)
	st.RemainingQueries = len(scans)
	if len(scans) == 0 {
		return
	}
	rs.EnsureScans()
	sort.Slice(scans, func(i, j int) bool { return scans[i].Key < scans[j].Key })

	sw := st.Timer(stats.StageFind)
	n := len(scans)
	for i := range p.perW {
		p.perW[i].finder.reset(p)
	}
	p.pool.Run(func(tid int) {
		lo, hi := p.pool.Range(tid, n)
		w := &p.perW[tid]
		for i := lo; i < hi; i++ {
			q := scans[i]
			rs.SetScan(q.Idx, p.scanRange(w, q.Key, q.Key2, q.Value))
		}
	})
	sw.Stop()
	p.finishStats()
}

// scanRange collects the present (key, value) pairs in [lo, hi), in
// ascending key order, up to limit rows (0 = unlimited), by walking
// the leaf chain from the leaf covering lo.
func (p *Processor) scanRange(w *workerScratch, lo, hi keys.Key, limit keys.Value) []keys.KV {
	if hi <= lo {
		return nil
	}
	var rows []keys.KV
	for leaf := w.finder.find(lo); leaf != nil; leaf = leaf.Next {
		w.leafOps++
		for s := leaf.FirstSlot(); s < len(leaf.Keys); s = leaf.NextSlot(s) {
			k := leaf.Keys[s]
			if k < lo {
				continue
			}
			if k >= hi {
				return rows
			}
			rows = append(rows, keys.KV{Key: k, Value: leaf.Vals[s]})
			if limit > 0 && keys.Value(len(rows)) >= limit {
				return rows
			}
		}
	}
	return rows
}
