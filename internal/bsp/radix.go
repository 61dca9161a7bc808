package bsp

import (
	"sort"

	"repro/internal/keys"
)

// RadixSortQueries stably sorts a query batch by key using a parallel
// least-significant-digit radix sort with 16-bit digits: up to four
// passes of (parallel count → exclusive scan → parallel stable
// scatter). Passes above the batch's maximum key are skipped, so small
// key spaces sort in one or two passes.
//
// Radix sorting is how high-throughput batch systems sort integer keys
// in practice: O(n · passes) instead of O(n log n). It replaces the
// boost parallel sort used by the paper's artifact for the pre-sorting
// step of §IV-E.
//
// LSD radix with counting passes is inherently stable, preserving the
// original order among equal keys as one-pass QSAT requires.
func (p *Pool) RadixSortQueries(qs []keys.Query) {
	n := len(qs)
	if n < 2048 {
		sortRun(qs)
		return
	}

	var maxKey keys.Key
	for i := range qs {
		if qs[i].Key > maxKey {
			maxKey = qs[i].Key
		}
	}

	const (
		digitBits = 16
		buckets   = 1 << digitBits
		mask      = buckets - 1
	)
	passes := 0
	for m := uint64(maxKey); ; m >>= digitBits {
		passes++
		if m>>digitBits == 0 {
			break
		}
	}

	if cap(p.sortBuf) < n {
		p.sortBuf = make([]keys.Query, n)
	}
	buf := p.sortBuf[:n]
	src, dst := qs, buf

	nw := p.n
	// counts[t] is worker t's per-bucket tally for the current pass;
	// the tally arrays live on the pool so steady-state sorting does not
	// re-allocate them (nw × 64K ints is the largest per-batch
	// allocation in the whole pipeline otherwise).
	if p.radixCnt == nil {
		p.radixCnt = make([][]int, nw)
		for t := range p.radixCnt {
			p.radixCnt[t] = make([]int, buckets)
		}
	}
	counts := p.radixCnt

	for pass := 0; pass < passes; pass++ {
		shift := uint(pass * digitBits)

		p.Run(func(tid int) {
			c := counts[tid]
			for i := range c {
				c[i] = 0
			}
			lo, hi := SplitRange(tid, nw, n)
			for i := lo; i < hi; i++ {
				c[(uint64(src[i].Key)>>shift)&mask]++
			}
		})

		// Global exclusive scan in (bucket, worker) order: for each
		// bucket, workers scatter in tid order, preserving stability.
		total := 0
		for b := 0; b < buckets; b++ {
			for t := 0; t < nw; t++ {
				c := counts[t][b]
				counts[t][b] = total
				total += c
			}
		}

		p.Run(func(tid int) {
			c := counts[tid]
			lo, hi := SplitRange(tid, nw, n)
			for i := lo; i < hi; i++ {
				b := (uint64(src[i].Key) >> shift) & mask
				dst[c[b]] = src[i]
				c[b]++
			}
		})

		src, dst = dst, src
	}

	if &src[0] != &qs[0] {
		copy(qs, src)
	}
}

// RadixScratch holds reusable buffers for sequential radix sorts, so
// per-mini-batch sorting inside QTrans Phase I allocates nothing after
// warm-up.
type RadixScratch struct {
	counts []int
	buf    []keys.Query
}

// RadixSortRun stably sorts one run by key with a sequential LSD radix
// sort (16-bit digits, skipping passes above the maximum key). Small
// runs fall back to comparison sorting, where the per-pass counter
// reset would dominate.
func (s *RadixScratch) RadixSortRun(qs []keys.Query) {
	n := len(qs)
	if n < 4096 {
		sortRun(qs)
		return
	}
	const (
		digitBits = 16
		buckets   = 1 << digitBits
		mask      = buckets - 1
	)
	if cap(s.counts) < buckets {
		s.counts = make([]int, buckets)
	}
	if cap(s.buf) < n {
		s.buf = make([]keys.Query, n)
	}
	counts := s.counts[:buckets]
	buf := s.buf[:n]

	var maxKey keys.Key
	for i := range qs {
		if qs[i].Key > maxKey {
			maxKey = qs[i].Key
		}
	}
	passes := 0
	for m := uint64(maxKey); ; m >>= digitBits {
		passes++
		if m>>digitBits == 0 {
			break
		}
	}

	src, dst := qs, buf
	for pass := 0; pass < passes; pass++ {
		shift := uint(pass * digitBits)
		for i := range counts {
			counts[i] = 0
		}
		for i := 0; i < n; i++ {
			counts[(uint64(src[i].Key)>>shift)&mask]++
		}
		total := 0
		for b := 0; b < buckets; b++ {
			c := counts[b]
			counts[b] = total
			total += c
		}
		for i := 0; i < n; i++ {
			b := (uint64(src[i].Key) >> shift) & mask
			dst[counts[b]] = src[i]
			counts[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &qs[0] {
		copy(qs, src)
	}
}

// sortRun stably sorts one small run by (key, original index): the
// radix sorts' fallback below their size cutoffs. Because Idx is unique
// per batch, sorting by the (Key, Idx) pair with an unstable sort yields
// the same permutation as a stable sort by Key alone, and sort.Slice
// avoids sort.SliceStable's extra allocations.
func sortRun(qs []keys.Query) {
	sort.Slice(qs, func(i, j int) bool {
		if qs[i].Key != qs[j].Key {
			return qs[i].Key < qs[j].Key
		}
		return qs[i].Idx < qs[j].Idx
	})
}
