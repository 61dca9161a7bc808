package bsp

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestNewPoolDefaultsToGOMAXPROCS(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.N() < 1 {
		t.Fatalf("N = %d, want >= 1", p.N())
	}
}

func TestPoolRunVisitsEveryWorkerOnce(t *testing.T) {
	p := NewPool(7)
	defer p.Close()
	var visited [7]int32
	p.Run(func(tid int) { atomic.AddInt32(&visited[tid], 1) })
	for tid, c := range visited {
		if c != 1 {
			t.Errorf("worker %d ran %d times, want 1", tid, c)
		}
	}
}

func TestPoolRunBarriers(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var counter int64
	for step := 0; step < 10; step++ {
		p.Run(func(tid int) { atomic.AddInt64(&counter, 1) })
		if got := atomic.LoadInt64(&counter); got != int64((step+1)*4) {
			t.Fatalf("after superstep %d counter = %d, want %d", step, got, (step+1)*4)
		}
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // must not panic
}

func TestSplitRangeCoversAll(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 5, 16, 17, 1000} {
			prev := 0
			for tid := 0; tid < workers; tid++ {
				lo, hi := SplitRange(tid, workers, n)
				if lo != prev {
					t.Fatalf("workers=%d n=%d tid=%d: lo=%d, want %d", workers, n, tid, lo, prev)
				}
				if hi < lo {
					t.Fatalf("workers=%d n=%d tid=%d: hi=%d < lo=%d", workers, n, tid, hi, lo)
				}
				if hi-lo > n/workers+1 {
					t.Fatalf("workers=%d n=%d tid=%d: share %d too large", workers, n, tid, hi-lo)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("workers=%d n=%d: covered %d, want %d", workers, n, prev, n)
			}
		}
	}
}

func TestSplitRangeBalanced(t *testing.T) {
	// Shares differ by at most one.
	for tid := 0; tid < 5; tid++ {
		lo, hi := SplitRange(tid, 5, 12)
		if s := hi - lo; s != 2 && s != 3 {
			t.Errorf("tid %d share = %d, want 2 or 3", tid, s)
		}
	}
}

func TestSplitRangePanicsOnZeroWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SplitRange with 0 workers must panic")
		}
	}()
	SplitRange(0, 0, 10)
}

func TestPoolFor(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	n := 1000
	out := make([]int32, n)
	p.For(n, func(tid, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&out[i], 1)
		}
	})
	for i, c := range out {
		if c != 1 {
			t.Fatalf("index %d touched %d times", i, c)
		}
	}
}

func TestExclusiveScan(t *testing.T) {
	counts := []int{3, 0, 2, 5}
	total := ExclusiveScan(counts)
	if total != 10 {
		t.Fatalf("total = %d, want 10", total)
	}
	want := []int{0, 3, 3, 5}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestExclusiveScanEmpty(t *testing.T) {
	if total := ExclusiveScan(nil); total != 0 {
		t.Fatalf("total = %d, want 0", total)
	}
}

func TestParallelExclusiveScanMatchesSequential(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 100, 4096, 10000} {
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = r.Intn(5)
			b[i] = a[i]
		}
		ta := ExclusiveScan(a)
		tb := p.ParallelExclusiveScan(b)
		if ta != tb {
			t.Fatalf("n=%d: totals %d vs %d", n, ta, tb)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d: mismatch at %d: %d vs %d", n, i, a[i], b[i])
			}
		}
	}
}

func BenchmarkPoolBarrier(b *testing.B) {
	p := NewPool(0)
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Run(func(tid int) {})
	}
}
