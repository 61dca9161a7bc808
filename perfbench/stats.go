package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/metrics"
)

// quantile returns the q-quantile of xs by the nearest-rank rule (the
// smallest sample with at least q of the samples at or below it). xs
// is sorted in place. An empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapMB forces a collection and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / (1 << 20)
}

// dirBytes sums the sizes of the regular files under dir (0 when dir
// does not exist).
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// histDelta returns the histogram of the values recorded between two
// snapshots of one histogram (bucket counts subtracted; Min/Max widened
// to the surviving buckets' bounds, so quantiles stay within one
// bucket width).
func histDelta(before, after metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	prev := make(map[int64]int64, len(before.Buckets))
	for _, b := range before.Buckets {
		prev[b.Lo] = b.Count
	}
	out := metrics.HistogramSnapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	for _, b := range after.Buckets {
		if c := b.Count - prev[b.Lo]; c > 0 {
			if len(out.Buckets) == 0 {
				out.Min = b.Lo
			}
			out.Max = b.Hi
			out.Buckets = append(out.Buckets, metrics.Bucket{Lo: b.Lo, Hi: b.Hi, Count: c})
		}
	}
	return out
}
