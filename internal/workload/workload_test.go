package workload

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/keys"
)

func TestUniformRangeAndName(t *testing.T) {
	g := NewUniform(1000)
	if g.Name() != "uniform" || g.KeyRange() != 1000 {
		t.Fatalf("meta: %s %d", g.Name(), g.KeyRange())
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		if k := g.Key(r); uint64(k) >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
	}
}

func TestUniformIsRoughlyUniform(t *testing.T) {
	g := NewUniform(10)
	r := rand.New(rand.NewSource(2))
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[g.Key(r)]++
	}
	for k, c := range counts {
		if c < n/10*8/10 || c > n/10*12/10 {
			t.Fatalf("key %d count %d deviates >20%% from uniform", k, c)
		}
	}
}

func TestGaussianConcentration(t *testing.T) {
	g := NewGaussian(1_000_000)
	r := rand.New(rand.NewSource(3))
	within := 0
	const n = 20000
	for i := 0; i < n; i++ {
		k := float64(g.Key(r))
		if k >= g.Mu-3*g.Sigma && k <= g.Mu+3*g.Sigma {
			within++
		}
		if k < 0 || k >= 1_000_000 {
			t.Fatalf("key %f out of range", k)
		}
	}
	if frac := float64(within) / n; frac < 0.99 {
		t.Fatalf("only %f within 3 sigma", frac)
	}
}

func TestSelfSimilar8020(t *testing.T) {
	g := NewSelfSimilar(100000, 0.2)
	r := rand.New(rand.NewSource(4))
	const n = 50000
	inTop20 := 0
	for i := 0; i < n; i++ {
		if uint64(g.Key(r)) < 20000 {
			inTop20++
		}
	}
	frac := float64(inTop20) / n
	if frac < 0.77 || frac > 0.83 {
		t.Fatalf("80-20 rule violated: %f of accesses in first 20%%", frac)
	}
}

func TestZipfianSkewAndRange(t *testing.T) {
	g := NewZipfian(10000, 0.99)
	r := rand.New(rand.NewSource(5))
	counts := make(map[keys.Key]int)
	const n = 50000
	for i := 0; i < n; i++ {
		k := g.Key(r)
		if uint64(k) >= 10000 {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	// Rank 0 must be the most frequent by a wide margin.
	if counts[0] < n/20 {
		t.Fatalf("rank-0 count %d too small for zipfian", counts[0])
	}
	// Degenerate theta handling.
	g1 := NewZipfian(100, 1.0)
	if g1.Theta >= 1 {
		t.Fatal("theta=1 must be adjusted below 1")
	}
}

func TestScrambledZipfianSpreadsHotKeys(t *testing.T) {
	g := NewScrambledZipfian(10000, 0.99)
	if g.Name() != "ycsb-zipfian" {
		t.Fatal("name")
	}
	r := rand.New(rand.NewSource(6))
	counts := make(map[keys.Key]int)
	for i := 0; i < 50000; i++ {
		counts[g.Key(r)]++
	}
	// The hottest key must NOT be key 0 with overwhelming likelihood
	// (scrambling maps rank 0 elsewhere).
	max, hot := 0, keys.Key(0)
	for k, c := range counts {
		if c > max {
			max, hot = c, k
		}
	}
	if hot == 0 {
		t.Log("hottest key scrambled to 0 (possible but unlikely)")
	}
	if max < 50000/20 {
		t.Fatalf("hottest count %d too small", max)
	}
}

func TestLatestFavorsRecent(t *testing.T) {
	g := NewLatest(10000)
	r := rand.New(rand.NewSource(7))
	recent := 0
	const n = 20000
	for i := 0; i < n; i++ {
		k := uint64(g.Key(r))
		if k >= g.max {
			t.Fatalf("key %d beyond population %d", k, g.max)
		}
		if k >= g.max-1000 {
			recent++
		}
	}
	if frac := float64(recent) / n; frac < 0.3 {
		t.Fatalf("latest distribution not recency-skewed: %f", frac)
	}
	before := g.max
	g.Advance()
	if g.max != before+1 {
		t.Fatal("Advance did not grow population")
	}
}

func TestTaxiSkewCalibration(t *testing.T) {
	g := NewTaxi()
	if g.KeyRange() != 2048*2048 {
		t.Fatalf("key range %d, want 4194304 cells", g.KeyRange())
	}
	r := rand.New(rand.NewSource(8))
	frac, distinct := Coverage(g, r, 200000, 1000)
	// Paper: top 1000 cells cover 68.272%; calibration tolerance ±5pp.
	if frac < 0.63 || frac > 0.74 {
		t.Fatalf("top-1000 coverage %f, want ~0.68", frac)
	}
	if distinct < 1000 {
		t.Fatalf("only %d distinct cells", distinct)
	}
}

func TestBatchMixRatios(t *testing.T) {
	g := NewUniform(1000)
	r := rand.New(rand.NewSource(9))
	qs := Batch(g, r, 20000, 0.5)
	s, i, d, _, _ := keys.CountOps(qs)
	if s < 9000 || s > 11000 {
		t.Fatalf("searches = %d, want ~10000", s)
	}
	if i+d < 9000 || i+d > 11000 {
		t.Fatalf("updates = %d, want ~10000", i+d)
	}
	// Inserts and deletes split roughly evenly.
	if i < (i+d)*4/10 || d < (i+d)*4/10 {
		t.Fatalf("insert/delete split %d/%d", i, d)
	}
	// Numbered 0..n-1.
	for j, q := range qs {
		if q.Idx != int32(j) {
			t.Fatal("batch not numbered")
		}
	}
}

func TestBatchUpdateRatioZero(t *testing.T) {
	g := NewUniform(100)
	r := rand.New(rand.NewSource(10))
	qs := Batch(g, r, 1000, 0)
	s, i, d, _, _ := keys.CountOps(qs)
	if s != 1000 || i != 0 || d != 0 {
		t.Fatalf("U-0 mix: %d/%d/%d", s, i, d)
	}
}

func TestPrefillInsertsOnly(t *testing.T) {
	g := NewUniform(50)
	r := rand.New(rand.NewSource(11))
	qs := Prefill(g, r, 500)
	for _, q := range qs {
		if q.Op != keys.OpInsert {
			t.Fatal("prefill must be all inserts")
		}
		if q.Value != keys.Value(q.Key) {
			t.Fatal("prefill value convention broken")
		}
	}
}

func TestCoverageTopNExceedsDistinct(t *testing.T) {
	g := NewUniform(5)
	r := rand.New(rand.NewSource(12))
	frac, distinct := Coverage(g, r, 1000, 100)
	if frac != 1 {
		t.Fatalf("coverage with topN > distinct = %f, want 1", frac)
	}
	if distinct > 5 {
		t.Fatalf("distinct = %d", distinct)
	}
}

func TestTopCounts(t *testing.T) {
	got := topCounts([]int{5, 1, 9, 3, 7, 2}, 3)
	sort.Ints(got)
	want := []int{5, 7, 9}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("topCounts = %v, want %v", got, want)
	}
}

func TestSpecsScale(t *testing.T) {
	full := Specs(1)
	if len(full) != 7 {
		t.Fatalf("%d specs, want 7 (Table I)", len(full))
	}
	if full[0].Queries != 100_000_000 || full[6].BatchSize != 2_081_427 {
		t.Fatal("paper-scale numbers drifted from Table I")
	}
	small := Specs(0.001)
	for i := range small {
		if small[i].Queries >= full[i].Queries {
			t.Fatal("scaling did not shrink")
		}
		if small[i].Queries < 1 {
			t.Fatal("scaled to zero")
		}
	}
	if s := Specs(-1); s[0].Queries != full[0].Queries {
		t.Fatal("invalid scale must default to 1")
	}
}

func TestSpecByName(t *testing.T) {
	sp, err := SpecByName("taxi", 0.01)
	if err != nil || sp.Name != "taxi" {
		t.Fatalf("SpecByName: %v %v", sp, err)
	}
	if _, err := SpecByName("nope", 1); err == nil {
		t.Fatal("unknown dataset must error")
	}
	g := sp.Build()
	if g.Name() != "taxi" {
		t.Fatal("Build mismatch")
	}
}

func TestAllSpecsBuildAndGenerate(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, sp := range Specs(0.0005) {
		g := sp.Build()
		for i := 0; i < 100; i++ {
			k := g.Key(r)
			if uint64(k) >= g.KeyRange() {
				t.Fatalf("%s: key %d out of range %d", sp.Name, k, g.KeyRange())
			}
		}
	}
}

func TestFnvHashDisperses(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 1000; i++ {
		seen[fnvHash(i)] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("fnvHash collisions: %d distinct of 1000", len(seen))
	}
}

func BenchmarkZipfianKey(b *testing.B) {
	g := NewZipfian(1<<20, 0.99)
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Key(r)
	}
}

func BenchmarkTaxiKey(b *testing.B) {
	g := NewTaxi()
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Key(r)
	}
}
