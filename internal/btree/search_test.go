package btree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/keys"
)

// refGE/refGT are the sort.Search reference semantics the branchless
// kernels must reproduce exactly.
func refGE(ks []keys.Key, k keys.Key) int {
	return sort.Search(len(ks), func(i int) bool { return ks[i] >= k })
}

func refGT(ks []keys.Key, k keys.Key) int {
	return sort.Search(len(ks), func(i int) bool { return k < ks[i] })
}

// TestSearchKernelsExhaustive checks every slice length up to 18, every
// gap/duplicate pattern over a small key alphabet, and every probe key
// (below, between, equal, above) against the reference.
func TestSearchKernelsExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for n := 0; n <= 18; n++ {
		for trial := 0; trial < 200; trial++ {
			ks := make([]keys.Key, n)
			v := keys.Key(r.Intn(3))
			for i := range ks {
				v += keys.Key(1 + r.Intn(3)) // strictly ascending with gaps
				ks[i] = v
			}
			for probe := keys.Key(0); probe <= v+2; probe++ {
				if got, want := SearchGE(ks, probe), refGE(ks, probe); got != want {
					t.Fatalf("SearchGE(%v, %d) = %d, want %d", ks, probe, got, want)
				}
				if got, want := SearchGT(ks, probe), refGT(ks, probe); got != want {
					t.Fatalf("SearchGT(%v, %d) = %d, want %d", ks, probe, got, want)
				}
			}
		}
	}
}

// TestSearchKernelsRandomWide probes wide nodes (up to the default
// order) with random 64-bit keys, including the extremes.
func TestSearchKernelsRandomWide(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(DefaultOrder + 1)
		ks := make([]keys.Key, 0, n)
		seen := map[keys.Key]bool{}
		for len(ks) < n {
			k := keys.Key(r.Uint64())
			if !seen[k] {
				seen[k] = true
				ks = append(ks, k)
			}
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
		probes := []keys.Key{0, ^keys.Key(0)}
		for i := 0; i < 32; i++ {
			probes = append(probes, keys.Key(r.Uint64()))
		}
		for _, k := range ks {
			probes = append(probes, k, k+1, k-1)
		}
		for _, probe := range probes {
			if got, want := SearchGE(ks, probe), refGE(ks, probe); got != want {
				t.Fatalf("SearchGE(len %d, %d) = %d, want %d", n, probe, got, want)
			}
			if got, want := SearchGT(ks, probe), refGT(ks, probe); got != want {
				t.Fatalf("SearchGT(len %d, %d) = %d, want %d", n, probe, got, want)
			}
		}
	}
}

// BenchmarkSearchKernels pits the branchless probe against the
// closure-based sort.Search reference on a default-order node with random
// probe keys (the branch-hostile case).
func BenchmarkSearchKernels(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ks := make([]keys.Key, DefaultOrder-1)
	for i := range ks {
		ks[i] = keys.Key(i * 7)
	}
	probes := make([]keys.Key, 1024)
	for i := range probes {
		probes[i] = keys.Key(r.Intn(7 * len(ks)))
	}
	var sink int
	b.Run("branchless", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += SearchGE(ks, probes[i&1023])
		}
	})
	b.Run("closure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += refGE(ks, probes[i&1023])
		}
	})
	_ = sink
}

// TestLeafFind checks the leaf-probe kernel against the map truth on a
// random gapped leaf.
func TestLeafFind(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	leaf := NewGappedLeaf(DefaultOrder - 1)
	var ks []keys.Key
	var vs []keys.Value
	truth := map[keys.Key]keys.Value{}
	for i := 0; i < 40; i++ {
		k := keys.Key(r.Intn(100))
		if _, dup := truth[k]; dup {
			continue
		}
		truth[k] = keys.Value(i)
	}
	for k := keys.Key(0); k < 100; k++ {
		if v, ok := truth[k]; ok {
			ks = append(ks, k)
			vs = append(vs, v)
		}
	}
	PackLeafGapped(leaf, ks, vs)
	for k := keys.Key(0); k < 110; k++ {
		wantV, wantOK := truth[k]
		if v, ok := LeafFind(leaf, k); ok != wantOK || (ok && v != wantV) {
			t.Fatalf("LeafFind(%d) = %d,%v want %d,%v", k, v, ok, wantV, wantOK)
		}
	}
}
