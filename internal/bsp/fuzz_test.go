package bsp

import (
	"testing"

	"repro/internal/keys"
)

// maxFuzzRun caps a decoded run so one fuzz input stays fast.
const maxFuzzRun = 1 << 14

// decodeRadixRun turns a fuzz input into a run of queries. The first
// byte picks a tiling factor 2^(b&15) for the remaining bytes, so a
// short input can expand past radixMinRun and reach the radix passes,
// while factor 1 keeps small inputs on the comparison-sort fallback.
// Each byte becomes a key stretched across the 64-bit range (so inputs
// exercise different pass counts), XORed with its tile number so the
// tiles are not all duplicates.
func decodeRadixRun(data []byte) []keys.Query {
	if len(data) < 2 {
		return nil
	}
	pat := data[1:]
	n := min(len(pat)<<(data[0]&15), maxFuzzRun)
	qs := make([]keys.Query, n)
	for i := range qs {
		shift := uint(i%8) * 8
		qs[i].Key = keys.Key(uint64(pat[i%len(pat)])<<shift ^ uint64(i/len(pat)))
	}
	keys.Number(qs)
	return qs
}

// FuzzRadixSortRun checks the sequential radix sort against the
// reference stable sort for arbitrary key streams (including keys wide
// enough to need all four digit passes).
func FuzzRadixSortRun(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte("\x00radix-digit-boundaries"))
	f.Add([]byte("\x0cradix-passes")) // 12 bytes × 2^12: radix path

	var scratch RadixScratch
	f.Fuzz(func(t *testing.T, data []byte) {
		qs := decodeRadixRun(data)
		ref := append([]keys.Query(nil), qs...)
		keys.SortByKey(ref)
		scratch.RadixSortRun(qs)
		for i := range qs {
			if qs[i] != ref[i] {
				t.Fatalf("mismatch at %d: %v vs %v", i, qs[i], ref[i])
			}
		}
	})
}

// TestDecodeRadixRunReachesBothPaths pins that the fuzz seeds cover
// both sides of the fallback cutoff.
func TestDecodeRadixRunReachesBothPaths(t *testing.T) {
	if n := len(decodeRadixRun([]byte("\x00radix-digit-boundaries"))); n >= radixMinRun {
		t.Fatalf("factor-1 seed decodes to %d queries, want the fallback", n)
	}
	if n := len(decodeRadixRun([]byte("\x0cradix-passes"))); n < radixMinRun {
		t.Fatalf("tiled seed decodes to %d queries, want >= %d", n, radixMinRun)
	}
}
