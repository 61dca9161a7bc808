package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/keys"
)

// TestTableBackwardShiftChains hammers a tiny table with colliding
// keys through insert/remove cycles, checking that probe chains and
// recency links survive backward-shift deletion.
func TestTableBackwardShiftChains(t *testing.T) {
	c := New(4)
	// Insert 4, evict/remove by churn, and verify every resident key
	// stays findable with correct value.
	model := map[keys.Key]keys.Value{}
	r := rand.New(rand.NewSource(2))
	for op := 0; op < 20000; op++ {
		k := keys.Key(r.Intn(12))
		v := keys.Value(op)
		fl, ev := c.WriteInsert(k, v)
		if ev {
			if _, ok := model[fl.Key]; !ok {
				t.Fatalf("op %d: evicted non-resident key %d", op, fl.Key)
			}
			delete(model, fl.Key)
		}
		model[k] = v
		if len(model) != c.Len() {
			t.Fatalf("op %d: len %d vs model %d", op, c.Len(), len(model))
		}
		// Every model key must be resident with its exact value.
		for mk, mv := range model {
			e, ok := c.Lookup(mk)
			if !ok || e.Value != mv {
				t.Fatalf("op %d: Lookup(%d) = %+v, %v; want %d", op, mk, e, ok, mv)
			}
		}
	}
}

// TestTableRecencyAfterShifts verifies the LRU order stays exact while
// backward shifts relocate slots.
func TestTableRecencyAfterShifts(t *testing.T) {
	c := New(3)
	c.WriteInsert(10, 1)
	c.WriteInsert(20, 2)
	c.WriteInsert(30, 3)
	c.Lookup(10) // order: 10, 30, 20
	fl, ev := c.WriteInsert(40, 4)
	if !ev || fl.Key != 20 {
		t.Fatalf("evicted %v (%v), want key 20", fl, ev)
	}
	got := c.Keys() // 40, 10, 30
	want := []keys.Key{40, 10, 30}
	if len(got) != 3 {
		t.Fatalf("Keys = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
}

func TestInCyclicRange(t *testing.T) {
	cases := []struct {
		home, hole, j uint64
		want          bool
	}{
		{home: 5, hole: 4, j: 6, want: true},   // within (4,6]
		{home: 4, hole: 4, j: 6, want: false},  // at the hole
		{home: 7, hole: 4, j: 6, want: false},  // beyond j
		{home: 15, hole: 14, j: 1, want: true}, // wrapped: (14,1]
		{home: 0, hole: 14, j: 1, want: true},
		{home: 5, hole: 14, j: 1, want: false},
	}
	for _, cse := range cases {
		if got := inCyclicRange(cse.home, cse.hole, cse.j); got != cse.want {
			t.Errorf("inCyclicRange(%d,%d,%d) = %v, want %v", cse.home, cse.hole, cse.j, got, cse.want)
		}
	}
}

// Property: random op sequences against a model map never diverge,
// including FlushAll interleavings.
func TestTableModelProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		capacity := 1 + r.Intn(16)
		c := New(capacity)
		model := map[keys.Key]Entry{}
		// OnEvict keeps the model exact even for clean evictions,
		// which return no flush query.
		bad := false
		c.OnEvict = func(k keys.Key) {
			if _, ok := model[k]; !ok {
				bad = true
			}
			delete(model, k)
		}
		for op := 0; op < 600; op++ {
			k := keys.Key(r.Intn(40))
			switch r.Intn(5) {
			case 0:
				e, ok := c.Lookup(k)
				m, mok := model[k]
				if ok != mok {
					return false
				}
				if ok && (e.Value != m.Value || e.Tombstone != m.Tombstone || e.Dirty != m.Dirty) {
					return false
				}
			case 1:
				fl, ev := c.WriteInsert(k, keys.Value(op))
				if ev && fl.Op != keys.OpInsert && fl.Op != keys.OpDelete {
					return false
				}
				model[k] = Entry{Key: k, Value: keys.Value(op), Dirty: true}
			case 2:
				c.WriteDelete(k)
				model[k] = Entry{Key: k, Tombstone: true, Dirty: true}
			case 3:
				fl := c.FlushAll()
				dirty := 0
				for _, m := range model {
					if m.Dirty {
						dirty++
					}
				}
				if len(fl) != dirty {
					return false
				}
				for mk, m := range model {
					m.Dirty = false
					model[mk] = m
				}
			default:
				if c.Contains(k) != func() bool { _, ok := model[k]; return ok }() {
					return false
				}
			}
			if bad || c.Len() > capacity || c.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCacheLookupHit(b *testing.B) {
	c := New(1 << 16)
	for i := 0; i < 1<<16; i++ {
		c.WriteInsert(keys.Key(i), keys.Value(i))
	}
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(keys.Key(r.Intn(1 << 16)))
	}
}

func BenchmarkCacheWriteChurn(b *testing.B) {
	c := New(1 << 12)
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.WriteInsert(keys.Key(r.Intn(1<<16)), keys.Value(i))
	}
}
