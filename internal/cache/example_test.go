package cache_test

import (
	"fmt"
	"sort"

	"repro/internal/cache"
	"repro/internal/keys"
)

// The write-back protocol: defining queries dirty the cache; evictions
// surface as flush queries the engine sends to the tree.
func Example() {
	c := cache.New(2)

	c.WriteInsert(1, 100) // dirty
	c.WriteDelete(2)      // dirty tombstone

	if e, ok := c.Lookup(1); ok {
		fmt.Println("hit:", e.Value, "dirty:", e.Dirty)
	}

	// Admitting a third key at capacity 2 evicts the LRU entry, whose
	// dirty state must be flushed to the tree.
	flush, evicted := c.WriteInsert(3, 300)
	fmt.Println("evicted:", evicted, "flush:", flush.Op, flush.Key)

	// Draining the cache yields the remaining dirty state (unordered;
	// sorted here for deterministic output).
	fl := c.FlushAll()
	sort.Slice(fl, func(i, j int) bool { return fl[i].Key < fl[j].Key })
	for _, q := range fl {
		fmt.Println("flush-all:", q.Op, q.Key)
	}
	// Output:
	// hit: 100 dirty: true
	// evicted: true flush: D 2
	// flush-all: I 1
	// flush-all: I 3
}

var _ = keys.Key(0) // anchor the keys import the flush queries refer to
