package cache

import "repro/internal/keys"

// This file implements the flat storage behind TopK: an open-addressing
// hash table (linear probing, backward-shift deletion) over a slice of
// slots, with the recency list threaded through slot indices instead of
// pointers. §V-B motivates exactly this: "as the number of entries is
// fixed, the hash function can be designed in an efficient way" — the
// fixed capacity lets the table be sized once, keeps probes short, and
// avoids per-entry allocation and pointer chasing entirely.

// slot is one table slot. occupied distinguishes empty slots; prev and
// next are recency-list links (slot indices, -1 terminated).
type slot struct {
	key       keys.Key
	value     keys.Value
	occupied  bool
	tombstone bool
	dirty     bool
	prev      int32
	next      int32
}

// table is the open-addressed slot store plus the recency list.
type table struct {
	slots []slot
	mask  uint64
	used  int
	head  int32 // most recently used / inserted
	tail  int32 // least recently used
}

// newTable sizes the table for capacity entries at <= 50% load.
func newTable(capacity int) *table {
	size := 8
	for size < capacity*2 {
		size <<= 1
	}
	t := &table{slots: make([]slot, size), mask: uint64(size - 1), head: -1, tail: -1}
	return t
}

// hash mixes the key (SplitMix64 finalizer) onto the table.
func (t *table) hash(k keys.Key) uint64 {
	x := uint64(k)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x & t.mask
}

// find returns the slot index of k, or -1.
func (t *table) find(k keys.Key) int32 {
	for i := t.hash(k); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if !s.occupied {
			return -1
		}
		if s.key == k {
			return int32(i)
		}
	}
}

// insert places k into the table (which must have free space and not
// already contain k) and returns its slot index. The new slot's list
// links are initialized but not attached.
func (t *table) insert(k keys.Key) int32 {
	for i := t.hash(k); ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if !s.occupied {
			*s = slot{key: k, occupied: true, prev: -1, next: -1}
			t.used++
			return int32(i)
		}
	}
}

// remove deletes slot idx using backward-shift so probe chains stay
// intact without tombstone slots. Shifted slots' list links move with
// them, so neighbors are re-pointed.
func (t *table) remove(idx int32) {
	t.unlink(idx)
	i := uint64(idx)
	t.slots[i] = slot{}
	t.used--
	// Backward-shift: re-place any displaced successors.
	for j := (i + 1) & t.mask; t.slots[j].occupied; j = (j + 1) & t.mask {
		home := t.hash(t.slots[j].key)
		// If slot j's home position lies within (i, j] (cyclically), it
		// cannot move back to i; otherwise shift it into the hole.
		if inCyclicRange(home, i, j) {
			continue
		}
		t.moveSlot(int32(j), int32(i))
		i = j
	}
}

// inCyclicRange reports whether home lies in the cyclic half-open
// range (hole, j] — i.e. the slot cannot be moved back to the hole.
func inCyclicRange(home, hole, j uint64) bool {
	if hole < j {
		return home > hole && home <= j
	}
	return home > hole || home <= j
}

// moveSlot relocates an occupied slot to an empty index, fixing the
// recency list links of its neighbors (and head/tail).
func (t *table) moveSlot(from, to int32) {
	s := t.slots[from]
	t.slots[to] = s
	t.slots[from] = slot{}
	if s.prev >= 0 {
		t.slots[s.prev].next = to
	} else if t.head == from {
		t.head = to
	}
	if s.next >= 0 {
		t.slots[s.next].prev = to
	} else if t.tail == from {
		t.tail = to
	}
}

// pushHead attaches slot idx at the head of the recency list.
func (t *table) pushHead(idx int32) {
	s := &t.slots[idx]
	s.prev = -1
	s.next = t.head
	if t.head >= 0 {
		t.slots[t.head].prev = idx
	}
	t.head = idx
	if t.tail < 0 {
		t.tail = idx
	}
}

// unlink detaches slot idx from the recency list.
func (t *table) unlink(idx int32) {
	s := &t.slots[idx]
	if s.prev >= 0 {
		t.slots[s.prev].next = s.next
	} else if t.head == idx {
		t.head = s.next
	}
	if s.next >= 0 {
		t.slots[s.next].prev = s.prev
	} else if t.tail == idx {
		t.tail = s.prev
	}
	s.prev, s.next = -1, -1
}
