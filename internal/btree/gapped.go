package btree

// Gapped node layout (DESIGN.md §10, after BS-tree, arXiv:2505.01180).
//
// Every node stores its entries in a fixed-capacity flat key array with
// deliberate empty slots ("gaps") between them, instead of densely
// packed variable-length slices:
//
//   - Every slot always holds a loadable key, so the intra-node search
//     kernels (SearchGE/SearchGT) scan the full fixed-width array with
//     unconditional loads — no per-probe bounds checks and an
//     iteration count that depends only on the tree order, never on
//     the node's current fill.
//   - A gap slot duplicates the key AND value of the nearest occupied
//     slot to its right (its "anchor"); slots right of the last entry
//     hold SentinelKey with a zero value. The array is therefore
//     always sorted, and a search that lands on a gap still reads the
//     correct pair without consulting any side structure.
//   - Inserting a new key claims the gap at its insertion point in
//     O(1) when one is there; otherwise entries shift only as far as
//     the nearest gap (a local redistribute) instead of moving the
//     whole tail. Deletes free a slot by rewriting its short duplicate
//     run. Both are tracked by the gap-claim/shift counters.
//   - Splits happen only when a node is genuinely full, and freshly
//     split/loaded nodes spread their gaps evenly, so a batch of
//     inserts is absorbed by slack instead of cascading splits —
//     directly shrinking PALM's Stage-3 restructuring.
//
// Which slots are occupied is tracked by a per-node presence bitmap
// (occ) plus a count. The bitmap is consulted only on mutation,
// iteration, and for the one ambiguous probe value (SentinelKey);
// the search hot path never touches it.
//
// Internal nodes use the same fixed-capacity key array, with the
// occupied separators as a dense prefix and a SentinelKey-filled tail;
// their child-pointer slice stays dense so Stage-3 child rebuilds and
// the descent loop index children directly. Separator churn is
// split-driven and therefore rare once leaf splits are, which is why
// inner nodes do not need mid-array gaps to benefit.

import (
	"math/bits"

	"repro/internal/keys"
)

// SentinelKey fills the key slots right of a gapped node's last entry
// so searches can scan the full array unconditionally. It is the
// maximum key value; a real entry may legitimately store it, so probes
// for exactly SentinelKey disambiguate via the presence bitmap (the
// only probe value that ever needs it).
const SentinelKey = ^keys.Key(0)

// The accessors below expose the slot invariants: len(Keys) == Cap()
// fixed slots; Len() of them are occupied (tracked by the presence
// bitmap); every free slot holds a copy of the nearest occupied entry
// to its right, or (SentinelKey, 0) when there is none, so Keys is
// always fully sorted and Keys[FirstSlot()] is the node's minimum.

// Cap returns the node's slot capacity.
func (n *Node) Cap() int { return len(n.Keys) }

// Occupied reports whether slot i holds a real entry.
func (n *Node) Occupied(i int) bool {
	return n.occ[uint(i)>>6]&(1<<(uint(i)&63)) != 0
}

// FirstSlot returns the slot of the node's smallest entry, or
// len(n.Keys) when the node is empty. Iterate entries with:
//
//	for i := n.FirstSlot(); i < len(n.Keys); i = n.NextSlot(i) { ... }
func (n *Node) FirstSlot() int { return n.nextOcc(0) }

// NextSlot returns the next occupied slot after i, or len(n.Keys).
func (n *Node) NextSlot(i int) int { return n.nextOcc(i + 1) }

// LastSlot returns the slot of the node's largest entry, or -1 when
// the node is empty.
func (n *Node) LastSlot() int { return n.prevOcc(len(n.Keys) - 1) }

func (n *Node) setOcc(i int)   { n.occ[uint(i)>>6] |= 1 << (uint(i) & 63) }
func (n *Node) clearOcc(i int) { n.occ[uint(i)>>6] &^= 1 << (uint(i) & 63) }

// nextOcc returns the first occupied slot >= i, or len(n.Keys).
func (n *Node) nextOcc(i int) int {
	c := len(n.Keys)
	if i < 0 {
		i = 0
	}
	for i < c {
		if w := n.occ[uint(i)>>6] >> (uint(i) & 63); w != 0 {
			return i + bits.TrailingZeros64(w)
		}
		i = (i>>6 + 1) << 6
	}
	return c
}

// prevOcc returns the last occupied slot <= i, or -1.
func (n *Node) prevOcc(i int) int {
	if i >= len(n.Keys) {
		i = len(n.Keys) - 1
	}
	for i >= 0 {
		if w := n.occ[uint(i)>>6] << (63 - uint(i)&63); w != 0 {
			return i - bits.LeadingZeros64(w)
		}
		i = (i>>6)<<6 - 1
	}
	return -1
}

// nextFree returns the first free slot >= i, or len(n.Keys).
func (n *Node) nextFree(i int) int {
	c := len(n.Keys)
	if i < 0 {
		i = 0
	}
	for i < c {
		if w := ^n.occ[uint(i)>>6] >> (uint(i) & 63); w != 0 {
			if j := i + bits.TrailingZeros64(w); j < c {
				return j
			}
			return c
		}
		i = (i>>6 + 1) << 6
	}
	return c
}

// prevFree returns the last free slot <= i, or -1.
func (n *Node) prevFree(i int) int {
	if i >= len(n.Keys) {
		i = len(n.Keys) - 1
	}
	for i >= 0 {
		if w := ^n.occ[uint(i)>>6] << (63 - uint(i)&63); w != 0 {
			return i - bits.LeadingZeros64(w)
		}
		i = (i>>6)<<6 - 1
	}
	return -1
}

// occWords returns the bitmap word count for a capacity.
func occWords(capacity int) int { return (capacity + 63) / 64 }

// NewGappedLeaf returns an empty gapped leaf with the given slot
// capacity (every slot sentinel-filled and free).
func NewGappedLeaf(capacity int) *Node {
	n := &Node{
		Keys: make([]keys.Key, capacity),
		Vals: make([]keys.Value, capacity),
		occ:  make([]uint64, occWords(capacity)),
	}
	for i := range n.Keys {
		n.Keys[i] = SentinelKey
	}
	return n
}

// leafHasAt resolves the one ambiguous probe: slot i matched the probe
// key, and the match is a real hit unless the key is SentinelKey and
// slot i lies in the sentinel-filled tail (no occupied anchor storing
// SentinelKey to its right).
func (n *Node) leafHasAt(i int) bool {
	if n.Keys[i] != SentinelKey {
		return true
	}
	j := n.nextOcc(i)
	return j < len(n.Keys) && n.Keys[j] == SentinelKey
}

// GappedEdit reports the work a gapped leaf mutation performed, for
// the layout counters (stats.Batch GapClaims/ShiftedSlots).
type GappedEdit struct {
	// Added/Removed report whether the entry count changed.
	Added, Removed bool
	// Full reports an insert that found no free slot (the caller must
	// split and retry); no mutation happened.
	Full bool
	// GapClaim reports an O(1) insert into the gap at the insertion
	// point.
	GapClaim bool
	// Shifted counts slots moved (insert redistributes to the nearest
	// gap) or rewritten (delete refills its duplicate run).
	Shifted int
}

// InsertGapped stores (k, v) in the gapped leaf n: overwrite in place
// when k is present; otherwise claim the gap at the insertion point,
// or shift entries to the nearest gap, or report Full when none is
// free (the caller splits and retries).
func (n *Node) InsertGapped(k keys.Key, v keys.Value) GappedEdit {
	c := len(n.Keys)
	i := SearchGE(n.Keys, k)
	if i < c && n.Keys[i] == k && n.leafHasAt(i) {
		// Present: rewrite the duplicate run's values up to its anchor.
		for j := i; j < c && n.Keys[j] == k; j++ {
			n.Vals[j] = v
			if n.Occupied(j) {
				break
			}
		}
		return GappedEdit{}
	}
	if int(n.count) == c {
		return GappedEdit{Full: true}
	}
	if i < c && !n.Occupied(i) {
		// The insertion point is a gap (the leftmost duplicate of the
		// successor run, or the first sentinel slot): claim it.
		n.Keys[i], n.Vals[i] = k, v
		n.setOcc(i)
		n.count++
		return GappedEdit{Added: true, GapClaim: true}
	}
	// Slot i is occupied: open it by shifting entries toward the
	// nearest gap. Every slot strictly between the gap and i is
	// occupied, so the shifted region needs no bitmap fixup beyond
	// marking the consumed gap occupied.
	left, right := n.prevFree(i), n.nextFree(i)
	if right >= c || (left >= 0 && i-left <= right-i) {
		copy(n.Keys[left:i-1], n.Keys[left+1:i])
		copy(n.Vals[left:i-1], n.Vals[left+1:i])
		n.Keys[i-1], n.Vals[i-1] = k, v
		n.setOcc(left)
		n.count++
		return GappedEdit{Added: true, Shifted: i - 1 - left}
	}
	copy(n.Keys[i+1:right+1], n.Keys[i:right])
	copy(n.Vals[i+1:right+1], n.Vals[i:right])
	n.Keys[i], n.Vals[i] = k, v
	n.setOcc(right)
	n.count++
	return GappedEdit{Added: true, Shifted: right - i}
}

// DeleteGapped removes k from the gapped leaf n if present, freeing
// its slot by rewriting the entry's duplicate run with the successor
// entry (or the sentinel when k was the maximum).
func (n *Node) DeleteGapped(k keys.Key) GappedEdit {
	c := len(n.Keys)
	i := SearchGE(n.Keys, k)
	if i >= c || n.Keys[i] != k || !n.leafHasAt(i) {
		return GappedEdit{}
	}
	r := n.nextOcc(i) // the run's occupied anchor
	// Slot r+1 already holds exactly the fill pair: the successor
	// entry, a duplicate of it, or the sentinel tail.
	fk, fv := SentinelKey, keys.Value(0)
	if r+1 < c {
		fk, fv = n.Keys[r+1], n.Vals[r+1]
	}
	for j := i; j <= r; j++ {
		n.Keys[j], n.Vals[j] = fk, fv
	}
	n.clearOcc(r)
	n.count--
	return GappedEdit{Removed: true, Shifted: r - i + 1}
}

// PackLeafGapped rewrites the gapped leaf n to hold exactly the sorted
// entries ks/vs (len <= capacity) with its gaps spread evenly, the
// occupancy freshly split, bulk-loaded, and rebuilt leaves start from
// so nearby inserts find a gap in O(1).
func PackLeafGapped(n *Node, ks []keys.Key, vs []keys.Value) {
	c := len(n.Keys)
	m := len(ks)
	for i := range n.occ {
		n.occ[i] = 0
	}
	fk, fv := SentinelKey, keys.Value(0)
	j := m - 1
	for s := c - 1; s >= 0; s-- {
		if j >= 0 && s == j*c/m {
			fk, fv = ks[j], vs[j]
			n.setOcc(s)
			j--
		}
		n.Keys[s], n.Vals[s] = fk, fv
	}
	n.count = int32(m)
}

// AppendEntries collects n's entries in slot order onto ks/vs.
func (n *Node) AppendEntries(ks []keys.Key, vs []keys.Value) ([]keys.Key, []keys.Value) {
	for i := n.FirstSlot(); i < len(n.Keys); i = n.NextSlot(i) {
		ks = append(ks, n.Keys[i])
		vs = append(vs, n.Vals[i])
	}
	return ks, vs
}

// SetInternalGapped rewrites n as a gapped internal node over the
// dense child list and its separator keys (len(seps) == len(children)-1),
// sentinel-padding the key array to capacity. When the separator count
// exceeds capacity the array grows past it — a transient over-full
// state the caller resolves by splitting.
func SetInternalGapped(n *Node, capacity int, seps []keys.Key, children []*Node) {
	width := capacity
	if len(seps) > width {
		width = len(seps)
	}
	if cap(n.Keys) >= width {
		n.Keys = n.Keys[:width]
	} else {
		n.Keys = make([]keys.Key, width)
	}
	copy(n.Keys, seps)
	for i := len(seps); i < width; i++ {
		n.Keys[i] = SentinelKey
	}
	words := occWords(width)
	if cap(n.occ) >= words {
		n.occ = n.occ[:words]
	} else {
		n.occ = make([]uint64, words)
	}
	for i := range n.occ {
		n.occ[i] = 0
	}
	for i := range seps {
		n.setOcc(i)
	}
	n.count = int32(len(seps))
	n.Vals = nil
	if &n.Children[0] != &children[0] || len(n.Children) != len(children) {
		n.Children = append(n.Children[:0], children...)
	}
}

// internalInsertAt inserts separator sep at key index slot and child at
// child index slot+1 of a gapped internal node, growing the key array
// transiently when the dense separator prefix already fills it.
func (n *Node) internalInsertAt(slot int, sep keys.Key, child *Node) {
	cnt := int(n.count)
	if cnt == len(n.Keys) {
		n.Keys = append(n.Keys, SentinelKey)
		if occWords(len(n.Keys)) > len(n.occ) {
			n.occ = append(n.occ, 0)
		}
	}
	copy(n.Keys[slot+1:cnt+1], n.Keys[slot:cnt])
	n.Keys[slot] = sep
	n.setOcc(cnt)
	n.count++
	n.Children = append(n.Children, nil)
	copy(n.Children[slot+2:], n.Children[slot+1:])
	n.Children[slot+1] = child
}

// internalRemoveAt removes child slot and the separator to its left
// (slot >= 1), restoring the sentinel tail.
func (n *Node) internalRemoveAt(slot int) {
	cnt := int(n.count)
	copy(n.Keys[slot-1:cnt-1], n.Keys[slot:cnt])
	n.Keys[cnt-1] = SentinelKey
	n.clearOcc(cnt - 1)
	n.count--
	n.Children = append(n.Children[:slot], n.Children[slot+1:]...)
}

// sepCap is the fixed separator capacity of internal nodes.
func (t *Tree) sepCap() int { return t.order - 1 }

// splitLeaf splits a full leaf into two half-full leaves with evenly
// spread gaps and pushes the separator into the parent.
func (t *Tree) splitLeaf(leaf *Node, path *Path) {
	ks, vs := leaf.AppendEntries(nil, nil)
	mid := (len(ks) + 1) / 2
	right := NewGappedLeaf(len(leaf.Keys))
	right.Next = leaf.Next
	PackLeafGapped(right, ks[mid:], vs[mid:])
	PackLeafGapped(leaf, ks[:mid], vs[:mid])
	leaf.Next = right
	t.insertIntoParent(path, path.Len()-1, ks[mid], right)
}

// insertIntoParent inserts separator sep and new right child into the
// parent at path level lvl, splitting ancestors as needed. lvl == -1
// means the split node was the root: grow a new one.
func (t *Tree) insertIntoParent(path *Path, lvl int, sep keys.Key, right *Node) {
	if lvl < 0 {
		old := t.root
		root := &Node{Children: append(make([]*Node, 0, t.order+1), old, right)}
		SetInternalGapped(root, t.sepCap(), []keys.Key{sep}, root.Children)
		t.root = root
		return
	}
	parent := path.Nodes[lvl]
	parent.internalInsertAt(path.Slots[lvl], sep, right)
	if len(parent.Children) > t.order {
		t.splitInternal(parent, path, lvl)
	}
}

// splitInternal splits an over-full internal node in half, repacking
// both pieces at the fixed separator capacity and pushing the middle
// separator up.
func (t *Tree) splitInternal(n *Node, path *Path, lvl int) {
	cnt := int(n.count)
	mid := cnt / 2
	sep := n.Keys[mid]
	right := &Node{Children: append(make([]*Node, 0, t.order+1), n.Children[mid+1:]...)}
	SetInternalGapped(right, t.sepCap(), n.Keys[mid+1:cnt], right.Children)
	leftSeps := append(make([]keys.Key, 0, mid), n.Keys[:mid]...)
	n.Children = n.Children[:mid+1]
	SetInternalGapped(n, t.sepCap(), leftSeps, n.Children)
	t.insertIntoParent(path, lvl-1, sep, right)
}

// rebalanceLeaf restores the minimum-fill invariant after a leaf
// deletion: borrow a boundary entry through the cheap single-entry gap
// ops, or merge into a freshly packed sibling.
func (t *Tree) rebalanceLeaf(leaf *Node, path *Path) {
	if path.Len() == 0 || leaf.Len() >= t.minLeafEntries() {
		return
	}
	parent := path.Nodes[path.Len()-1]
	slot := path.Slots[path.Len()-1]

	if slot > 0 {
		left := parent.Children[slot-1]
		if left.Len() > t.minLeafEntries() {
			i := left.LastSlot()
			bk, bv := left.Keys[i], left.Vals[i]
			left.DeleteGapped(bk)
			leaf.InsertGapped(bk, bv)
			parent.Keys[slot-1] = bk
			return
		}
	}
	if slot < len(parent.Children)-1 {
		right := parent.Children[slot+1]
		if right.Len() > t.minLeafEntries() {
			i := right.FirstSlot()
			bk, bv := right.Keys[i], right.Vals[i]
			right.DeleteGapped(bk)
			leaf.InsertGapped(bk, bv)
			// A gapped node's slot 0 always duplicates its minimum.
			parent.Keys[slot] = right.Keys[0]
			return
		}
	}
	if slot > 0 {
		left := parent.Children[slot-1]
		ks, vs := left.AppendEntries(nil, nil)
		ks, vs = leaf.AppendEntries(ks, vs)
		PackLeafGapped(left, ks, vs)
		left.Next = leaf.Next
		t.removeChild(parent, slot, path, path.Len()-1)
	} else if slot+1 < len(parent.Children) {
		right := parent.Children[slot+1]
		ks, vs := leaf.AppendEntries(nil, nil)
		ks, vs = right.AppendEntries(ks, vs)
		PackLeafGapped(leaf, ks, vs)
		leaf.Next = right.Next
		t.removeChild(parent, slot+1, path, path.Len()-1)
	} else {
		// No sibling at all: a relaxed single-child parent
		// (relaxed.go).
		t.dropLonelyLeaf(leaf, path)
	}
}

// removeChild removes parent.Children[slot] plus its left separator
// and rebalances the parent at path level lvl.
func (t *Tree) removeChild(parent *Node, slot int, path *Path, lvl int) {
	parent.internalRemoveAt(slot)
	t.rebalanceInternal(parent, path, lvl)
}

// rebalanceInternal restores the minimum-fanout invariant for an
// internal node at path level lvl.
func (t *Tree) rebalanceInternal(n *Node, path *Path, lvl int) {
	if lvl == 0 {
		if len(n.Children) == 1 {
			t.root = n.Children[0]
		}
		return
	}
	if len(n.Children) >= t.minChildren() {
		return
	}
	parent := path.Nodes[lvl-1]
	slot := path.Slots[lvl-1]

	if slot > 0 {
		left := parent.Children[slot-1]
		if len(left.Children) > t.minChildren() {
			// Rotate rightwards through the parent separator.
			// An underfull node has cnt+1 <= minChildren-1 <= sepCap
			// separators after the rotation, so the fixed width fits.
			cnt := int(n.count)
			copy(n.Keys[1:cnt+1], n.Keys[:cnt])
			n.Keys[0] = parent.Keys[slot-1]
			n.setOcc(cnt)
			n.count++
			n.Children = append(n.Children, nil)
			copy(n.Children[1:], n.Children)
			lcnt := int(left.count)
			n.Children[0] = left.Children[len(left.Children)-1]
			parent.Keys[slot-1] = left.Keys[lcnt-1]
			left.Keys[lcnt-1] = SentinelKey
			left.clearOcc(lcnt - 1)
			left.count--
			left.Children = left.Children[:len(left.Children)-1]
			return
		}
	}
	if slot < len(parent.Children)-1 {
		right := parent.Children[slot+1]
		if len(right.Children) > t.minChildren() {
			// Rotate leftwards through the parent separator.
			cnt := int(n.count)
			n.Keys[cnt] = parent.Keys[slot]
			n.setOcc(cnt)
			n.count++
			n.Children = append(n.Children, right.Children[0])
			parent.Keys[slot] = right.Keys[0]
			rcnt := int(right.count)
			copy(right.Keys[:rcnt-1], right.Keys[1:rcnt])
			right.Keys[rcnt-1] = SentinelKey
			right.clearOcc(rcnt - 1)
			right.count--
			right.Children = append(right.Children[:0], right.Children[1:]...)
			return
		}
	}
	if slot > 0 {
		left := parent.Children[slot-1]
		seps := append(make([]keys.Key, 0, t.sepCap()), left.Keys[:left.count]...)
		seps = append(seps, parent.Keys[slot-1])
		seps = append(seps, n.Keys[:n.count]...)
		left.Children = append(left.Children, n.Children...)
		SetInternalGapped(left, t.sepCap(), seps, left.Children)
		parent.internalRemoveAt(slot)
		t.rebalanceInternal(parent, path, lvl-1)
	} else if slot+1 < len(parent.Children) {
		right := parent.Children[slot+1]
		seps := append(make([]keys.Key, 0, t.sepCap()), n.Keys[:n.count]...)
		seps = append(seps, parent.Keys[slot])
		seps = append(seps, right.Keys[:right.count]...)
		n.Children = append(n.Children, right.Children...)
		SetInternalGapped(n, t.sepCap(), seps, n.Children)
		parent.internalRemoveAt(slot + 1)
		t.rebalanceInternal(parent, path, lvl-1)
	}
	// else: no sibling under a relaxed single-child parent — the node
	// stays underfull, which RelaxedFill permits (relaxed.go).
}
