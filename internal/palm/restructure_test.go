package palm

import (
	"testing"

	"repro/internal/btree"
	"repro/internal/keys"
)

// packedLeaf builds a leaf for a tree of the given order holding the
// sorted pairs ks/vs.
func packedLeaf(order int, ks []keys.Key, vs []keys.Value) *btree.Node {
	n := btree.NewGappedLeaf(order - 1)
	btree.PackLeafGapped(n, ks, vs)
	return n
}

func TestSplitInternalMulti(t *testing.T) {
	// A node with 10 children at maxChildren 4 must split into 3
	// balanced pieces reusing the original node as piece 0.
	children := make([]*btree.Node, 10)
	for i := range children {
		children[i] = packedLeaf(4, []keys.Key{keys.Key(i * 10)}, []keys.Value{0})
	}
	n := &btree.Node{Children: append([]*btree.Node(nil), children...)}
	btree.PackInternalGapped(n, 4)

	pieces := splitInternalMulti(n, 4)
	if len(pieces) != 3 {
		t.Fatalf("pieces = %d, want 3", len(pieces))
	}
	if pieces[0] != n {
		t.Fatal("piece 0 must reuse the node")
	}
	total := 0
	var all []*btree.Node
	for _, p := range pieces {
		if len(p.Children) > 4 || len(p.Children) == 0 {
			t.Fatalf("piece has %d children", len(p.Children))
		}
		if p.Len() != len(p.Children)-1 {
			t.Fatalf("piece has %d keys for %d children", p.Len(), len(p.Children))
		}
		for i := 1; i < len(p.Children); i++ {
			if p.Keys[i-1] != p.Children[i].Keys[p.Children[i].FirstSlot()] {
				t.Fatalf("separator %d = %d, want child minimum", i-1, p.Keys[i-1])
			}
		}
		total += len(p.Children)
		all = append(all, p.Children...)
	}
	if total != 10 {
		t.Fatalf("children total %d", total)
	}
	for i, c := range all {
		if c != children[i] {
			t.Fatalf("child order broken at %d", i)
		}
	}
}

func TestFinalizeRootSingleReplacement(t *testing.T) {
	p, _ := New(Config{Order: 4, Workers: 1}, nil)
	defer p.Close()
	leaf := packedLeaf(4, []keys.Key{1}, []keys.Value{1})
	p.finalizeRoot(&modRequest{repl: []*btree.Node{leaf}})
	if p.Tree().Root() != leaf {
		t.Fatal("single replacement must become the root")
	}
}

func TestFinalizeRootMultiLevelGrowth(t *testing.T) {
	p, _ := New(Config{Order: 3, Workers: 1}, nil)
	defer p.Close()
	// 10 leaf pieces at order 3 require two new internal levels.
	pieces := make([]*btree.Node, 10)
	for i := range pieces {
		pieces[i] = packedLeaf(3, []keys.Key{keys.Key(i * 5)}, []keys.Value{keys.Value(i)})
		if i > 0 {
			pieces[i-1].Next = pieces[i]
		}
	}
	p.finalizeRoot(&modRequest{repl: pieces})
	p.Tree().AddSize(10)
	if err := p.Tree().Validate(btree.RelaxedFill); err != nil {
		t.Fatal(err)
	}
	// 10 leaves at fanout <= 3 need ceil(10/3)=4, then 2, then 1
	// internal nodes: three internal levels above the leaves.
	if h := p.Tree().Height(); h != 4 {
		t.Fatalf("height = %d, want 4", h)
	}
	for i := 0; i < 10; i++ {
		if v, ok := p.Tree().Search(keys.Key(i * 5)); !ok || v != keys.Value(i) {
			t.Fatalf("Search(%d) = %d,%v", i*5, v, ok)
		}
	}
}

func TestFinalizeRootEmptiedInternalRoot(t *testing.T) {
	p, _ := New(Config{Order: 4, Workers: 1}, nil)
	defer p.Close()
	// Force an internal root, then simulate it emptying.
	batch := make([]keys.Query, 100)
	for i := range batch {
		batch[i] = keys.Insert(keys.Key(i), keys.Value(i))
	}
	p.ProcessBatch(keys.Number(batch), keys.NewResultSet(len(batch)))
	if p.Tree().Root().Leaf() {
		t.Fatal("expected internal root after 100 inserts at order 4")
	}
	p.finalizeRoot(&modRequest{repl: nil})
	if !p.Tree().Root().Leaf() || p.Tree().Root().Len() != 0 {
		t.Fatal("emptied internal root must reset to an empty leaf")
	}
}

func TestRelinkLeavesRepairsChain(t *testing.T) {
	p, _ := New(Config{Order: 4, Workers: 1}, nil)
	defer p.Close()
	batch := make([]keys.Query, 200)
	for i := range batch {
		batch[i] = keys.Insert(keys.Key(i), keys.Value(i))
	}
	p.ProcessBatch(keys.Number(batch), keys.NewResultSet(len(batch)))

	// Sabotage the chain, then repair.
	root := p.Tree().Root()
	first := root
	for !first.Leaf() {
		first = first.Children[0]
	}
	first.Next = nil
	p.relinkLeaves()
	if err := p.Tree().Validate(btree.RelaxedFill); err != nil {
		t.Fatalf("after relink: %v", err)
	}
}

func TestRestructurePanicsOnMismatchedSlot(t *testing.T) {
	p, _ := New(Config{Order: 4, Workers: 1}, nil)
	defer p.Close()
	parent := &btree.Node{
		Keys:     []keys.Key{10},
		Children: []*btree.Node{{Keys: []keys.Key{1}, Vals: []keys.Value{1}}, {Keys: []keys.Key{10}, Vals: []keys.Value{10}}},
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched slot must panic (internal invariant)")
		}
	}()
	w := &p.perW[0]
	p.applyToParent([]modRequest{{parent: parent, slot: 99, level: 0, path: &btree.Path{Nodes: []*btree.Node{parent}, Slots: []int{99}}}}, w)
}
