package core

import (
	"testing"

	"repro/internal/keys"
)

// decodeQueries turns fuzz bytes into a query sequence over a small
// key space (two bytes per query: op selector, key).
func decodeQueries(data []byte) []keys.Query {
	var qs []keys.Query
	for i := 0; i+1 < len(data); i += 2 {
		k := keys.Key(data[i+1] % 16)
		switch data[i] % 3 {
		case 0:
			qs = append(qs, keys.Search(k))
		case 1:
			qs = append(qs, keys.Insert(k, keys.Value(data[i])<<4|keys.Value(i)))
		default:
			qs = append(qs, keys.Delete(k))
		}
	}
	return keys.Number(qs)
}

// FuzzQSATEquivalence checks, for arbitrary query sequences, that
// one-pass QSAT's inferred answers and surviving queries replay to the
// exact serial semantics: every search answer and the final store.
func FuzzQSATEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 0, 1})
	f.Add([]byte{2, 5, 0, 5, 1, 5, 0, 5, 2, 5, 0, 5})
	f.Add([]byte("interleaved-defines-and-uses"))

	f.Fuzz(func(t *testing.T, data []byte) {
		qs := decodeQueries(data)
		if len(qs) == 0 {
			return
		}
		want, _ := EvaluateReference(qs, map[keys.Key]keys.Value{})

		// One-pass QSAT + replay.
		rs := keys.NewResultSet(len(qs))
		e, router := runQSATSeq(qs, rs)
		store := map[keys.Key]keys.Value{}
		for _, q := range e.Out {
			switch q.Op {
			case keys.OpSearch:
				v, ok := store[q.Key]
				router.Resolve(rs, q.Idx, v, ok)
			case keys.OpInsert:
				store[q.Key] = q.Value
			case keys.OpDelete:
				delete(store, q.Key)
			}
		}
		for pos, w := range want {
			g, ok := rs.Get(qs[pos].Idx)
			if !ok || g.Found != w.Found || (w.Found && g.Value != w.Value) {
				t.Fatalf("one-pass: query %d got %+v (%v), want %+v", pos, g, ok, w)
			}
		}

		// The surviving defines must leave the serial final store.
		serial := map[keys.Key]keys.Value{}
		for _, q := range qs {
			switch q.Op {
			case keys.OpInsert:
				serial[q.Key] = q.Value
			case keys.OpDelete:
				delete(serial, q.Key)
			}
		}
		if len(store) != len(serial) {
			t.Fatalf("final stores diverge: %d vs %d", len(store), len(serial))
		}
		for k, v := range serial {
			if got, ok := store[k]; !ok || got != v {
				t.Fatalf("final stores diverge at key %d", k)
			}
		}
	})
}
