package relation

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"mview/internal/tuple"
)

// probe returns the tuples ix matches to v.
func probe(ix *Index, v tuple.Value) []tuple.Tuple {
	var out []tuple.Tuple
	ix.EachMatch(v, func(t tuple.Tuple) { out = append(out, t) })
	return out
}

// indexMatchesScan checks ix against a scan of r: every value of the
// indexed column (and one no row holds) matches exactly the rows that
// carry it, each once.
func indexMatchesScan(r *Relation, ix *Index) error {
	if ix.Len() != r.Len() {
		return fmt.Errorf("index Len %d, relation Len %d", ix.Len(), r.Len())
	}
	want := map[tuple.Value]map[string]bool{-1 << 40: {}}
	r.Each(func(t tuple.Tuple) {
		v := t[ix.Pos()]
		if want[v] == nil {
			want[v] = map[string]bool{}
		}
		want[v][t.Key()] = true
	})
	for v, rows := range want {
		got := probe(ix, v)
		if len(got) != len(rows) {
			return fmt.Errorf("value %d: index matches %d rows, scan finds %d", v, len(got), len(rows))
		}
		for _, t := range got {
			if !rows[t.Key()] {
				return fmt.Errorf("value %d: index matches %v, which the scan does not find", v, t)
			}
		}
	}
	return nil
}

func TestBuildIndexAndProbe(t *testing.T) {
	r := MustFromTuples(ts("A", "B"),
		tuple.New(1, 10), tuple.New(2, 10), tuple.New(3, 20))
	ix, err := BuildIndex(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Pos() != 1 || ix.Len() != 3 {
		t.Errorf("Pos=%d Len=%d", ix.Pos(), ix.Len())
	}
	if got := probe(ix, 10); len(got) != 2 {
		t.Errorf("probe(10) = %v", got)
	}
	if got := probe(ix, 99); got != nil {
		t.Errorf("probe(99) = %v", got)
	}
	if _, err := BuildIndex(r, 5); err == nil {
		t.Error("out-of-range position must fail")
	}
	// The index lives on a copy: r gains no index, and writes through
	// the index leave r alone.
	ix.Add(tuple.New(4, 10))
	if r.Index(1) != nil || r.Len() != 3 || len(probe(ix, 10)) != 3 {
		t.Errorf("BuildIndex wrote its source: r.Index(1)=%v, r.Len()=%d", r.Index(1), r.Len())
	}
}

func TestIndexAddRemove(t *testing.T) {
	ix, err := BuildIndex(New(ts("A", "B")), 0)
	if err != nil {
		t.Fatal(err)
	}
	ix.Add(tuple.New(1, 5))
	ix.Add(tuple.New(1, 6))
	ix.Remove(tuple.New(1, 5))
	if got := probe(ix, 1); len(got) != 1 || !got[0].Equal(tuple.New(1, 6)) {
		t.Errorf("probe = %v", got)
	}
	ix.Remove(tuple.New(1, 6))
	if got := probe(ix, 1); got != nil {
		t.Errorf("emptied value still matches: %v", got)
	}
	if ix.Len() != 0 {
		t.Errorf("Len = %d", ix.Len())
	}
	// Removing an absent tuple is a no-op.
	ix.Remove(tuple.New(9, 9))
	if ix.Len() != 0 {
		t.Error("no-op remove changed size")
	}
}

// TestIndexRemoveCostIsFanOutIndependent: on a 50 000-row relation
// indexed on a column whose values each repeat 1, 100 or 50 000 times, a
// commit-shaped generation — clone, delete a row, insert a row —
// allocates about as much at every fan-out. Entries that share a value
// are split below its hash by handle, so the index path a write copies
// is O(log n) long; a bucket per value would copy all of its entries.
func TestIndexRemoveCostIsFanOutIndependent(t *testing.T) {
	const n, generations = 50_000, 300
	perGen := map[int]float64{}
	for _, fan := range []int{1, 100, n} {
		r := NewCap(ts("A", "B"), n)
		for i := range n {
			r.put(tuple.New(int64(i), int64(i%(n/fan))))
		}
		if err := r.AddIndex(1); err != nil {
			t.Fatal(err)
		}
		next := int64(n)
		gen := func(i int) {
			c := r.Clone()
			c.Delete(tuple.New(int64(i), int64(i%(n/fan))))
			c.put(tuple.New(next, int64(int(next)%(n/fan))))
			next++
			r = c
		}
		for i := range generations { // age past the first clone's one-off costs
			gen(i)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		start := ms.TotalAlloc
		for i := range generations {
			gen(generations + i)
		}
		runtime.ReadMemStats(&ms)
		perGen[fan] = float64(ms.TotalAlloc-start) / generations
		if err := indexMatchesScan(r, r.Index(1)); err != nil {
			t.Fatalf("fan-out %d: %v", fan, err)
		}
	}
	t.Logf("bytes per generation by fan-out: %v", perGen)
	for _, fan := range []int{100, n} {
		if perGen[fan] > 2*perGen[1] {
			t.Errorf("fan-out %d: %.0f B per generation, more than 2x the %.0f B at fan-out 1", fan, perGen[fan], perGen[1])
		}
	}
}

// TestIndexMatchesOracleUnderCollisions drives random inserts and
// deletes on an indexed relation against a map oracle — values whose
// fan-out grows into the thousands and shrinks back, freeing slots that
// later inserts reuse — with real hashes and with every hash collapsed to one
// value (rows and values then all split by handle alone). A clone taken
// at each check must keep matching its own rows while the head moves
// on.
func TestIndexMatchesOracleUnderCollisions(t *testing.T) {
	defer func() { hashMangle = nil }()
	for _, collide := range []bool{false, true} {
		if collide {
			hashMangle = func(uint32) uint32 { return 7 }
		}
		rng := rand.New(rand.NewSource(1))
		r := New(ts("A", "B"))
		if err := r.AddIndex(0); err != nil {
			t.Fatal(err)
		}
		live := map[[2]int64]bool{}
		var frozen *Relation
		const steps = 30_000
		for step := range steps {
			k := [2]int64{rng.Int63n(3), rng.Int63n(1000)}
			tu := tuple.New(k[0], k[1])
			grow := step < steps/2
			if add := rng.Intn(10) < 2 || grow && rng.Intn(10) < 8; add {
				_ = r.Insert(tu)
				live[k] = true
			} else {
				r.Delete(tu)
				delete(live, k)
			}
			if step%1000 != 0 && step != steps-1 {
				continue
			}
			if r.Len() != len(live) {
				t.Fatalf("collide=%v step %d: Len %d, oracle %d", collide, step, r.Len(), len(live))
			}
			for k := range live {
				if !r.Has(tuple.New(k[0], k[1])) {
					t.Fatalf("collide=%v step %d: %v missing", collide, step, k)
				}
			}
			if err := indexMatchesScan(r, r.Index(0)); err != nil {
				t.Fatalf("collide=%v step %d: %v", collide, step, err)
			}
			if frozen != nil {
				if err := indexMatchesScan(frozen, frozen.Index(0)); err != nil {
					t.Fatalf("collide=%v step %d: clone: %v", collide, step, err)
				}
			}
			frozen = r.Clone()
		}
	}
}
