package relation

import (
	"math/rand"
	"testing"

	"mview/internal/tuple"
)

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
	if got := ix.Probe(10); len(got) != 2 {
		t.Errorf("Probe(10) = %v", got)
	}
	if got := ix.Probe(99); got != nil {
		t.Errorf("Probe(99) = %v", got)
	}
	if _, err := BuildIndex(r, 5); err == nil {
		t.Error("out-of-range position must fail")
	}
}

func TestIndexAddRemove(t *testing.T) {
	ix := NewIndex(0)
	ix.Add(tuple.New(1, 5))
	ix.Add(tuple.New(1, 6))
	ix.Remove(tuple.New(1, 5))
	if got := ix.Probe(1); len(got) != 1 || !got[0].Equal(tuple.New(1, 6)) {
		t.Errorf("Probe = %v", got)
	}
	ix.Remove(tuple.New(1, 6))
	if got := ix.Probe(1); got != nil {
		t.Errorf("empty bucket should be deleted: %v", got)
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

// TestIndexRemoveCostIsFanOutIndependent: deleting every tuple of one
// value's 10k-tuple bucket costs at most two tuple comparisons per
// Remove on average, in insertion order, reverse order and a shuffled
// order — a scan of the bucket would cost thousands.
func TestIndexRemoveCostIsFanOutIndependent(t *testing.T) {
	const n = 10_000
	orders := map[string]func(i int) int{
		"insertion": func(i int) int { return i },
		"reverse":   func(i int) int { return n - 1 - i },
		"shuffled":  func(i int) int { return i * 7919 % n },
	}
	for name, at := range orders {
		ix := NewIndex(0)
		for i := range n {
			ix.Add(tuple.New(1, int64(i)))
		}
		ix.compares = 0
		for i := range n {
			ix.Remove(tuple.New(1, int64(at(i))))
		}
		if ix.Len() != 0 || ix.Probe(1) != nil {
			t.Fatalf("%s: %d tuples left after removing all", name, ix.Len())
		}
		if ix.compares > 2*n {
			t.Errorf("%s: %d comparisons for %d removes, want at most %d", name, ix.compares, n, 2*n)
		}
	}
}

// TestIndexMatchesOracleUnderCollisions drives random adds and removes
// against a map oracle — buckets growing past ixMapMin and shrinking
// back — with real row hashes and with every hash collapsed to one
// value (the scan fallback for tuples at cannot hold).
func TestIndexMatchesOracleUnderCollisions(t *testing.T) {
	defer func() { hashMangle = nil }()
	for _, collide := range []bool{false, true} {
		if collide {
			hashMangle = func(uint32) uint32 { return 7 }
		}
		rng := rand.New(rand.NewSource(1))
		ix := NewIndex(0)
		live := map[[2]int64]bool{}
		const steps = 30_000
		for step := range steps {
			k := [2]int64{rng.Int63n(3), rng.Int63n(1000)}
			tu := tuple.New(k[0], k[1])
			grow := step < steps/2
			if add := rng.Intn(10) < 2 || grow && rng.Intn(10) < 8; add && !live[k] {
				ix.Add(tu)
				live[k] = true
			} else {
				ix.Remove(tu)
				delete(live, k)
			}
			if step%1000 != 0 && step != steps-1 {
				continue
			}
			if ix.Len() != len(live) {
				t.Fatalf("collide=%v step %d: Len %d, oracle %d", collide, step, ix.Len(), len(live))
			}
			for v := int64(0); v < 3; v++ {
				got := map[[2]int64]bool{}
				ix.EachMatch(v, func(u tuple.Tuple) { got[[2]int64{u[0], u[1]}] = true })
				for k := range live {
					if k[0] == v && !got[k] {
						t.Fatalf("collide=%v step %d: %v missing", collide, step, k)
					}
				}
				for k := range got {
					if !live[k] {
						t.Fatalf("collide=%v step %d: %v indexed but removed", collide, step, k)
					}
				}
			}
		}
	}
}
