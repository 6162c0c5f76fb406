package relation

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"mview/internal/schema"
	"mview/internal/tuple"
)

// agedContainer is what the copy-on-write cost tests and
// BenchmarkCloneWrite drive: a Relation (with or without an index on
// its second column) or a Counted of n rows that
// generation() takes through one commit-shaped cycle — clone, replace
// some random rows on the clone by new ones (a delete and an insert
// each), drop the source — keeping the row count at n.
type agedContainer struct {
	generation func()
	// arena returns the current (single) row arena, for spotting the
	// generations that compacted it.
	arena func() *rowArena
}

func newAged(kind string, n, replacements int) agedContainer {
	s := schema.MustScheme("A", "B")
	rng := rand.New(rand.NewSource(int64(n)))
	buf := make(tuple.Tuple, 2) // containers copy what they store
	row := func(id int64) tuple.Tuple {
		buf[0], buf[1] = id, id*7
		return buf
	}
	live := make([]int64, n) // ids of the live rows
	for i := range live {
		live[i] = int64(i)
	}
	next := int64(n)
	churn := func(del, ins func(tuple.Tuple)) {
		for i := 0; i < replacements; i++ {
			j := rng.Intn(len(live))
			del(row(live[j]))
			ins(row(next))
			live[j] = next
			next++
		}
	}
	switch kind {
	case "Relation", "Indexed":
		r := NewCap(s, n)
		for _, id := range live {
			r.put(row(id))
		}
		if kind == "Indexed" {
			_ = r.AddIndex(1)
		}
		return agedContainer{
			generation: func() {
				c := r.Clone()
				churn(c.Delete, c.put)
				r = c
			},
			arena: func() *rowArena { return &r.a },
		}
	case "Counted":
		v := NewCountedCap(s, n)
		for _, id := range live {
			v.bump(row(id), 2)
		}
		return agedContainer{
			generation: func() {
				c := v.Clone()
				churn(func(t tuple.Tuple) { _ = c.Add(t, -2) }, func(t tuple.Tuple) { c.bump(t, 2) })
				v = c
			},
			arena: func() *rowArena { return &v.a },
		}
	}
	panic("unknown container kind " + kind)
}

// TestCloneWriteCostIsSizeIndependent is the guard on the storage
// layer's cost model: a clone → 4 writes → freeze generation allocates
// about the same number of bytes on a 128k-row container as on a
// 1k-row one, and no ordinary generation costs several times the median
// (no periodic fold). The generations that compact the container, once
// dead rows outnumber live ones, are O(n) by design; they are set aside
// and checked to amortize to less than one more median generation.
//
// What remains between the two sizes is the log factor: more fork
// levels in the trie and the spines, and fewer of them shared between a
// generation's writes (which is why the gap widens slowly with the
// writes per generation: 1.4x at two, 1.9x at eight).
func TestCloneWriteCostIsSizeIndependent(t *testing.T) {
	const generations = 2000
	for _, kind := range []string{"Relation", "Indexed", "Counted"} {
		t.Run(kind, func(t *testing.T) {
			median := map[int]float64{}
			for _, n := range []int{1 << 10, 128 << 10} {
				c := newAged(kind, n, 2)
				var ordinary []float64
				var compactions float64
				var ms runtime.MemStats
				for g := 0; g < generations; g++ {
					dead := c.arena().dead
					runtime.ReadMemStats(&ms)
					start := ms.TotalAlloc
					c.generation()
					runtime.ReadMemStats(&ms)
					bytes := float64(ms.TotalAlloc - start)
					if c.arena().dead < dead {
						compactions += bytes
					} else {
						ordinary = append(ordinary, bytes)
					}
				}
				slices.Sort(ordinary)
				med, worst := ordinary[len(ordinary)/2], ordinary[len(ordinary)-1]
				median[n] = med
				t.Logf("n=%d: median %.0f B/generation, worst %.0f, %d compactions averaging %.0f B over all %d generations",
					n, med, worst, generations-len(ordinary), compactions/generations, generations)
				if worst > 4*med {
					t.Errorf("n=%d: a generation allocated %.0f B, more than 4x the median %.0f", n, worst, med)
				}
				if compactions/generations > med {
					t.Errorf("n=%d: compactions average %.0f B/generation, more than the median generation %.0f",
						n, compactions/generations, med)
				}
			}
			small, large := median[1<<10], median[128<<10]
			if large > 2*small || small > 2*large {
				t.Errorf("median bytes/generation: %.0f at 1k rows, %.0f at 128k rows; want within 2x", small, large)
			}
		})
	}
}

// BenchmarkCloneWrite times one clone → 8 writes (4 rows replaced) →
// freeze generation on aged containers of three sizes. The curve should
// be flat in n up to the trie's log factor; run with -benchmem.
func BenchmarkCloneWrite(b *testing.B) {
	for _, kind := range []string{"Relation", "Indexed", "Counted"} {
		for _, n := range []int{1 << 10, 32 << 10, 256 << 10} {
			b.Run(fmt.Sprintf("%s/n=%dk", kind, n>>10), func(b *testing.B) {
				c := newAged(kind, n, 4)
				for g := 0; g < 500; g++ { // age past the first clone's one-off costs
					c.generation()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.generation()
				}
			})
		}
	}
}
