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
// its second column) or a Counted of n rows that generation(dels, ins)
// takes through one commit-shaped cycle — clone, delete dels random
// rows and insert ins new ones, alternating while both remain, drop
// the source. Equal counts replace rows and keep the row count.
type agedContainer struct {
	generation func(dels, ins int)
	// arena returns the current (single) row arena, for checking its
	// free list.
	arena func() *rowArena
}

func newAged(kind string, n int) agedContainer {
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
	churn := func(dels, ins int, del, add func(tuple.Tuple)) {
		for i := 0; i < dels || i < ins; i++ {
			if i < dels {
				j, last := rng.Intn(len(live)), len(live)-1
				del(row(live[j]))
				live[j] = live[last]
				live = live[:last]
			}
			if i < ins {
				add(row(next))
				live = append(live, next)
				next++
			}
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
			generation: func(dels, ins int) {
				c := r.Clone()
				churn(dels, ins, c.Delete, c.put)
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
			generation: func(dels, ins int) {
				c := v.Clone()
				churn(dels, ins, func(t tuple.Tuple) { _ = c.Add(t, -2) }, func(t tuple.Tuple) { c.bump(t, 2) })
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
// 1k-row one, and no generation costs several times the median (no
// periodic fold or rebuild). Every generation of three phases
// counts: rows replaced two at a time; then, after a net delete of
// half the rows has left a free list of n/2 slots, rows replaced two
// at a time again and up to 4000 rows refilled two at a time, each
// insert reusing a freed slot — writing a row into a page that the
// previous generation shares. One last generation refills the rest,
// which must leave no slot free.
//
// What remains between the two sizes is the log factor: more fork
// levels in the trie and the spines, and fewer of them shared between a
// generation's writes (which is why the gap widens slowly with the
// writes per generation: 1.4x at two, 1.9x at eight).
func TestCloneWriteCostIsSizeIndependent(t *testing.T) {
	const replacing = 2000
	for _, kind := range []string{"Relation", "Indexed", "Counted"} {
		t.Run(kind, func(t *testing.T) {
			median := map[int]float64{}
			for _, n := range []int{1 << 10, 128 << 10} {
				c := newAged(kind, n)
				var all []float64
				var ms runtime.MemStats
				measure := func(phase string, gens, dels, ins int) {
					var sum float64
					for g := 0; g < gens; g++ {
						runtime.ReadMemStats(&ms)
						start := ms.TotalAlloc
						c.generation(dels, ins)
						runtime.ReadMemStats(&ms)
						bytes := float64(ms.TotalAlloc - start)
						sum += bytes
						all = append(all, bytes)
					}
					t.Logf("n=%d %s: %d generations averaging %.0f B", n, phase, gens, sum/float64(gens))
				}
				measure("replace", replacing, 2, 2)
				c.generation(n/2, 0)
				if free := c.arena().nfree; free != int32(n/2) {
					t.Fatalf("n=%d: %d free slots after deleting %d rows", n, free, n/2)
				}
				measure("replace over a long free list", replacing, 2, 2)
				refills := min(n/4, replacing)
				measure("refill", refills, 0, 2)
				c.generation(0, n/2-2*refills)
				if a := c.arena(); a.nfree != 0 || a.len() != n || a.rows.n != int32(n) {
					t.Fatalf("n=%d: refilled to %d live rows in %d slots, %d of them free; want %d, none free",
						n, a.len(), a.rows.n, a.nfree, n)
				}
				slices.Sort(all)
				med, worst := all[len(all)/2], all[len(all)-1]
				median[n] = med
				t.Logf("n=%d: median %.0f B/generation, worst %.0f, over all %d generations", n, med, worst, len(all))
				if worst > 4*med {
					t.Errorf("n=%d: a generation allocated %.0f B, more than 4x the median %.0f", n, worst, med)
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
				c := newAged(kind, n)
				for g := 0; g < 500; g++ { // age past the first clone's one-off costs
					c.generation(4, 4)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.generation(4, 4)
				}
			})
		}
	}
}
