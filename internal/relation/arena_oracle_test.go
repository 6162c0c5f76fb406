package relation

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"mview/internal/schema"
	"mview/internal/tuple"
)

// mapOracle is the reference implementation the flat-arena storage is
// checked against: a plain Go map from encoded key to tuple, with none
// of the arena's handle indirection, hash trie, or copy-on-write
// sharing.
type mapOracle map[string]tuple.Tuple

func (o mapOracle) insert(t tuple.Tuple) { o[t.Key()] = t.Clone() }
func (o mapOracle) delete_(t tuple.Tuple) {
	delete(o, t.Key())
}
func (o mapOracle) clone() mapOracle {
	c := make(mapOracle, len(o))
	for k, t := range o {
		c[k] = t
	}
	return c
}

// checkAgainst asserts the relation and the oracle hold exactly the
// same tuple set.
func (o mapOracle) checkAgainst(t *testing.T, label string, r *Relation) {
	t.Helper()
	if r.Len() != len(o) {
		t.Fatalf("%s: Len = %d, oracle has %d", label, r.Len(), len(o))
	}
	seen := 0
	r.Each(func(tu tuple.Tuple) {
		seen++
		if _, ok := o[tu.Key()]; !ok {
			t.Errorf("%s: relation holds %v, oracle does not", label, tu)
		}
	})
	if seen != len(o) {
		t.Fatalf("%s: Each visited %d tuples, oracle has %d", label, seen, len(o))
	}
	for _, tu := range o {
		if !r.Has(tu) {
			t.Errorf("%s: oracle holds %v, relation does not", label, tu)
		}
	}
}

// saveLoad round-trips r through the keyed entry codec — the same
// surface the durable checkpoint writer and loader use — into a fresh
// relation.
func saveLoad(t *testing.T, r *Relation) *Relation {
	t.Helper()
	loaded := New(r.Scheme())
	r.Each(func(tu tuple.Tuple) {
		if err := loaded.Insert(tu); err != nil {
			t.Fatalf("Insert(%v): %v", tu, err)
		}
	})
	return loaded
}

// TestArenaMatchesOracle drives the flat-arena storage through a
// randomized Insert/Delete/Clone/COW-mutation/Save/Load workload under
// four seeds, checking it against the map-backed oracle after every
// phase. Inserts repeat keys (overwrite)
// and deletes target both present and absent tuples, so the arena's
// free-slot and liveness paths are exercised, not just the happy
// path. The reuse input (testReuseAliasing) interleaves deletes and
// inserts across clones of every representation.
func TestArenaMatchesOracle(t *testing.T) {
	for name, fresh := range map[string]func() cowSubject{
		"Relation": func() cowSubject { return cowRelation{New(cowScheme)} },
		"Indexed": func() cowSubject {
			r := New(cowScheme)
			_, _ = r.AddIndex(0), r.AddIndex(1)
			return cowRelation{r}
		},
		"Counted": func() cowSubject { return cowCounted{NewCounted(cowScheme)} },
	} {
		t.Run("reuse/"+name, func(t *testing.T) { testReuseAliasing(t, fresh()) })
	}
	s := schema.MustScheme("A", "B", "C")
	for _, seed := range []int64{7919, 2 * 7919, 4 * 7919, 8 * 7919} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			r := New(s)
			oracle := make(mapOracle)

			// Clones taken mid-run, each paired with a frozen copy of
			// the oracle; mutated and re-checked at the end to pin
			// copy-on-write isolation in both directions.
			type held struct {
				r *Relation
				o mapOracle
			}
			var clones []held

			randTuple := func() tuple.Tuple {
				// Small value domain to force key collisions; a few
				// extreme values to stress the codec inside the arena.
				v := func() int64 {
					switch rng.Intn(12) {
					case 0:
						return int64(-1) << 62
					case 1:
						return int64(1)<<62 - 1
					default:
						return int64(rng.Intn(20) - 10)
					}
				}
				return tuple.New(v(), v(), v())
			}

			for step := 0; step < 2000; step++ {
				tu := randTuple()
				switch op := rng.Intn(10); {
				case op < 6: // insert
					if err := r.Insert(tu); err != nil {
						t.Fatal(err)
					}
					oracle.insert(tu)
				case op < 9: // delete (often absent)
					r.Delete(tu)
					oracle.delete_(tu)
				default: // clone, and keep both sides
					clones = append(clones, held{r.Clone(), oracle.clone()})
				}
				if step%250 == 249 {
					oracle.checkAgainst(t, fmt.Sprintf("step %d", step), r)
				}
			}
			oracle.checkAgainst(t, "final", r)

			// COW: mutate the original heavily after each clone was
			// taken — the clones must still match their frozen
			// oracles — then mutate each clone and re-check the
			// original is unaffected.
			for i, c := range clones {
				c.o.checkAgainst(t, fmt.Sprintf("clone %d before mutation", i), c.r)
			}
			snapshot := oracle.clone()
			for i, c := range clones {
				for j := 0; j < 100; j++ {
					tu := randTuple()
					if j%3 == 0 {
						c.r.Delete(tu)
						c.o.delete_(tu)
					} else {
						if err := c.r.Insert(tu); err != nil {
							t.Fatal(err)
						}
						c.o.insert(tu)
					}
				}
				c.o.checkAgainst(t, fmt.Sprintf("clone %d after mutation", i), c.r)
			}
			snapshot.checkAgainst(t, "original after clone mutations", r)

			// Save/Load: the keyed-entry round-trip must reproduce the
			// exact tuple set, and keep matching the oracle after
			// further mutation.
			loaded := saveLoad(t, r)
			oracle.checkAgainst(t, "after save/load", loaded)
			if !loaded.Equal(r) {
				t.Fatal("save/load round trip diverged from source")
			}
			for j := 0; j < 200; j++ {
				tu := randTuple()
				if j%3 == 0 {
					loaded.Delete(tu)
					oracle.delete_(tu)
				} else {
					if err := loaded.Insert(tu); err != nil {
						t.Fatal(err)
					}
					oracle.insert(tu)
				}
			}
			oracle.checkAgainst(t, "loaded after mutation", loaded)
		})
	}
}

// testReuseAliasing is TestArenaMatchesOracle's reuse input. Every
// generation clones the head, takes every row slice of one side —
// alternately the clone it keeps and the head that goes on — and then
// mutates the head, whose deletes free slots that its inserts refill,
// in pages the held side shares. Afterwards each held side still
// matches its model (an indexed relation's probes match its scans),
// and every row slice taken from it is byte-identical to what it was,
// though the head reused many of those slots for other rows.
func testReuseAliasing(t *testing.T, head cowSubject) {
	type alias struct {
		h    int32
		row  tuple.Tuple
		want [2]int64
	}
	type held struct {
		s    cowSubject
		m    cowModel
		rows []alias
	}
	rng := rand.New(rand.NewSource(7919))
	model := cowModel{}
	var ring []held
	overwritten := 0 // aliased slots the head now fills with another row
	for g := 0; g < 300; g++ {
		keep := head.clone()
		if g%2 == 1 {
			keep, head = head, keep
		}
		h := held{s: keep, m: model.clone()}
		keep.arena().each(func(hd int32, row tuple.Tuple) {
			h.rows = append(h.rows, alias{hd, row, [2]int64(row)})
		})
		if ring = append(ring, h); len(ring) > 8 {
			ring = ring[1:]
		}
		head.mutate(rng, model)
		if err := head.check(model); err != nil {
			t.Fatalf("generation %d: head: %v", g, err)
		}
		a := head.arena()
		for _, r := range h.rows {
			if r.h < a.rows.n && [2]int64(a.rows.row(r.h)) != r.want {
				overwritten++
			}
		}
		for i, old := range ring {
			for _, r := range old.rows {
				if [2]int64(r.row) != r.want {
					t.Fatalf("generation %d: held generation %d: row slice of handle %d reads %v, was %v",
						g, i, r.h, r.row, r.want)
				}
			}
			if err := old.s.check(old.m); err != nil {
				t.Fatalf("generation %d: held generation %d: %v", g, i, err)
			}
		}
	}
	// 480 tuples in the domain: without reuse the head would have
	// appended a slot for each of its thousands of inserts.
	if a := head.arena(); a.rows.n > 24*20 || overwritten == 0 {
		t.Fatalf("%d slots stored for at most 480 live rows, %d aliased slots reused: the reuse path was not exercised",
			a.rows.n, overwritten)
	}
}

// cowModel is the oracle of the snapshot-isolation test: tuple → count
// (always 1 for a set relation), keyed by value so that checking it
// allocates nothing.
type cowModel map[[2]int64]int64

func (m cowModel) clone() cowModel {
	c := make(cowModel, len(m))
	for k, n := range m {
		c[k] = n
	}
	return c
}

// cowSubject is one storage representation under the snapshot-isolation
// test. check must be safe to call concurrently on a subject that is no
// longer mutated.
type cowSubject interface {
	clone() cowSubject
	mutate(rng *rand.Rand, m cowModel)
	check(m cowModel) error
	arena() *rowArena
}

var cowScheme = schema.MustScheme("A", "B")

// cowTuple draws from a 24×20 domain: small enough that batches keep
// re-inserting deleted tuples and deleting present ones, large enough
// that the tries are several levels deep.
func cowTuple(rng *rand.Rand) [2]int64 {
	return [2]int64{int64(rng.Intn(24)), int64(rng.Intn(20)) - 10}
}

type cowRelation struct{ r *Relation }

func (s cowRelation) clone() cowSubject { return cowRelation{s.r.Clone()} }

func (s cowRelation) arena() *rowArena { return &s.r.a }

func (s cowRelation) mutate(rng *rand.Rand, m cowModel) {
	for i := 0; i < 16; i++ {
		k := cowTuple(rng)
		if rng.Intn(5) < 3 {
			s.r.put(k[:])
			m[k] = 1
		} else {
			s.r.Delete(k[:])
			delete(m, k)
		}
	}
}

func (s cowRelation) check(m cowModel) error {
	if s.r.Len() != len(m) {
		return fmt.Errorf("Len = %d, model has %d", s.r.Len(), len(m))
	}
	seen := 0
	var err error
	s.r.Each(func(t tuple.Tuple) {
		seen++
		if _, ok := m[[2]int64(t)]; !ok {
			err = fmt.Errorf("Each yields %v, absent from the model", t)
		}
	})
	if err == nil && seen != len(m) {
		err = fmt.Errorf("Each visited %d tuples, model has %d", seen, len(m))
	}
	fresh := New(cowScheme)
	for k := range m {
		if !s.r.Has(k[:]) {
			err = fmt.Errorf("Has(%v) = false, model holds it", k)
		}
		if s.r.Has([]int64{k[0], k[1] + 100}) {
			err = fmt.Errorf("Has(%v) = true for a tuple outside the domain", k)
		}
		fresh.put(k[:])
	}
	if err == nil && !(s.r.Equal(fresh) && fresh.Equal(s.r)) {
		err = fmt.Errorf("not Equal to a relation rebuilt from the model")
	}
	for i := range s.r.ixs {
		if err == nil {
			err = indexMatchesScan(s.r, &s.r.ixs[i])
		}
	}
	return err
}

type cowCounted struct{ c *Counted }

func (s cowCounted) clone() cowSubject { return cowCounted{s.c.Clone()} }

func (s cowCounted) arena() *rowArena { return &s.c.a }

func (s cowCounted) mutate(rng *rand.Rand, m cowModel) {
	for i := 0; i < 16; i++ {
		k := cowTuple(rng)
		n := int64(rng.Intn(3) + 1)
		if cur := m[k]; cur > 0 && rng.Intn(5) >= 3 {
			if rng.Intn(2) == 0 {
				n = cur // drop the tuple outright
			}
			n = -min(n, cur)
		}
		if err := s.c.Add(k[:], n); err != nil {
			panic(err)
		}
		if m[k] += n; m[k] == 0 {
			delete(m, k)
		}
	}
}

func (s cowCounted) check(m cowModel) error {
	if s.c.Len() != len(m) {
		return fmt.Errorf("Len = %d, model has %d", s.c.Len(), len(m))
	}
	seen := 0
	var err error
	s.c.Each(func(t tuple.Tuple, n int64) {
		seen++
		if m[[2]int64(t)] != n {
			err = fmt.Errorf("Each yields %v×%d, model has ×%d", t, n, m[[2]int64(t)])
		}
	})
	if err == nil && seen != len(m) {
		err = fmt.Errorf("Each visited %d tuples, model has %d", seen, len(m))
	}
	fresh := NewCounted(cowScheme)
	for k, n := range m {
		if got := s.c.Count(k[:]); got != n {
			err = fmt.Errorf("Count(%v) = %d, model has %d", k, got, n)
		}
		if got := s.c.Count([]int64{k[0], k[1] + 100}); got != 0 {
			err = fmt.Errorf("Count(%v) = %d for a tuple outside the domain", k, got)
		}
		fresh.bump(k[:], n)
	}
	if err == nil && !(s.c.Equal(fresh) && fresh.Equal(s.c)) {
		err = fmt.Errorf("not Equal to a counted relation rebuilt from the model")
	}
	return err
}

// degenerateHash makes every row hash agree in its low 16 bits, so the
// trie is four single-child forks deep before it branches at all, and
// maps one hash in 37 to a single value, so a handful of rows collide
// outright and only their handles split them.
func degenerateHash(h uint32) uint32 {
	if h>>16%37 == 0 {
		return 0x12345a5a
	}
	return h&^0xffff | 0x5a5a
}

// TestSnapshotIsolationAcrossGenerations is the copy-on-write property
// test: the head of each representation goes through 150 clone →
// mutate → publish generations while the last 16 published generations
// are held, each with the model it had when it was published. While a
// batch mutates the head, reader goroutines scan and probe the held
// generations; after the batch every held generation is verified again
// in full (Len, Has/Count, Each, Equal, and an indexed relation's
// indexes against a scan). Path copying that wrote to a
// shared node, or a clone that kept ownership of one, shows up as a
// held generation drifting from its model — or as a data race under
// -race. The second pass repeats everything under degenerateHash.
func TestSnapshotIsolationAcrossGenerations(t *testing.T) {
	subjects := map[string]func() cowSubject{
		"Relation": func() cowSubject { return cowRelation{New(cowScheme)} },
		"Indexed": func() cowSubject {
			r := New(cowScheme)
			_, _ = r.AddIndex(0), r.AddIndex(1)
			return cowRelation{r}
		},
		"Counted": func() cowSubject { return cowCounted{NewCounted(cowScheme)} },
	}
	for _, hash := range []string{"real", "degenerate"} {
		for name, fresh := range subjects {
			t.Run(hash+"/"+name, func(t *testing.T) {
				if hash == "degenerate" {
					hashMangle = degenerateHash
					defer func() { hashMangle = nil }()
				}
				testSnapshotIsolation(t, fresh())
			})
		}
	}
}

func testSnapshotIsolation(t *testing.T, head cowSubject) {
	type generation struct {
		s cowSubject
		m cowModel
	}
	const held = 16
	rng := rand.New(rand.NewSource(42))
	model := cowModel{}
	var ring []generation

	for g := 0; g < 150; g++ {
		// Publish the head, keep mutating a clone of it.
		ring = append(ring, generation{head, model.clone()})
		if len(ring) > held {
			ring = ring[1:]
		}
		head = head.clone()

		var stop atomic.Bool
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				for i := r; !stop.Load(); i++ {
					old := ring[i%len(ring)]
					if err := old.s.check(old.m); err != nil {
						t.Errorf("generation %d, read during the next batch: %v", g, err)
						return
					}
				}
			}(r)
		}
		head.mutate(rng, model)
		stop.Store(true)
		readers.Wait()

		if err := head.check(model); err != nil {
			t.Fatalf("generation %d: head: %v", g, err)
		}
		for i, old := range ring {
			if err := old.s.check(old.m); err != nil {
				t.Fatalf("generation %d: held generation %d of %d: %v", g, i, len(ring), err)
			}
		}
	}
}
