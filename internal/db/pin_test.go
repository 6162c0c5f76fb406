package db

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mview/internal/delta"
	"mview/internal/eval"
	"mview/internal/expr"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/tuple"
)

// replaceFixture is an engine with R(A, B) of n rows, S(C, D) of n/10
// rows and an immediate equi-join view j = R ⋈_{B=C} S of n rows, plus
// the replace stream commitReplaces draws from.
type replaceFixture struct {
	e   *Engine
	cur []int64 // cur[a] is R's B value for A = a
	s   int64   // |S|
	i   int     // next row commitReplaces moves
}

func newReplaceFixture(tb testing.TB, n int) *replaceFixture {
	tb.Helper()
	f := &replaceFixture{e: New(), cur: make([]int64, n), s: int64(n / 10)}
	if err := f.e.CreateRelation("R", "A", "B"); err != nil {
		tb.Fatal(err)
	}
	if err := f.e.CreateRelation("S", "C", "D"); err != nil {
		tb.Fatal(err)
	}
	var load delta.Tx
	for a := range f.cur {
		f.cur[a] = int64(a) % f.s
		load.Insert("R", tuple.New(int64(a), f.cur[a]))
	}
	for c := int64(0); c < f.s; c++ {
		load.Insert("S", tuple.New(c, -c))
	}
	if _, err := f.e.Execute(&load); err != nil {
		tb.Fatal(err)
	}
	def := expr.View{Name: "j", Operands: []expr.Operand{{Rel: "R"}, {Rel: "S"}}, Where: pred.MustParse("B = C")}
	if err := f.e.CreateView(def, ViewConfig{}); err != nil {
		tb.Fatal(err)
	}
	return f
}

// replaces returns the next transaction of the stream: it moves k rows
// of R to another join partner, k deletes and k inserts in R and as
// many in j.
func (f *replaceFixture) replaces(k int) *delta.Tx {
	var tx delta.Tx
	for range k {
		a := f.i % len(f.cur)
		f.i++
		tx.Delete("R", tuple.New(int64(a), f.cur[a]))
		f.cur[a] = (f.cur[a] + 1) % f.s
		tx.Insert("R", tuple.New(int64(a), f.cur[a]))
	}
	return &tx
}

// BenchmarkCommitInPlace commits four replaces per transaction into a
// 50k-row join view. unobserved has no reader, so every install writes
// the base and the view in place; pinned has a reader pin each version
// after its commit, so every install first copies the paths it writes.
func BenchmarkCommitInPlace(b *testing.B) {
	for _, pinned := range []bool{false, true} {
		name := "unobserved"
		if pinned {
			name = "pinned"
		}
		b.Run(name, func(b *testing.B) {
			f := newReplaceFixture(b, 50_000)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := f.e.Execute(f.replaces(4)); err != nil {
					b.Fatal(err)
				}
				if pinned {
					f.e.CurrentSnapshot()
				}
			}
		})
	}
}

// TestCommitInPlaceAllocatesLittle: commits no reader observes write
// their versions in place, so they allocate at most a third of what the
// same commits allocate when a reader pins every version and each
// install must copy what it writes. Sixteen replaces per commit keep
// the per-commit constant (snapshot, net effect, delta containers) from
// masking the per-tuple copies.
func TestCommitInPlaceAllocatesLittle(t *testing.T) {
	const commits = 100
	measure := func(pinned bool) uint64 {
		f := newReplaceFixture(t, 50_000)
		txs := make([]*delta.Tx, 3*commits) // allocatedBytes runs three times
		for i := range txs {
			txs[i] = f.replaces(16)
		}
		return allocatedBytes(func() {
			for range commits {
				if _, err := f.e.Execute(txs[0]); err != nil {
					t.Fatal(err)
				}
				txs = txs[1:]
				if pinned {
					f.e.CurrentSnapshot()
				}
			}
		})
	}
	unobserved, pinned := measure(false), measure(true)
	t.Logf("%d commits: unobserved %d B, pinned %d B", commits, unobserved, pinned)
	if 3*unobserved > pinned {
		t.Errorf("unobserved commits allocated %d B, more than a third of the pinned commits' %d B", unobserved, pinned)
	}
}

// frozenModel is a deep copy of what a pinned snapshot held when it
// was pinned: every base relation's tuples and every view's counted
// tuples.
type frozenModel struct {
	snap  *Snapshot
	base  map[string][]tuple.Tuple
	views map[string][]relation.CountedTuple
}

func freeze(s *Snapshot) frozenModel {
	m := frozenModel{snap: s, base: map[string][]tuple.Tuple{}, views: map[string][]relation.CountedTuple{}}
	for name, r := range s.base {
		m.base[name] = r.Tuples()
	}
	for name, sv := range s.views {
		m.views[name] = sv.data.Tuples()
	}
	return m
}

// verify re-reads the pinned snapshot and compares it with the copy
// taken when it was pinned, checks that every base relation's indexes
// match a scan of its rows, and checks the §5.2 counts of every view
// against the reference evaluator over the snapshot's own bases.
func (m frozenModel) verify(t *testing.T) {
	now := freeze(m.snap)
	for name, want := range m.base {
		if got := now.base[name]; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("snapshot %d: base %s changed after it was pinned: %v, was %v", m.snap.seq, name, got, want)
		}
		if _, err := indexesMatchScan(m.snap.base[name]); err != nil {
			t.Errorf("snapshot %d: base %s: %v", m.snap.seq, name, err)
		}
	}
	for name, want := range m.views {
		if got := now.views[name]; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("snapshot %d: view %s changed after it was pinned: %v, was %v", m.snap.seq, name, got, want)
		}
		sv := m.snap.views[name]
		insts := make([]*relation.Relation, len(sv.bound.Operands))
		for i, op := range sv.bound.Operands {
			insts[i] = m.snap.base[op.Rel]
		}
		ref, err := eval.Materialize(sv.bound, insts, eval.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(ref.Tuples()) != fmt.Sprint(want) {
			t.Errorf("snapshot %d: view %s = %v, its bases give %v", m.snap.seq, name, want, ref.Tuples())
		}
	}
}

// indexesMatchScan checks every index of r against a scan of its rows:
// each row's value matches exactly the rows carrying it, and a value no
// row holds matches none. It returns how many indexes r has.
func indexesMatchScan(r *relation.Relation) (int, error) {
	n := 0
	for pos := range r.Scheme().Arity() {
		ix := r.Index(pos)
		if ix == nil {
			continue
		}
		n++
		want := map[tuple.Value]int{}
		r.Each(func(t tuple.Tuple) { want[t[pos]]++ })
		want[-1<<40] = 0
		for v, rows := range want {
			got := 0
			var err error
			ix.EachMatch(v, func(t tuple.Tuple) {
				if got++; t[pos] != v || !r.Has(t) {
					err = fmt.Errorf("index on column %d matches %v to %d", pos, t, v)
				}
			})
			if err == nil && got != rows {
				err = fmt.Errorf("index on column %d matches %d rows to %d, a scan finds %d", pos, got, v, rows)
			}
			if err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// TestPinnedSnapshotsStayFrozen races readers that pin random
// snapshots against group-committing writers (run with -race). Each
// reader freezes a deep copy of what it pinned and, after many later
// commits have written the unpinned versions in place, re-verifies the
// snapshot's bases, views and §5.2 counts against that copy and the
// reference evaluator, and the bases' indexes against scans of their
// rows. An install that wrote in place without checking the pin would
// change a pinned version, or its indexes, under its reader.
func TestPinnedSnapshotsStayFrozen(t *testing.T) {
	e := newEngine(t)
	if err := e.CreateRelation("T", "E", "F"); err != nil {
		t.Fatal(err)
	}
	views := []expr.View{
		joinViewDef(t, e, "rs"),
		{Name: "st", Operands: []expr.Operand{{Rel: "S"}, {Rel: "T"}}, Where: pred.MustParse("C = E")},
		{Name: "r", Operands: []expr.Operand{{Rel: "R"}}, Where: pred.MustParse("A < 8")},
	}
	for _, v := range views {
		if err := e.CreateView(v, ViewConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	indexes := 0
	for _, r := range e.CurrentSnapshot().base {
		n, _ := indexesMatchScan(r)
		indexes += n
	}
	if indexes < 3 {
		t.Fatalf("the snapshot's bases carry %d indexes; the joins need at least 3", indexes)
	}
	e.EnableGroupCommit(4, 200*time.Microsecond, nil)
	defer e.DisableGroupCommit()

	const writers, commits, readers = 3, 150, 3
	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := range writers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for range commits {
				var tx delta.Tx
				for range 1 + rng.Intn(4) {
					rel := []string{"R", "S", "T"}[rng.Intn(3)]
					t := tuple.New(rng.Int63n(10), rng.Int63n(10))
					if rng.Intn(3) == 0 {
						tx.Delete(rel, t)
					} else {
						tx.Insert(rel, t)
					}
				}
				if _, err := e.Execute(&tx); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var rwg sync.WaitGroup
	for r := range readers {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(100 + int64(r)))
			var held []frozenModel
			for {
				select {
				case <-done:
					for _, m := range held {
						m.verify(t)
					}
					return
				default:
				}
				if rng.Intn(4) == 0 {
					held = append(held, freeze(e.CurrentSnapshot()))
				}
				if len(held) > 0 && rng.Intn(8) == 0 {
					i := rng.Intn(len(held))
					held[i].verify(t)
				}
				time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
			}
		}(r)
	}
	wg.Wait()
	close(done)
	rwg.Wait()
}

// TestRetireWindowReaderWaits: a reader that loads the published
// snapshot after an install has retired it, and before the publish
// that follows, waits for that publish and pins the new snapshot; it is
// never handed the retired one, which the install is writing in place.
func TestRetireWindowReaderWaits(t *testing.T) {
	e := newEngine(t)
	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	var tx delta.Tx
	tx.Insert("R", tuple.New(1, 2)).Insert("S", tuple.New(2, 3))
	exec(t, e, &tx)

	var retired *Snapshot
	got := make(chan *Snapshot, 1)
	e.retireHook = func() {
		e.retireHook = nil
		retired = e.snap.Load()
		go func() { got <- e.CurrentSnapshot() }()
		select {
		case s := <-got:
			t.Errorf("a reader got snapshot %d inside the retire window", s.Seq())
		case <-time.After(50 * time.Millisecond):
		}
	}
	var tx2 delta.Tx
	tx2.Insert("R", tuple.New(4, 2))
	exec(t, e, &tx2)
	if retired == nil {
		t.Fatal("the commit did not retire the unread snapshot")
	}
	s := <-got
	if s == retired || s.Seq() != retired.Seq()+1 {
		t.Fatalf("reader got snapshot %d, want %d (retired %d)", s.Seq(), retired.Seq()+1, retired.Seq())
	}
	if s.state.Load() != snapPinned {
		t.Errorf("the reader's snapshot is not pinned (state %d)", s.state.Load())
	}
	if v := s.views["v"].data; v.Len() != 2 || !v.Has(tuple.New(4, 2, 3)) {
		t.Errorf("reader's view = %v, want the post-install rows", v)
	}
}

// TestPinnedSnapshotSurvivesWrites: a pinned snapshot's objects stay
// marked until a clone replaces them, so commits after it copy what it
// holds once and then write their own versions in place.
func TestPinnedSnapshotSurvivesWrites(t *testing.T) {
	e := newEngine(t)
	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	var tx delta.Tx
	tx.Insert("R", tuple.New(1, 2)).Insert("S", tuple.New(2, 3))
	exec(t, e, &tx)
	pinned := e.CurrentSnapshot()
	r0, v0 := pinned.base["R"], pinned.views["v"].data

	for i := int64(0); i < 3; i++ {
		var tx delta.Tx
		tx.Insert("R", tuple.New(10+i, 2))
		exec(t, e, &tx)
	}
	e.mu.RLock()
	r3, v3 := e.base["R"], e.views["v"].data
	e.mu.RUnlock()
	if r3 == r0 || v3 == v0 {
		t.Fatal("a commit wrote a pinned snapshot's base or view in place")
	}
	if r0.Len() != 1 || v0.Len() != 1 {
		t.Errorf("pinned versions changed: R %v, v %v", r0, v0)
	}
	if r3.Len() != 4 || v3.Len() != 4 {
		t.Errorf("live versions: R %v, v %v", r3, v3)
	}
}
