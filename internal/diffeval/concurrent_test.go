package diffeval

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"mview/internal/delta"
	"mview/internal/eval"
	"mview/internal/relation"
	"mview/internal/schema"
	"mview/internal/tuple"
)

// TestMaintainerConcurrentComputeDelta exercises the Maintainer
// concurrency contract the engine's parallel pipeline relies on: all
// per-call state lives on the call stack, so concurrent ComputeDelta
// calls on ONE maintainer over frozen instances must be race-free
// (run with -race) and give identical results. Filter is on so the
// shared irrelevance checkers (atomic stats) are exercised too.
func TestMaintainerConcurrentComputeDelta(t *testing.T) {
	db := testDB(t)
	b := joinView(t, db, "R", "S")
	r := relation.MustFromTuples(schema.MustScheme("A", "B"),
		tuple.New(1, 2), tuple.New(3, 5), tuple.New(4, 2))
	s := relation.MustFromTuples(schema.MustScheme("B", "C"),
		tuple.New(2, 10), tuple.New(5, 20))
	insts := []*relation.Relation{r, s}
	ups := []delta.Update{{
		Rel:     "R",
		Inserts: relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(7, 5), tuple.New(8, 99)),
		Deletes: relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 2)),
	}}

	m, err := NewMaintainer(b, Options{Filter: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := m.ComputeDelta(insts, ups)
	if err != nil {
		t.Fatal(err)
	}

	const workers, iters = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				d, err := m.ComputeDelta(insts, ups)
				if err != nil {
					errs <- err
					return
				}
				if !slices.EqualFunc(d.Rows, ref.Rows, sameRow) {
					t.Errorf("concurrent delta diverged: %v vs %v", d, ref)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestValidateAndAtomicApply pins down the staged-commit contract:
// Validate predicts exactly whether a delta folds, and a failing Apply
// leaves the view untouched.
func TestValidateAndAtomicApply(t *testing.T) {
	db := testDB(t)
	b := joinView(t, db, "R", "S")
	r := relation.MustFromTuples(schema.MustScheme("A", "B"), tuple.New(1, 2))
	s := relation.MustFromTuples(schema.MustScheme("B", "C"), tuple.New(2, 10))
	view, err := eval.Materialize(b, []*relation.Relation{r, s}, eval.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := view.Scheme()

	mk := func(ins, del []tuple.Tuple) *ViewDelta {
		b := runBuilder{arity: out.Arity()}
		for _, t := range ins {
			b.add(t, 1)
		}
		for _, t := range del {
			b.add(t, -1)
		}
		return &ViewDelta{Rows: b.sorted()}
	}

	// A delta matching the view state validates and applies.
	ok := mk([]tuple.Tuple{tuple.New(9, 9, 9)}, []tuple.Tuple{tuple.New(1, 2, 10)})
	if err := Validate(view, ok); err != nil {
		t.Fatalf("Validate(ok) = %v", err)
	}
	// An insert in the same delta funds a delete of the same tuple: the
	// two cancel in the run.
	funded := mk([]tuple.Tuple{tuple.New(5, 5, 5)}, []tuple.Tuple{tuple.New(5, 5, 5)})
	if err := Validate(view, funded); err != nil {
		t.Fatalf("Validate(insert-funded delete) = %v", err)
	}

	// Deleting a derivation the view does not hold must fail — and
	// leave the view unchanged even though the delta also has inserts.
	bad := mk([]tuple.Tuple{tuple.New(9, 9, 9)}, []tuple.Tuple{tuple.New(404, 0, 0)})
	if err := Validate(view, bad); err == nil {
		t.Fatal("Validate(bad) = nil, want error")
	}
	before := view.Clone()
	if err := Apply(view, bad); err == nil {
		t.Fatal("Apply(bad) = nil, want error")
	} else if !strings.Contains(err.Error(), "derivations") {
		t.Errorf("Apply(bad) error = %v", err)
	}
	if !view.Equal(before) {
		t.Errorf("failed Apply mutated the view: %v vs %v", view, before)
	}

	// A tuple of another arity is caught before any fold.
	wrong := &ViewDelta{Rows: []relation.CountedTuple{{Tuple: tuple.New(1), Count: -1}}}
	if err := Validate(view, wrong); err == nil {
		t.Fatal("Validate(wrong arity) = nil, want error")
	}

	// The good delta still applies after the failures.
	if err := Apply(view, ok); err != nil {
		t.Fatal(err)
	}
	if view.Has(tuple.New(1, 2, 10)) || !view.Has(tuple.New(9, 9, 9)) {
		t.Errorf("view after good apply = %v", view)
	}
}
