package delta

import (
	"fmt"
	"math/rand"
	"testing"

	"mview/internal/relation"
	"mview/internal/schema"
	"mview/internal/tuple"
)

func lookupOne(name string, r *relation.Relation) func(string) (*relation.Relation, bool) {
	return func(n string) (*relation.Relation, bool) {
		if n == name {
			return r, true
		}
		return nil, false
	}
}

func TestNetBasicInsertDelete(t *testing.T) {
	r := relation.MustFromTuples(schema.MustScheme("A"), tuple.New(1), tuple.New(2))
	var tx Tx
	tx.Insert("R", tuple.New(3)).Delete("R", tuple.New(1))
	ups, err := tx.Net(lookupOne("R", r))
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 1 {
		t.Fatalf("updates = %v", ups)
	}
	u := ups[0]
	if u.Rel != "R" || u.Inserts.Len() != 1 || !u.Inserts.Has(tuple.New(3)) {
		t.Errorf("inserts = %v", u.Inserts)
	}
	if u.Deletes.Len() != 1 || !u.Deletes.Has(tuple.New(1)) {
		t.Errorf("deletes = %v", u.Deletes)
	}
	if u.Size() != 2 || u.IsEmpty() {
		t.Errorf("Size/IsEmpty wrong")
	}
}

func TestNetInsertThenDeleteCancels(t *testing.T) {
	// "if a tuple not in the relation is inserted and then deleted
	// within a transaction, it is not represented at all" (§5).
	r := relation.MustFromTuples(schema.MustScheme("A"), tuple.New(1))
	var tx Tx
	tx.Insert("R", tuple.New(9)).Delete("R", tuple.New(9))
	ups, err := tx.Net(lookupOne("R", r))
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 0 {
		t.Errorf("updates = %v, want none", ups)
	}
}

func TestNetDeleteThenReinsertCancels(t *testing.T) {
	r := relation.MustFromTuples(schema.MustScheme("A"), tuple.New(1))
	var tx Tx
	tx.Delete("R", tuple.New(1)).Insert("R", tuple.New(1))
	ups, err := tx.Net(lookupOne("R", r))
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 0 {
		t.Errorf("updates = %v, want none", ups)
	}
}

func TestNetInsertExistingIsNoop(t *testing.T) {
	r := relation.MustFromTuples(schema.MustScheme("A"), tuple.New(1))
	var tx Tx
	tx.Insert("R", tuple.New(1))
	ups, err := tx.Net(lookupOne("R", r))
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 0 {
		t.Errorf("inserting a present tuple must net to nothing, got %v", ups)
	}
}

func TestNetDeleteAbsentIsNoop(t *testing.T) {
	r := relation.New(schema.MustScheme("A"))
	var tx Tx
	tx.Delete("R", tuple.New(1))
	ups, err := tx.Net(lookupOne("R", r))
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 0 {
		t.Errorf("deleting an absent tuple must net to nothing, got %v", ups)
	}
}

func TestNetDisjointness(t *testing.T) {
	r := relation.MustFromTuples(schema.MustScheme("A"), tuple.New(1), tuple.New(2))
	var tx Tx
	tx.Insert("R", tuple.New(3)).
		Delete("R", tuple.New(3)).
		Insert("R", tuple.New(3)). // net insert after churn
		Delete("R", tuple.New(1)).
		Insert("R", tuple.New(1)).
		Delete("R", tuple.New(1)) // net delete after churn
	ups, err := tx.Net(lookupOne("R", r))
	if err != nil {
		t.Fatal(err)
	}
	u := ups[0]
	if !u.Inserts.Has(tuple.New(3)) || u.Inserts.Len() != 1 {
		t.Errorf("inserts = %v", u.Inserts)
	}
	if !u.Deletes.Has(tuple.New(1)) || u.Deletes.Len() != 1 {
		t.Errorf("deletes = %v", u.Deletes)
	}
	// Disjointness invariants: i ∩ r = ∅, d ⊆ r, i ∩ d = ∅.
	if overlap(u.Inserts, r) {
		t.Error("i_r must be disjoint from r")
	}
	diff, _ := relation.Diff(u.Deletes, r)
	if diff.Len() != 0 {
		t.Error("d_r must be a subset of r")
	}
	if overlap(u.Inserts, u.Deletes) {
		t.Error("i_r and d_r must be disjoint")
	}
}

// overlap reports whether a and b share a tuple.
func overlap(a, b *relation.Relation) bool {
	shared := false
	a.Each(func(t tuple.Tuple) { shared = shared || b.Has(t) })
	return shared
}

func TestNetMultipleRelations(t *testing.T) {
	r := relation.MustFromTuples(schema.MustScheme("A"), tuple.New(1))
	s := relation.New(schema.MustScheme("B", "C"))
	lookup := func(n string) (*relation.Relation, bool) {
		switch n {
		case "R":
			return r, true
		case "S":
			return s, true
		}
		return nil, false
	}
	var tx Tx
	tx.Insert("S", tuple.New(5, 6)).Delete("R", tuple.New(1))
	ups, err := tx.Net(lookup)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 2 {
		t.Fatalf("updates = %v", ups)
	}
	if got := tx.Relations(); len(got) != 2 || got[0] != "R" || got[1] != "S" {
		t.Errorf("Relations = %v", got)
	}
}

func TestNetErrors(t *testing.T) {
	r := relation.MustFromTuples(schema.MustScheme("A"), tuple.New(1))
	var tx Tx
	tx.Insert("NOPE", tuple.New(1))
	if _, err := tx.Net(lookupOne("R", r)); err == nil {
		t.Error("unknown relation must fail")
	}
	var tx2 Tx
	tx2.Insert("R", tuple.New(1, 2))
	if _, err := tx2.Net(lookupOne("R", r)); err == nil {
		t.Error("arity mismatch must fail")
	}
}

func TestApply(t *testing.T) {
	r := relation.MustFromTuples(schema.MustScheme("A"), tuple.New(1), tuple.New(2))
	u := Update{
		Rel:     "R",
		Inserts: relation.MustFromTuples(schema.MustScheme("A"), tuple.New(3)),
		Deletes: relation.MustFromTuples(schema.MustScheme("A"), tuple.New(1)),
	}
	if err := u.Apply(r); err != nil {
		t.Fatal(err)
	}
	want := relation.MustFromTuples(schema.MustScheme("A"), tuple.New(2), tuple.New(3))
	if !r.Equal(want) {
		t.Errorf("after Apply: %v, want %v", r, want)
	}
	// Nil sets are tolerated.
	if err := (Update{Rel: "R"}).Apply(r); err != nil {
		t.Errorf("empty Apply: %v", err)
	}
	if !(Update{Rel: "R"}).IsEmpty() {
		t.Error("zero update should be empty")
	}
}

func TestTxCloneInsulation(t *testing.T) {
	var tx Tx
	mut := tuple.New(7)
	tx.Insert("R", mut)
	mut[0] = 8
	r := relation.New(schema.MustScheme("A"))
	ups, err := tx.Net(lookupOne("R", r))
	if err != nil {
		t.Fatal(err)
	}
	if !ups[0].Inserts.Has(tuple.New(7)) {
		t.Error("Tx must clone tuples at record time")
	}
}

// TestComposeProperty: for random B0 and two random sequential net
// updates, applying the composition must equal applying both in turn,
// and the composed update must satisfy the disjointness invariants.
func TestComposeProperty(t *testing.T) {
	s := schema.MustScheme("A")
	for trial := 0; trial < 300; trial++ {
		seed := int64(trial)
		rng := newRand(seed)
		b0 := relation.New(s)
		for i := 0; i < rng.n(10); i++ {
			_ = b0.Insert(tuple.New(int64(rng.n(12))))
		}
		u1 := randomNet(rng, b0)
		b1 := b0.Clone()
		if err := u1.Apply(b1); err != nil {
			t.Fatal(err)
		}
		u2 := randomNet(rng, b1)
		b2 := b1.Clone()
		if err := u2.Apply(b2); err != nil {
			t.Fatal(err)
		}

		comp, err := Compose(u1, u2)
		if err != nil {
			t.Fatal(err)
		}
		direct := b0.Clone()
		if err := comp.Apply(direct); err != nil {
			t.Fatal(err)
		}
		if !direct.Equal(b2) {
			t.Fatalf("seed %d: composed apply = %v, sequential = %v\nu1=%+v u2=%+v", seed, direct, b2, u1, u2)
		}
		// Invariants against B0.
		if overlap(comp.Inserts, b0) {
			t.Fatalf("seed %d: composed inserts intersect B0", seed)
		}
		if x, _ := relation.Diff(comp.Deletes, b0); x.Len() != 0 {
			t.Fatalf("seed %d: composed deletes escape B0", seed)
		}
		if overlap(comp.Inserts, comp.Deletes) {
			t.Fatalf("seed %d: composed sets overlap", seed)
		}
	}
}

func TestComposeEdgeCases(t *testing.T) {
	if _, err := Compose(Update{Rel: "R"}, Update{Rel: "S"}); err == nil {
		t.Error("different relations must fail")
	}
	got, err := Compose(Update{Rel: "R"}, Update{Rel: "R"})
	if err != nil || !got.IsEmpty() {
		t.Errorf("empty compose = %+v, %v", got, err)
	}
	// One side nil sets, other real.
	s := schema.MustScheme("A")
	u := Update{Rel: "R", Inserts: relation.MustFromTuples(s, tuple.New(1))}
	got, err = Compose(Update{Rel: "R"}, u)
	if err != nil || !got.Inserts.Has(tuple.New(1)) {
		t.Errorf("compose with empty base = %+v, %v", got, err)
	}
	got, err = Compose(u, Update{Rel: "R"})
	if err != nil || !got.Inserts.Has(tuple.New(1)) {
		t.Errorf("compose with empty next = %+v, %v", got, err)
	}
	// Insert then delete of the same tuple cancels.
	d := Update{Rel: "R", Deletes: relation.MustFromTuples(s, tuple.New(1))}
	got, err = Compose(u, d)
	if err != nil || !got.IsEmpty() {
		t.Errorf("insert∘delete = %+v, %v", got, err)
	}
}

func TestComposeInPlaceMatchesCompose(t *testing.T) {
	s := schema.MustScheme("A")
	eq := func(a, b *relation.Relation) bool {
		if a == nil {
			a = relation.New(s)
		}
		if b == nil {
			b = relation.New(s)
		}
		return a.Equal(b)
	}
	for trial := 0; trial < 300; trial++ {
		seed := int64(trial + 7000)
		rng := newRand(seed)
		b0 := relation.New(s)
		for i := 0; i < rng.n(10); i++ {
			_ = b0.Insert(tuple.New(int64(rng.n(12))))
		}
		state := b0.Clone()
		// Fold the same chain of nets both ways: the oracle through
		// Compose, the subject through in-place composition starting
		// from nil sets (exercising the on-demand allocation) or from a
		// clone of the first net (the engine's first-touch path).
		oracle := Update{Rel: "R"}
		subject := Update{Rel: "R"}
		for step := 0; step < 5; step++ {
			u := randomNet(rng, state)
			if err := u.Apply(state); err != nil {
				t.Fatal(err)
			}
			before := cloneForTest(u)
			comp, err := Compose(oracle, u)
			if err != nil {
				t.Fatal(err)
			}
			oracle = comp
			if step == 0 && trial%2 == 0 {
				subject = cloneForTest(u)
			} else {
				ComposeInPlace(&subject, u)
			}
			// next must come through untouched.
			if !eq(before.Inserts, u.Inserts) || !eq(before.Deletes, u.Deletes) {
				t.Fatalf("seed %d: ComposeInPlace mutated next", seed)
			}
		}
		if !eq(subject.Inserts, oracle.Inserts) || !eq(subject.Deletes, oracle.Deletes) {
			t.Fatalf("seed %d: in-place %+v != compose %+v", seed, subject, oracle)
		}
		direct := b0.Clone()
		if err := subject.Apply(direct); err != nil {
			t.Fatal(err)
		}
		if !direct.Equal(state) {
			t.Fatalf("seed %d: in-place apply = %v, sequential = %v", seed, direct, state)
		}
	}
}

func TestComposeInPlaceRelMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("cross-relation ComposeInPlace must panic")
		}
	}()
	base := Update{Rel: "R"}
	ComposeInPlace(&base, Update{Rel: "S"})
}

func cloneForTest(u Update) Update {
	out := Update{Rel: u.Rel}
	if u.Inserts != nil {
		out.Inserts = u.Inserts.Clone()
	}
	if u.Deletes != nil {
		out.Deletes = u.Deletes.Clone()
	}
	return out
}

// Tiny deterministic PRNG helpers (avoid importing math/rand in two
// places with clashing seeds).
type miniRand struct{ state uint64 }

func newRand(seed int64) *miniRand {
	return &miniRand{state: uint64(seed)*2862933555777941757 + 3037000493}
}

func (r *miniRand) n(n int) int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int((r.state >> 33) % uint64(n))
}

// randomNet builds a valid net update against the given state.
func randomNet(rng *miniRand, base *relation.Relation) Update {
	s := base.Scheme()
	u := Update{Rel: "R", Inserts: relation.New(s), Deletes: relation.New(s)}
	for i := 0; i < rng.n(6); i++ {
		tu := tuple.New(int64(rng.n(12)))
		if !base.Has(tu) {
			_ = u.Inserts.Insert(tu)
		}
	}
	for _, tu := range base.Tuples() {
		if rng.n(3) == 0 {
			_ = u.Deletes.Insert(tu)
		}
	}
	return u
}

func TestTxLen(t *testing.T) {
	var tx Tx
	if tx.Len() != 0 {
		t.Error("zero Tx should be empty")
	}
	tx.Insert("R", tuple.New(1)).Delete("R", tuple.New(2))
	if tx.Len() != 2 {
		t.Errorf("Len = %d", tx.Len())
	}
}

func TestComposeTxsCancellationAndOrder(t *testing.T) {
	sch := schema.MustScheme("A")
	upd := func(rel string, ins, del []int64) Update {
		u := Update{Rel: rel, Inserts: relation.New(sch), Deletes: relation.New(sch)}
		for _, v := range ins {
			if err := u.Inserts.Insert(tuple.New(v)); err != nil {
				t.Fatal(err)
			}
		}
		for _, v := range del {
			if err := u.Deletes.Insert(tuple.New(v)); err != nil {
				t.Fatal(err)
			}
		}
		return u
	}

	// tx1 inserts 1,2 into R and deletes 9 from S; tx2 deletes 1 from R
	// (cancels half of tx1) and re-inserts 9 into S (cancels tx1's S
	// delta entirely); tx3 touches T.
	net, err := ComposeTxs([][]Update{
		{upd("R", []int64{1, 2}, nil), upd("S", nil, []int64{9})},
		{upd("R", nil, []int64{1}), upd("S", []int64{9}, nil)},
		{upd("T", []int64{7}, nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(net) != 2 {
		t.Fatalf("net = %v, want R and T only", net)
	}
	if net[0].Rel != "R" || net[1].Rel != "T" {
		t.Errorf("first-touch order violated: %s, %s", net[0].Rel, net[1].Rel)
	}
	r := net[0]
	if r.Inserts.Len() != 1 || !r.Inserts.Has(tuple.New(2)) || r.Deletes.Len() != 0 {
		t.Errorf("R net = +%v -%v, want +{2} -{}", r.Inserts, r.Deletes)
	}
}

func TestComposeTxsSingleTouchPassthrough(t *testing.T) {
	sch := schema.MustScheme("A")
	ins := relation.MustFromTuples(sch, tuple.New(5))
	u := Update{Rel: "R", Inserts: ins, Deletes: relation.New(sch)}
	net, err := ComposeTxs([][]Update{{u}})
	if err != nil {
		t.Fatal(err)
	}
	if len(net) != 1 || net[0].Inserts != ins {
		t.Errorf("single-touch update was not passed through unchanged")
	}
}

func TestComposeTxsEquivalentToSequentialApply(t *testing.T) {
	// Random-ish op streams: composing per-tx nets must equal applying
	// the transactions one after another.
	sch := schema.MustScheme("A")
	base := relation.MustFromTuples(sch, tuple.New(1), tuple.New(2), tuple.New(3))
	oracle := base.Clone()
	overlay := base.Clone()

	var nets [][]Update
	streams := [][][2]int64{ // {op(0=ins,1=del), value}
		{{0, 4}, {1, 1}, {0, 5}},
		{{1, 4}, {0, 6}, {1, 2}},
		{{0, 1}, {1, 5}, {0, 7}},
	}
	for _, ops := range streams {
		var tx Tx
		for _, o := range ops {
			if o[0] == 0 {
				tx.Insert("R", tuple.New(o[1]))
			} else {
				tx.Delete("R", tuple.New(o[1]))
			}
		}
		net, err := tx.Net(lookupOne("R", overlay))
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range net {
			if err := u.Apply(overlay); err != nil {
				t.Fatal(err)
			}
			if err := u.Apply(oracle); err != nil {
				t.Fatal(err)
			}
		}
		nets = append(nets, net)
	}

	composed, err := ComposeTxs(nets)
	if err != nil {
		t.Fatal(err)
	}
	got := base.Clone()
	for _, u := range composed {
		// Disjointness against the pre-group state must hold for the
		// composed net (i ∩ B0 = ∅, d ⊆ B0).
		u.Inserts.Each(func(tp tuple.Tuple) {
			if base.Has(tp) {
				t.Errorf("composed insert %v already in pre-group state", tp)
			}
		})
		u.Deletes.Each(func(tp tuple.Tuple) {
			if !base.Has(tp) {
				t.Errorf("composed delete %v not in pre-group state", tp)
			}
		})
		if err := u.Apply(got); err != nil {
			t.Fatal(err)
		}
	}
	if !got.Equal(oracle) {
		t.Errorf("composed apply = %v, sequential apply = %v", got, oracle)
	}
}

func TestComposeTxsEmpty(t *testing.T) {
	net, err := ComposeTxs(nil)
	if err != nil || len(net) != 0 {
		t.Errorf("ComposeTxs(nil) = %v, %v", net, err)
	}
}

// TestFoldOverMatchesOverlay: a group member's net effect read through
// the running fold (NetOf over Fold.Over) equals its net effect against
// a copy of the base with the earlier members applied, the fold's
// composed updates carry the base to the same final state, and folding
// never writes a member's own Net output.
func TestFoldOverMatchesOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rels := []string{"R", "S"}
	for round := range 200 {
		base := map[string]*relation.Relation{}
		for _, rel := range rels {
			base[rel] = relation.New(schema.MustScheme("A", "B"))
			for range 6 {
				_ = base[rel].Insert(tuple.New(rng.Int63n(4), rng.Int63n(3)))
			}
		}
		overlay := map[string]*relation.Relation{}
		for rel, r := range base {
			overlay[rel] = r.Clone()
		}
		var fold Fold
		var members [][]Update
		var frozen []string
		for range 1 + rng.Intn(4) {
			var tx Tx
			for range 1 + rng.Intn(5) {
				rel, tu := rels[rng.Intn(2)], tuple.New(rng.Int63n(4), rng.Int63n(3))
				if rng.Intn(2) == 0 {
					tx.Insert(rel, tu)
				} else {
					tx.Delete(rel, tu)
				}
			}
			want, err := tx.Net(func(rel string) (*relation.Relation, bool) { r, ok := overlay[rel]; return r, ok })
			if err != nil {
				t.Fatal(err)
			}
			got, err := tx.NetOf(func(rel string) (Instance, bool) { return fold.Over(rel, base[rel]), true })
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("round %d: NetOf over the fold = %v, Net over the overlay = %v", round, got, want)
			}
			for _, u := range want {
				if err := u.Apply(overlay[u.Rel]); err != nil {
					t.Fatal(err)
				}
			}
			fold.Add(got)
			members = append(members, got)
			frozen = append(frozen, fmt.Sprint(got))
		}
		for i, m := range members {
			if fmt.Sprint(m) != frozen[i] {
				t.Fatalf("round %d: folding changed member %d's updates to %v, was %s", round, i, m, frozen[i])
			}
		}
		final := map[string]*relation.Relation{}
		for rel, r := range base {
			final[rel] = r.Clone()
		}
		for _, u := range fold.Updates() {
			if u.IsEmpty() {
				t.Fatalf("round %d: Updates kept an empty update for %s", round, u.Rel)
			}
			if err := u.Apply(final[u.Rel]); err != nil {
				t.Fatal(err)
			}
		}
		for _, rel := range rels {
			if !final[rel].Equal(overlay[rel]) {
				t.Fatalf("round %d: %s composed = %v, sequential = %v", round, rel, final[rel], overlay[rel])
			}
		}
	}
}
