package irrelevance

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mview/internal/delta"
	"mview/internal/expr"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/schema"
	"mview/internal/tuple"
)

func routeDB(t testing.TB) *schema.Database {
	t.Helper()
	db, err := schema.NewDatabase(
		&schema.RelScheme{Name: "R", Scheme: schema.MustScheme("A", "B", "C")},
		&schema.RelScheme{Name: "S", Scheme: schema.MustScheme("D", "E", "F")},
	)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

var routeOps = []pred.Op{pred.OpLT, pred.OpLE, pred.OpEQ, pred.OpGE, pred.OpGT}

// routeGen draws random view sets and tuples over R(A,B,C), S(D,E,F).
// With extreme set, constants and tuple values also land on and next
// to the int64 and saturation bounds.
type routeGen struct {
	rng     *rand.Rand
	extreme bool
}

func (g *routeGen) constant() int64 {
	if g.extreme && g.rng.Intn(6) == 0 {
		edge := []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
			exactLimit, exactLimit + 1, -exactLimit - 1, valueLimit, -valueLimit, 1 << 62, -(1 << 62)}
		return edge[g.rng.Intn(len(edge))]
	}
	return int64(g.rng.Intn(200) - 50)
}

func (g *routeGen) value() int64 {
	if g.extreme && g.rng.Intn(8) == 0 {
		edge := []int64{math.MinInt64, math.MaxInt64, valueLimit, valueLimit + 1, -valueLimit, -valueLimit - 1,
			exactLimit, -exactLimit}
		return edge[g.rng.Intn(len(edge))]
	}
	return int64(g.rng.Intn(220) - 60)
}

func (g *routeGen) tuple() tuple.Tuple {
	return tuple.New(g.value(), g.value(), g.value())
}

// view draws one view. Operand 0 is always R; the shapes add S, a
// second R (self-join), or both.
func (g *routeGen) view(name string, boundsOnly bool) expr.View {
	shapes := [][]expr.Operand{
		{{Rel: "R", Alias: "r"}},
		{{Rel: "R", Alias: "r"}, {Rel: "S", Alias: "s"}},
		{{Rel: "R", Alias: "r"}, {Rel: "R", Alias: "q"}},
		{{Rel: "R", Alias: "r"}, {Rel: "S", Alias: "s"}, {Rel: "R", Alias: "q"}},
	}
	ops := shapes[g.rng.Intn(len(shapes))]
	if boundsOnly {
		ops = shapes[0]
	}
	var vars []pred.Var
	for _, op := range ops {
		attrs := []string{"A", "B", "C"}
		if op.Rel == "S" {
			attrs = []string{"D", "E", "F"}
		}
		for _, a := range attrs {
			vars = append(vars, pred.Var(op.Alias+"."+a))
		}
	}
	pick := func() pred.Var { return vars[g.rng.Intn(len(vars))] }
	op := func() pred.Op { return routeOps[g.rng.Intn(len(routeOps))] }

	var conjs []pred.Conjunction
	for n := 1 + g.rng.Intn(3); n > 0; n-- {
		var atoms []pred.Atom
		for m := 1 + g.rng.Intn(4); m > 0; m-- {
			switch k := g.rng.Intn(10); {
			case boundsOnly || k < 4:
				atoms = append(atoms, pred.VarConst(pick(), op(), g.constant()))
			case k < 7:
				atoms = append(atoms, pred.VarVar(pick(), op(), pick(), g.constant()))
			case k < 8 && len(ops) > 1:
				// An equality chain that bounds an R attribute only
				// through the other operand's variables.
				x, y, z := vars[g.rng.Intn(3)], vars[3+g.rng.Intn(3)], vars[3+g.rng.Intn(3)]
				atoms = append(atoms,
					pred.VarVar(x, pred.OpEQ, y, g.constant()),
					pred.VarVar(y, pred.OpEQ, z, g.constant()),
					pred.VarConst(z, op(), g.constant()))
			case k < 9:
				atoms = append(atoms, pred.VarConst(pick(), pred.OpNE, g.constant()))
			default:
				// Enough ≠ atoms to push the expansion past NELimit.
				for i := 0; i < 7; i++ {
					atoms = append(atoms, pred.VarVar(pick(), pred.OpNE, pick(), g.constant()))
				}
			}
		}
		conjs = append(conjs, pred.And(atoms...))
	}
	return expr.View{Name: name, Operands: ops, Where: pred.Or(conjs...)}
}

// checkers binds n random views and returns the checker of every
// operand over R.
func (g *routeGen) checkers(t testing.TB, db *schema.Database, n int, boundsOnly bool) []*Checker {
	t.Helper()
	var out []*Checker
	for i := 0; i < n; i++ {
		b, err := expr.Bind(g.view(fmt.Sprintf("v%d", i), boundsOnly), db)
		if err != nil {
			t.Fatal(err)
		}
		for op := range b.Operands {
			if b.Operands[op].Rel != "R" {
				continue
			}
			c, err := NewChecker(b, op, Options{})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, c)
		}
	}
	return out
}

// checkRoute is the soundness oracle: over a random view set and
// random tuples, the index's candidates contain every checker whose
// Relevant accepts the tuple — and equal them when exact is set — and
// Route hands every checker exactly what its own FilterUpdate keeps.
func checkRoute(t *testing.T, seed int64, extreme, boundsOnly bool) {
	t.Helper()
	g := &routeGen{rng: rand.New(rand.NewSource(seed)), extreme: extreme}
	db := routeDB(t)
	cks := g.checkers(t, db, 1+g.rng.Intn(40), boundsOnly)
	ix, err := NewIndex(cks)
	if err != nil {
		t.Fatal(err)
	}
	scheme := schema.MustScheme("A", "B", "C")
	u := delta.Update{Rel: "R", Inserts: relation.New(scheme), Deletes: relation.New(scheme)}
	pruned := 0
	for i := 0; i < 64; i++ {
		tu := g.tuple()
		cand := ix.candidates(tu, make([]uint64, ix.words), nil)
		if !sort.IntsAreSorted(cand) {
			t.Fatalf("seed %d: candidates %v not sorted", seed, cand)
		}
		in := make(map[int]bool, len(cand))
		for _, ci := range cand {
			if in[ci] {
				t.Fatalf("seed %d: candidate %d repeated in %v", seed, ci, cand)
			}
			in[ci] = true
		}
		for ci, c := range cks {
			rel, err := c.Relevant(tu)
			if err != nil {
				t.Fatal(err)
			}
			if rel && !in[ci] {
				t.Fatalf("seed %d: tuple %v is relevant to checker %d (%s, operand %d) but not a candidate %v",
					seed, tu, ci, c.bound.Where, c.opIdx, cand)
			}
			if boundsOnly && !extreme && !rel && in[ci] {
				t.Fatalf("seed %d: tuple %v is a candidate of bounds-only checker %d (%s) that rejects it",
					seed, tu, ci, c.bound.Where)
			}
		}
		pruned += len(cks) - len(cand)
		side := u.Inserts
		if i%2 == 1 {
			side = u.Deletes
		}
		if !u.Inserts.Has(tu) && !u.Deletes.Has(tu) {
			if err := side.Insert(tu); err != nil {
				t.Fatal(err)
			}
		}
	}
	if boundsOnly && !extreme && len(cks) > 8 && pruned == 0 {
		t.Errorf("seed %d: index over %d bounds-only checkers pruned nothing", seed, len(cks))
	}

	skip := make([]bool, len(cks))
	for i := range skip {
		skip[i] = g.rng.Intn(5) == 0
	}
	hits, checks, err := ix.Route(u, skip)
	if err != nil {
		t.Fatal(err)
	}
	if checks > u.Size()*len(cks) {
		t.Errorf("seed %d: %d checks for %d tuples × %d checkers", seed, checks, u.Size(), len(cks))
	}
	got := make(map[int]delta.Update, len(hits))
	for _, h := range hits {
		if _, dup := got[h.Checker]; dup {
			t.Fatalf("seed %d: checker %d routed twice", seed, h.Checker)
		}
		if h.Update.IsEmpty() || h.Update.Rel != "R" {
			t.Fatalf("seed %d: checker %d routed an empty or misnamed update %+v", seed, h.Checker, h.Update)
		}
		got[h.Checker] = h.Update
	}
	same := func(a, b *relation.Relation) bool {
		if a == nil || b == nil {
			return (a == nil || a.Len() == 0) && (b == nil || b.Len() == 0)
		}
		return a.Equal(b)
	}
	for ci, c := range cks {
		if skip[ci] {
			if _, ok := got[ci]; ok {
				t.Fatalf("seed %d: skipped checker %d was routed", seed, ci)
			}
			continue
		}
		want, err := c.FilterUpdate(u)
		if err != nil {
			t.Fatal(err)
		}
		if h := got[ci]; !same(h.Inserts, want.Inserts) || !same(h.Deletes, want.Deletes) {
			t.Fatalf("seed %d: checker %d (%s, operand %d) routed\n %v / %v\nits own filter keeps\n %v / %v",
				seed, ci, c.bound.Where, c.opIdx, h.Inserts, h.Deletes, want.Inserts, want.Deletes)
		}
	}
}

// TestRouteSuperset runs the oracle over seeded view sets: ordinary
// constants, and constants and values at the int64 and saturation
// bounds.
func TestRouteSuperset(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		checkRoute(t, seed, false, false)
		checkRoute(t, seed, true, false)
	}
}

// TestRelevanceIndexExactOnBounds shows the index prunes, not just
// that it is safe: over views made of constant bounds only, the
// candidates are exactly the checkers that accept the tuple.
func TestRelevanceIndexExactOnBounds(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		checkRoute(t, seed, false, true)
		checkRoute(t, seed, true, true)
	}
}

// TestRelevanceIndexReadsInvariantBounds pins the case the per-tuple
// split cannot see on its own: K is bounded only through the other
// operand's attributes, and the index still routes by it.
func TestRelevanceIndexReadsInvariantBounds(t *testing.T) {
	db := routeDB(t)
	b, err := expr.Bind(expr.View{
		Name:     "v",
		Operands: []expr.Operand{{Rel: "R"}, {Rel: "S"}},
		Where:    pred.MustParse("A = D + 2 && D = E && E >= 10 && E < 20"),
	}, db)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChecker(b, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex([]*Checker{c})
	if err != nil {
		t.Fatal(err)
	}
	for a := int64(0); a < 40; a++ {
		tu := tuple.New(a, 0, 0)
		want := a >= 12 && a < 22
		if got := len(ix.candidates(tu, make([]uint64, ix.words), nil)) == 1; got != want {
			t.Errorf("A=%d: candidate = %v, want %v", a, got, want)
		}
		if rel, _ := c.Relevant(tu); rel != want {
			t.Errorf("A=%d: Relevant = %v, want %v", a, rel, want)
		}
	}
}

// FuzzRouteSuperset drives the same oracle from fuzzed seeds.
func FuzzRouteSuperset(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, seed%2 == 0, seed%4 == 3)
	}
	f.Fuzz(func(t *testing.T, seed int64, extreme, boundsOnly bool) {
		checkRoute(t, seed, extreme, boundsOnly)
	})
}
