package db

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"mview/internal/delta"
	"mview/internal/diffeval"
	"mview/internal/expr"
	"mview/internal/obs"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/schema"
	"mview/internal/tuple"
)

// routeView draws one random view over R(A,B,C) and S(D,E):
// selections, joins, offset joins, self-joins, DNFs, ≠ atoms,
// projections that fold several derivations into one tuple.
func routeView(rng *rand.Rand, name string) expr.View {
	c := func() int { return rng.Intn(30) }
	rangeOn := func(attr string) string {
		lo := c()
		return fmt.Sprintf("%s >= %d && %s < %d", attr, lo, attr, lo+1+rng.Intn(12))
	}
	v := expr.View{Name: name}
	var where string
	switch rng.Intn(7) {
	case 0:
		v.Operands = []expr.Operand{{Rel: "R"}}
		where = rangeOn("A") + fmt.Sprintf(" && B < C + %d", rng.Intn(6))
	case 1:
		v.Operands = []expr.Operand{{Rel: "R"}}
		where = fmt.Sprintf("(%s) || (%s && C != %d)", rangeOn("A"), rangeOn("B"), c())
	case 2:
		v.Operands = []expr.Operand{{Rel: "S"}}
		where = rangeOn("D")
	case 3:
		v.Operands = []expr.Operand{{Rel: "R"}, {Rel: "S"}}
		where = "B = D && " + rangeOn("A")
		v.Project = []schema.Attribute{"A", "E"}
	case 4:
		v.Operands = []expr.Operand{{Rel: "R"}, {Rel: "S"}}
		where = fmt.Sprintf("C <= E + %d && A = D && %s", rng.Intn(4), rangeOn("E"))
	case 5:
		v.Operands = []expr.Operand{{Rel: "R", Alias: "x"}, {Rel: "R", Alias: "y"}}
		where = "x.B = y.A && " + rangeOn("x.A")
		v.Project = []schema.Attribute{"x.A", "y.C"}
	default:
		v.Operands = []expr.Operand{{Rel: "R"}, {Rel: "S"}}
		where = fmt.Sprintf("A = D + %d && D = E && %s", rng.Intn(3), rangeOn("E"))
		v.Project = []schema.Attribute{"B"}
	}
	v.Where = pred.MustParse(where)
	return v
}

// equiLinked reports whether every conjunct of b links all its operands
// by equalities (x = y, no offset), so an index can serve every join
// step whichever operand a row starts from.
func equiLinked(b *expr.Bound) bool {
	owner := func(v pred.Var) int { return b.OperandsOf(v)[0] }
	for _, conj := range b.Where.Conjuncts {
		linked := map[int]bool{0: true}
		for grew := true; grew; {
			grew = false
			for _, a := range conj.Atoms {
				if a.Op != pred.OpEQ || !a.HasRightVar() || a.C != 0 {
					continue
				}
				l, r := owner(a.Left), owner(a.Right)
				if linked[l] != linked[r] {
					linked[l], linked[r], grew = true, true, true
				}
			}
		}
		if len(linked) < len(b.Operands) {
			return false
		}
	}
	return true
}

// routeFleet creates R(A,B,C), S(D,E) and a random set of immediate
// views over them (routeView), most of them filtered, so the commit
// path routes their deltas through the relevance index.
func routeFleet(t *testing.T, rng *rand.Rand) (*Engine, []expr.View) {
	t.Helper()
	e := New()
	if err := e.CreateRelation("R", "A", "B", "C"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateRelation("S", "D", "E"); err != nil {
		t.Fatal(err)
	}
	var defs []expr.View
	for i, n := 0, 1+rng.Intn(14); i < n; i++ {
		v := routeView(rng, fmt.Sprintf("v%d", i))
		cfg := ViewConfig{Maint: diffeval.Options{Filter: rng.Intn(5) > 0}}
		if rng.Intn(6) == 0 {
			cfg.Policy = PolicyAdaptive
		}
		if err := e.CreateView(v, cfg); err != nil {
			t.Fatalf("%s (%s): %v", v.Name, v.Where, err)
		}
		defs = append(defs, v)
	}
	return e, defs
}

// routeRound draws one round of n transactions over R and S whose
// tuples are pairwise distinct, so the round commutes and may commit
// concurrently. live tracks which tuples are present.
func routeRound(rng *rand.Rand, live map[string]map[string]tuple.Tuple, n int) []*delta.Tx {
	used := make(map[string]bool)
	txs := make([]*delta.Tx, n)
	for i := range txs {
		tx := &delta.Tx{}
		for ops := 1 + rng.Intn(6); ops > 0; ops-- {
			rel, tu := "R", tuple.New(int64(rng.Intn(36)), int64(rng.Intn(36)), int64(rng.Intn(36)))
			if rng.Intn(4) == 0 {
				rel, tu = "S", tuple.New(int64(rng.Intn(36)), int64(rng.Intn(36)))
			}
			if len(live[rel]) > 0 && rng.Intn(3) == 0 {
				for _, old := range live[rel] { // delete some present tuple
					tu = old
					break
				}
			}
			key := rel + tu.Key()
			if used[key] {
				continue
			}
			used[key] = true
			if _, present := live[rel][tu.Key()]; present {
				tx.Delete(rel, tu)
				delete(live[rel], tu.Key())
			} else {
				tx.Insert(rel, tu)
				live[rel][tu.Key()] = tu
			}
		}
		txs[i] = tx
	}
	return txs
}

// TestRouteEngineMatchesMaterialize is the engine-level twin of the
// index's soundness oracle: random view sets, random transactions, and
// after every commit (every concurrent round, under group commit)
// every view must equal eval.Materialize from scratch — rows and §5.2
// counts — group commit off and on. Every
// consumer of the relevance index is in the fleet: immediate views;
// deferred filtered views (ondemand and maxstale), refreshed at random
// rounds and then held to the same oracle; and subscribed filtered
// views, whose alerts — one per transaction under group commit — must
// add up to the view. Under group commit the subscribed self-join also
// reads R as the clone an earlier member wrote, and probes that clone's
// own index. A differential view whose every join step an equi-join
// links reads no base row — commits, per-transaction deltas and
// refreshes alike, group commit on or off.
func TestRouteEngineMatchesMaterialize(t *testing.T) {
	indexedJoins := 0 // indexed views that took a join step, over all subtests
	defer func() {
		if indexedJoins == 0 {
			t.Error("no indexed view took a join step: the base-rows check is vacuous")
		}
	}()
	for _, group := range []bool{false, true} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("group=%v/seed=%d", group, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				e, defs := routeFleet(t, rng)
				defer e.StopScheduler()
				filtered := diffeval.Options{Filter: true}
				var deferred []expr.View
				for i, when := range []RefreshSpec{{Kind: RefreshOnDemand}, {Kind: RefreshMaxStaleness, Bound: time.Hour}} {
					v := routeView(rng, fmt.Sprintf("d%d", i))
					if err := e.CreateView(v, ViewConfig{When: when, Maint: filtered}); err != nil {
						t.Fatalf("%s (%s): %v", v.Name, v.Where, err)
					}
					deferred = append(deferred, v)
				}
				var alertMu sync.Mutex
				alerts := map[string]*relation.Counted{}
				// s2, a self-join, probes R's index on every row; under
				// group commit a member after one that wrote R probes the
				// index of that member's clone of R.
				subscribed := []expr.View{routeView(rng, "s0"), routeView(rng, "s1"), {
					Name:     "s2",
					Operands: []expr.Operand{{Rel: "R", Alias: "x"}, {Rel: "R", Alias: "y"}},
					Where:    pred.MustParse("x.B = y.A && x.A < 30"),
					Project:  []schema.Attribute{"x.A", "y.C"},
				}}
				for _, v := range subscribed {
					if err := e.CreateView(v, ViewConfig{Maint: filtered}); err != nil {
						t.Fatalf("%s (%s): %v", v.Name, v.Where, err)
					}
					data, err := e.View(v.Name)
					if err != nil {
						t.Fatal(err)
					}
					alerts[v.Name] = relation.NewCounted(data.Scheme())
					if _, err := e.Subscribe(v.Name, func(view string, run []relation.CountedTuple) {
						alertMu.Lock()
						defer alertMu.Unlock()
						if err := diffeval.Apply(alerts[view], &diffeval.ViewDelta{Rows: run}); err != nil {
							t.Error(err)
						}
					}); err != nil {
						t.Fatal(err)
					}
					defs = append(defs, v)
				}
				check := func(round int, def expr.View) {
					t.Helper()
					got, err := e.View(def.Name)
					if err != nil {
						t.Fatal(err)
					}
					if want := referenceView(t, e, def); !got.Equal(want) {
						t.Fatalf("round %d: view %s (%s) diverged from recomputation:\n got: %v\nwant: %v",
							round, def.Name, def.Where, got, want)
					}
				}

				// indexed are the differential views that probe an index
				// at every join step.
				var indexed []string
				for _, def := range slices.Concat(defs, deferred) {
					st := e.views[def.Name]
					if st.cfg.Policy == PolicyDifferential && equiLinked(st.bound) {
						indexed = append(indexed, def.Name)
					}
				}
				writers := 1
				if group {
					writers = 4
					e.EnableGroupCommit(writers, time.Millisecond, nil)
					defer e.DisableGroupCommit()
				}
				live := map[string]map[string]tuple.Tuple{"R": {}, "S": {}}
				for round := 0; round < 40; round++ {
					txs := routeRound(rng, live, writers)
					var wg sync.WaitGroup
					for _, tx := range txs {
						if tx.Len() == 0 {
							continue
						}
						wg.Add(1)
						go func(tx *delta.Tx) {
							defer wg.Done()
							if _, err := e.Execute(tx); err != nil {
								t.Errorf("round %d: %v", round, err)
							}
						}(tx)
					}
					wg.Wait()
					for _, def := range defs {
						check(round, def)
					}
					for _, name := range indexed {
						if st, _ := e.ViewStats(name); st.BaseRowsScanned != 0 {
							t.Fatalf("round %d: indexed view %s read %d base rows", round, name, st.BaseRowsScanned)
						}
					}
					alertMu.Lock()
					for name, sum := range alerts {
						if got, _ := e.View(name); !sum.Equal(got) {
							t.Fatalf("round %d: the alerts of %s add up to %v, the view holds %v", round, name, sum, got)
						}
					}
					alertMu.Unlock()
					switch rng.Intn(4) {
					case 0:
						if err := e.RefreshAll(); err != nil {
							t.Fatal(err)
						}
						for _, def := range deferred {
							check(round, def)
						}
					case 1:
						def := deferred[rng.Intn(len(deferred))]
						if err := e.RefreshView(def.Name); err != nil {
							t.Fatal(err)
						}
						check(round, def)
					}
				}
				for _, name := range indexed {
					if st, _ := e.ViewStats(name); st.JoinSteps > 0 {
						indexedJoins++
					}
				}
				// s2 probes R's index at every step — under group commit
				// also where an earlier member wrote R — so it is one of
				// the indexed views, which read no base row, and it must
				// have taken join steps.
				if st, _ := e.ViewStats("s2"); st.JoinSteps == 0 || !slices.Contains(indexed, "s2") {
					t.Errorf("group=%v: s2 took %d join steps, indexed views %v; want s2 among them, with join steps",
						group, st.JoinSteps, indexed)
				}
			})
		}
	}
}

// TestFilterDiscardMeansEmptyRun is §4's soundness at the engine: a
// commit the relevance index keeps wholly away from a filtered view
// (every verdict it owes the view is a discard) must leave the same
// view, maintained without the filter, an empty delta run: no
// notification and no changed view tuple.
func TestFilterDiscardMeansEmptyRun(t *testing.T) {
	discards := 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		if err := e.CreateRelation("R", "A", "B", "C"); err != nil {
			t.Fatal(err)
		}
		if err := e.CreateRelation("S", "D", "E"); err != nil {
			t.Fatal(err)
		}
		var defs []expr.View
		fired := map[string]int{}
		for i := 0; i < 8; i++ {
			v := routeView(rng, fmt.Sprintf("v%d", i))
			for _, filter := range []bool{true, false} {
				w := v
				if w.Name += "u"; filter {
					w.Name = v.Name + "f"
				}
				if err := e.CreateView(w, ViewConfig{Maint: diffeval.Options{Filter: filter}}); err != nil {
					t.Fatalf("%s (%s): %v", w.Name, w.Where, err)
				}
				if _, err := e.Subscribe(w.Name, func(view string, run []relation.CountedTuple) { fired[view]++ }); err != nil {
					t.Fatal(err)
				}
			}
			defs = append(defs, v)
		}
		live := map[string]map[string]tuple.Tuple{"R": {}, "S": {}}
		for round := 0; round < 40; round++ {
			tx := routeRound(rng, live, 1)[0]
			before := map[string]ViewStats{}
			for _, v := range defs {
				before[v.Name+"f"], _ = e.ViewStats(v.Name + "f")
				before[v.Name+"u"], _ = e.ViewStats(v.Name + "u")
			}
			firedBefore := maps.Clone(fired)
			res, err := e.Execute(tx)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range defs {
				checked := 0
				for _, op := range v.Operands {
					checked += updateOf(res.Updates, op.Rel).Size()
				}
				f, _ := e.ViewStats(v.Name + "f")
				if checked == 0 || f.FilteredOut-before[v.Name+"f"].FilteredOut != checked {
					continue // some tuple reached the view, or none was routed to it
				}
				discards++
				u, _ := e.ViewStats(v.Name + "u")
				bu := before[v.Name+"u"]
				if fired[v.Name+"u"] != firedBefore[v.Name+"u"] || u.DeltaInserts != bu.DeltaInserts || u.DeltaDeletes != bu.DeltaDeletes {
					t.Errorf("seed %d round %d: %s (%s) discarded all %d verdicts of %v, yet its unfiltered twin changed (+%d/-%d)",
						seed, round, v.Name, v.Where, checked, res.Updates,
						u.DeltaInserts-bu.DeltaInserts, u.DeltaDeletes-bu.DeltaDeletes)
				}
			}
		}
	}
	if discards == 0 {
		t.Fatal("no commit was discarded for a whole view: the check is vacuous")
	}
	t.Logf("%d (commit, view) pairs discarded whole", discards)
}

// lazyProvider serves diffeval an index on every equi-join column it
// asks for, built on demand over the instances the computation reads,
// as the engine's relations carry theirs.
type lazyProvider struct {
	base  map[string]*relation.Relation
	built map[string]*relation.Index
}

func (p *lazyProvider) Index(rel string, pos int) *relation.Index {
	key := fmt.Sprintf("%s/%d", rel, pos)
	if ix, ok := p.built[key]; ok {
		return ix
	}
	ix, err := relation.BuildIndex(p.base[rel], pos)
	if err != nil {
		panic(err)
	}
	p.built[key] = ix
	return ix
}

// TestRouteCountContract pins what the benchmark's harness checks from
// outside: the filter counters count one verdict per (tuple, filtered
// view operand) — including the verdicts the relevance index reaches
// without running a view's test — and every other per-view counter
// advances as if each view had been maintained on its own. The
// reference is exactly that: one diffeval.Maintainer per view, run
// serially with its own filter (ComputeDeltaWith). It holds wherever a
// delta meets the index:
//   - immediate: each commit's net updates, one transaction per commit;
//   - deferred: each refresh's backlog, so a deferred view's verdicts
//     are counted at refresh, over the change composed since the last
//     one (a tuple inserted and deleted in between is never checked);
//   - subscribed: each transaction's own updates inside a group of
//     three, as per-transaction alerts need.
func TestRouteCountContract(t *testing.T) {
	for _, mode := range []string{"immediate", "deferred", "subscribed"} {
		t.Run(mode, func(t *testing.T) { routeCountContract(t, mode) })
	}
}

func routeCountContract(t *testing.T, mode string) {
	e := New()
	if err := e.CreateRelation("R", "K", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateRelation("S", "SB", "W"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e.SetObs(reg, nil)

	const sels = 12
	var defs []expr.View
	for i := 0; i < sels; i++ {
		defs = append(defs, expr.View{
			Name:     fmt.Sprintf("sel%d", i),
			Operands: []expr.Operand{{Rel: "R"}},
			Where:    pred.MustParse(fmt.Sprintf("K >= %d && K < %d && A < B + 5", i*10, (i+1)*10)),
		})
	}
	defs = append(defs,
		expr.View{Name: "join", Operands: []expr.Operand{{Rel: "R"}, {Rel: "S"}},
			Where: pred.MustParse("B = SB && K >= 20 && K < 70"), Project: []schema.Attribute{"K", "W"}},
		expr.View{Name: "self", Operands: []expr.Operand{{Rel: "R", Alias: "x"}, {Rel: "R", Alias: "y"}},
			Where: pred.MustParse("x.A = y.B && x.K < 30 && y.K >= 90")},
	)
	filter := diffeval.Options{Filter: true}
	cfg := ViewConfig{Maint: filter}
	if mode == "deferred" {
		cfg.When = RefreshSpec{Kind: RefreshOnDemand}
	}
	for _, def := range defs {
		if err := e.CreateView(def, cfg); err != nil {
			t.Fatal(err)
		}
		if mode == "subscribed" {
			if _, err := e.Subscribe(def.Name, func(string, []relation.CountedTuple) {}); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := func() map[string]*relation.Relation {
		out := map[string]*relation.Relation{}
		for _, name := range []string{"R", "S"} {
			r, err := e.Relation(name)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = r
		}
		return out
	}

	type reference struct {
		m                 *diffeval.Maintainer
		data              *relation.Counted
		want              ViewStats
		discarded, passed int
		// Deferred views: the nets since the last refresh, and the base
		// that refresh left the view at.
		backlog [][]delta.Update
		since   map[string]*relation.Relation
	}
	refs := make([]*reference, len(defs))
	for i, def := range defs {
		b, err := expr.Bind(def, e.Scheme())
		if err != nil {
			t.Fatal(err)
		}
		m, err := diffeval.NewMaintainer(b, filter)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = &reference{m: m, data: relation.NewCounted(e.views[def.Name].data.Scheme()), since: base()}
	}
	reads := func(ref *reference, updates []delta.Update) bool {
		for _, op := range ref.m.Bound().Operands {
			for _, u := range updates {
				if u.Rel == op.Rel {
					return true
				}
			}
		}
		return false
	}
	// maintain is one reference pass: the view's own §4 filter over
	// updates, then §5 against the instances in insts.
	maintain := func(ref *reference, insts map[string]*relation.Relation, updates []delta.Update, prov diffeval.IndexProvider) *diffeval.ViewDelta {
		b := ref.m.Bound()
		ops := make([]*relation.Relation, len(b.Operands))
		for i, op := range b.Operands {
			ops[i] = insts[op.Rel]
		}
		d, err := ref.m.ComputeDeltaWith(ops, updates, prov)
		if err != nil {
			t.Fatal(err)
		}
		if err := diffeval.Apply(ref.data, d); err != nil {
			t.Fatal(err)
		}
		ref.want.Refreshes++
		ref.want.RowsEvaluated += d.Stats.RowsEvaluated
		ref.want.JoinSteps += d.Stats.JoinSteps
		ref.want.BaseRowsScanned += d.Stats.BaseRowsScanned
		ref.want.FilteredOut += d.Stats.FilteredOut
		ref.want.DeltaInserts += d.Stats.DeltaInserts
		ref.want.DeltaDeletes += d.Stats.DeltaDeletes
		ref.discarded += d.Stats.FilteredOut
		ref.passed += d.Stats.FilterChecked - d.Stats.FilteredOut
		return d
	}
	// refresh mirrors a deferred view's refresh: one pass over the
	// composed backlog against the base the last refresh left, probing
	// indexes over that state. A join view's refresh reads no base row,
	// whether its backlog touched one operand or both; without the
	// indexes, the same one-sided refresh does.
	sides := map[int]int{} // join views' refreshes with join steps, by modified operands
	refresh := func(ref *reference) {
		if len(ref.backlog) == 0 {
			return
		}
		composed, err := delta.ComposeTxs(ref.backlog)
		if err != nil {
			t.Fatal(err)
		}
		prov := &lazyProvider{base: ref.since, built: map[string]*relation.Index{}}
		d := maintain(ref, ref.since, composed, prov)
		if b := ref.m.Bound(); len(b.Operands) == 2 && d.Stats.JoinSteps > 0 {
			sides[d.Stats.ModifiedOperands]++
			if d.Stats.BaseRowsScanned != 0 {
				t.Errorf("%s: a refresh with %d modified operands read %d base rows",
					b.Name, d.Stats.ModifiedOperands, d.Stats.BaseRowsScanned)
			}
			ops := []*relation.Relation{ref.since[b.Operands[0].Rel], ref.since[b.Operands[1].Rel]}
			unindexed, err := ref.m.ComputeDeltaWith(ops, composed, noIndexes{})
			if err != nil {
				t.Fatal(err)
			}
			if d.Stats.ModifiedOperands == 1 && unindexed.Stats.BaseRowsScanned == 0 {
				t.Errorf("%s: the same refresh without indexes read no base row", b.Name)
			}
		}
		ref.backlog, ref.since, ref.want.PendingTx = nil, base(), 0
	}

	rng := rand.New(rand.NewSource(3))
	live := map[string]map[string]tuple.Tuple{"R": {}, "S": {}}
	// Keys run past every view's range, so most tuples reach no view.
	draw := func(rel string) tuple.Tuple {
		if rel == "S" {
			return tuple.New(int64(rng.Intn(12)), int64(rng.Intn(50)))
		}
		return tuple.New(int64(rng.Intn(600)), int64(rng.Intn(12)), int64(rng.Intn(12)))
	}
	batch := 1
	if mode == "subscribed" {
		batch = 3
	}
	// commit runs txs through the engine and the reference alike.
	commit := func(n int, txs []*delta.Tx) {
		// Each member's net effect against the overlay of its
		// predecessors, as the engine computes it.
		pre := base()
		work := map[string]*relation.Relation{}
		lookup := func(rel string) (*relation.Relation, bool) {
			if r, ok := work[rel]; ok {
				return r, true
			}
			r, ok := pre[rel]
			return r, ok
		}
		refreshed, deferred := 0, 0
		for _, tx := range txs {
			updates, err := tx.Net(lookup)
			if err != nil {
				t.Fatal(err)
			}
			insts := map[string]*relation.Relation{}
			for rel := range pre {
				insts[rel], _ = lookup(rel)
			}
			prov := &lazyProvider{base: insts, built: map[string]*relation.Index{}}
			for _, ref := range refs {
				if !reads(ref, updates) {
					continue
				}
				ref.want.Transactions++
				if mode == "deferred" {
					ref.backlog = append(ref.backlog, updates)
					ref.want.PendingTx++
					deferred++
				} else {
					maintain(ref, insts, updates, prov)
					refreshed++
				}
			}
			for _, u := range updates {
				if _, ok := work[u.Rel]; !ok {
					work[u.Rel] = pre[u.Rel].Clone()
				}
				if err := u.Apply(work[u.Rel]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if batch > 1 {
			if err := e.ExecuteReplicated(txs); err != nil {
				t.Fatal(err)
			}
		} else if res := exec(t, e, txs[0]); res.ViewsRefreshed != refreshed || res.ViewsDeferred != deferred {
			t.Fatalf("tx %d: ViewsRefreshed/ViewsDeferred = %d/%d, want %d/%d",
				n, res.ViewsRefreshed, res.ViewsDeferred, refreshed, deferred)
		}
	}
	for n := 0; n < 120; n += batch {
		txs := make([]*delta.Tx, batch)
		for i := range txs {
			tx := &delta.Tx{}
			rel := "R"
			if (n+i)%5 == 4 {
				rel = "S" // reaches only the join view
			}
			for m := 0; m < 6; m++ {
				tu := draw(rel)
				if _, present := live[rel][tu.Key()]; present {
					tx.Delete(rel, tu)
					delete(live[rel], tu.Key())
				} else {
					tx.Insert(rel, tu)
					live[rel][tu.Key()] = tu
				}
			}
			txs[i] = tx
		}
		commit(n, txs)
		if mode == "deferred" && n%9 == 8 {
			if i := rng.Intn(len(refs) + 1); i < len(refs) {
				if err := e.RefreshView(defs[i].Name); err != nil {
					t.Fatal(err)
				}
				refresh(refs[i])
			} else {
				if err := e.RefreshAll(); err != nil {
					t.Fatal(err)
				}
				for _, ref := range refs {
					refresh(ref)
				}
			}
		}
	}
	if mode == "deferred" {
		// A one-sided backlog: after a refresh only S changes, so the
		// join view's refresh probes R's index.
		if err := e.RefreshAll(); err != nil {
			t.Fatal(err)
		}
		for _, ref := range refs {
			refresh(ref)
		}
		tx := &delta.Tx{}
		for b := int64(0); b < 12; b++ {
			tu := tuple.New(b, 1000+b)
			tx.Insert("S", tu)
			live["S"][tu.Key()] = tu
		}
		commit(120, []*delta.Tx{tx})
		if err := e.RefreshAll(); err != nil {
			t.Fatal(err)
		}
		for _, ref := range refs {
			refresh(ref)
		}
		if sides[1] == 0 || sides[2] == 0 {
			t.Errorf("join views' refreshes by modified operands: %v; want one- and two-sided ones", sides)
		}
	}

	var sumDiscarded, sumPassed, wantDiscarded, wantPassed int
	for i, def := range defs {
		ref := refs[i]
		got, err := e.ViewStats(def.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref.want {
			t.Errorf("%s: ViewStats = %+v\nwant %+v", def.Name, got, ref.want)
		}
		labels := map[string]string{"view": def.Name}
		discarded := int(series(t, reg, "mview_filter_discarded_total", labels).Value)
		passed := int(series(t, reg, "mview_filter_passed_total", labels).Value)
		if discarded != ref.discarded || passed != ref.passed {
			t.Errorf("%s: filter counters discarded/passed = %d/%d, want %d/%d",
				def.Name, discarded, passed, ref.discarded, ref.passed)
		}
		// A subscribed view's group installs its per-transaction deltas
		// as one refresh of the histogram.
		if mode != "subscribed" && ref.want.Refreshes > 0 {
			if n := int(refreshCount(t, reg, def.Name, "differential")); n != ref.want.Refreshes {
				t.Errorf("%s: refresh histogram count = %d, want %d", def.Name, n, ref.want.Refreshes)
			}
		}
		sumDiscarded, sumPassed = sumDiscarded+discarded, sumPassed+passed
		wantDiscarded, wantPassed = wantDiscarded+ref.discarded, wantPassed+ref.passed
		view, err := e.View(def.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !view.Equal(ref.data) {
			t.Errorf("%s: view diverged from the serial reference", def.Name)
		}
	}
	if mode == "deferred" {
		// Pinned by hand. join and self are 2-operand views, refreshed
		// three times each with k = 2, 2 and 1 modified operands: 3 + 3
		// + 1 truth-table rows. Every row's first delta slot holds a
		// tuple the §4 routing passed, which satisfies that operand's
		// own atoms, so each row reaches its one join step: 7 steps per
		// view.
		for i, def := range defs {
			if def.Name == "join" || def.Name == "self" {
				if got := refs[i].want.JoinSteps; got != 7 {
					t.Errorf("%s: JoinSteps = %d, want 7", def.Name, got)
				}
			}
		}
	}
	if sumDiscarded != wantDiscarded || sumPassed != wantPassed {
		t.Errorf("summed discarded/passed = %d/%d, want %d/%d", sumDiscarded, sumPassed, wantDiscarded, wantPassed)
	}
	if wantPassed == 0 || wantDiscarded < 10*wantPassed {
		t.Errorf("workload should discard most verdicts: %d discarded, %d passed", wantDiscarded, wantPassed)
	}
}

// noIndexes is a diffeval.IndexProvider that never has an index, so
// every join step goes through a transient hash table.
type noIndexes struct{}

func (noIndexes) Index(string, int) *relation.Index { return nil }

// TestRouteMaintSpanAttributes checks the commit.maint span says what
// the routing did — and that a view nothing reached gets no maint.task
// span of its own.
func TestRouteMaintSpanAttributes(t *testing.T) {
	e := New()
	if err := e.CreateRelation("R", "K", "A"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		def := expr.View{Name: fmt.Sprintf("v%d", i), Operands: []expr.Operand{{Rel: "R"}},
			Where: pred.MustParse(fmt.Sprintf("K >= %d && K < %d", i*10, (i+1)*10))}
		if err := e.CreateView(def, ViewConfig{Maint: diffeval.Options{Filter: true}}); err != nil {
			t.Fatal(err)
		}
	}
	tr := &obs.CollectingTracer{}
	e.SetObs(obs.NewRegistry(), tr)
	var tx delta.Tx
	tx.Insert("R", tuple.New(5, 1)).Insert("R", tuple.New(500, 1)).Insert("R", tuple.New(501, 1))
	exec(t, e, &tx)

	tasks := 0
	var maint *obs.CollectedSpan
	for i, s := range tr.Spans {
		switch s.Name {
		case "commit.maint":
			maint = &tr.Spans[i]
		case "maint.task":
			tasks++
		}
	}
	if maint == nil {
		t.Fatal("no commit.maint span")
	}
	got := map[string]any{}
	for _, kv := range maint.KVs {
		got[kv.K] = kv.V
	}
	// Three tuples; only (5,1) has a candidate (v0), which it reaches.
	for k, want := range map[string]int{"tuples": 3, "candidates": 1, "routed_views": 1} {
		if got[k] != want {
			t.Errorf("commit.maint %s = %v, want %d (attrs %v)", k, got[k], want, got)
		}
	}
	if tasks != 1 {
		t.Errorf("maint.task spans = %d, want 1 (only v0 was reached)", tasks)
	}
}
