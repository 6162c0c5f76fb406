package db

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"mview/internal/delta"
	"mview/internal/expr"
	"mview/internal/obs"
	"mview/internal/relation"
	"mview/internal/tuple"
)

// buildGroupFleet creates an engine with one relation and one R_i ⋈ S
// view per writer (mixed modes/policies) plus a shared, read-only S.
// Per-writer relations keep concurrent streams commutative, so a
// serial oracle replaying the same transactions in any order must
// produce identical state.
func buildGroupFleet(t *testing.T, writers int) (*Engine, []expr.View) {
	t.Helper()
	e := New()
	defs := make([]expr.View, writers)
	for i := 0; i < writers; i++ {
		if err := e.CreateRelation(fmt.Sprintf("R%d", i), "A", "B"); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CreateRelation("S", "B", "C"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writers; i++ {
		v, err := expr.NaturalJoin(fmt.Sprintf("v%d", i), e.Scheme(), fmt.Sprintf("R%d", i), "S")
		if err != nil {
			t.Fatal(err)
		}
		defs[i] = v
		cfg := ViewConfig{}
		switch i % 3 {
		case 1:
			cfg.When.Kind = RefreshOnDemand
		case 2:
			cfg.Policy = PolicyAdaptive
		}
		if err := e.CreateView(v, cfg); err != nil {
			t.Fatal(err)
		}
	}
	var seed delta.Tx
	for b := 0; b < 6; b++ {
		seed.Insert("S", tuple.New(int64(b), int64(100+b)))
	}
	exec(t, e, &seed)
	return e, defs
}

// genStreams builds per-writer transaction streams with churn: tuples
// inserted early are deleted later, so batches formed at commit time
// exercise §6 insert/delete cancellation.
func genStreams(writers, rounds int) [][]*delta.Tx {
	streams := make([][]*delta.Tx, writers)
	for w := 0; w < writers; w++ {
		rng := rand.New(rand.NewSource(int64(w + 1)))
		rel := fmt.Sprintf("R%d", w)
		var live []tuple.Tuple
		for r := 0; r < rounds; r++ {
			tx := &delta.Tx{}
			seen := make(map[string]bool)
			for n := 1 + rng.Intn(3); n > 0; n-- {
				if len(live) > 0 && rng.Intn(10) < 4 {
					i := rng.Intn(len(live))
					tu := live[i]
					if seen[tu.Key()] {
						continue
					}
					seen[tu.Key()] = true
					tx.Delete(rel, tu)
					live = append(live[:i], live[i+1:]...)
					continue
				}
				tu := tuple.New(int64(rng.Intn(40)), int64(rng.Intn(6)))
				dup := seen[tu.Key()]
				for _, x := range live {
					if x.Key() == tu.Key() {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				seen[tu.Key()] = true
				tx.Insert(rel, tu)
				live = append(live, tu)
			}
			if tx.Len() > 0 {
				streams[w] = append(streams[w], tx)
			}
		}
	}
	return streams
}

// TestGroupCommitMatchesSerialOracle drives N concurrent writers
// through the group-commit scheduler and replays the identical streams
// serially on an oracle engine: final base relations, view contents,
// and the touch counters (Transactions, PendingTx) must agree, and
// every view must equal a full recompute. Run with -race.
func TestGroupCommitMatchesSerialOracle(t *testing.T) {
	const writers, rounds = 8, 40
	grp, defs := buildGroupFleet(t, writers)
	oracle, _ := buildGroupFleet(t, writers)
	reg := obs.NewRegistry()
	grp.SetObs(reg, nil)
	grp.EnableGroupCommit(writers, 2*time.Millisecond, nil)
	defer grp.DisableGroupCommit()

	streams := genStreams(writers, rounds)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, tx := range streams[w] {
				if _, err := grp.Execute(tx); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < writers; w++ {
		for _, tx := range streams[w] {
			if _, err := oracle.Execute(tx); err != nil {
				t.Fatalf("oracle writer %d: %v", w, err)
			}
		}
	}

	for w := 0; w < writers; w++ {
		rel := fmt.Sprintf("R%d", w)
		rg, _ := grp.Relation(rel)
		ro, _ := oracle.Relation(rel)
		if !rg.Equal(ro) {
			t.Errorf("%s diverged:\n group: %v\n oracle: %v", rel, rg, ro)
		}
	}
	for w := 0; w < writers; w++ {
		name := fmt.Sprintf("v%d", w)
		sg, _ := grp.ViewStats(name)
		so, _ := oracle.ViewStats(name)
		if sg.Transactions != so.Transactions {
			t.Errorf("%s Transactions = %d, oracle %d", name, sg.Transactions, so.Transactions)
		}
		if sg.PendingTx != so.PendingTx {
			t.Errorf("%s PendingTx = %d, oracle %d", name, sg.PendingTx, so.PendingTx)
		}
	}
	if err := grp.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	if err := oracle.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		name := fmt.Sprintf("v%d", w)
		vg, _ := grp.View(name)
		vo, _ := oracle.View(name)
		if !vg.Equal(vo) {
			t.Errorf("%s diverged:\n group: %v\n oracle: %v", name, vg, vo)
		}
		if rec := referenceView(t, grp, defs[w]); !vg.Equal(rec) {
			t.Errorf("%s diverged from recompute oracle:\n view: %v\n oracle: %v", name, vg, rec)
		}
	}

	// The whole point: at least one batch actually coalesced.
	for _, s := range reg.Snapshot() {
		if s.Name == "mview_group_commit_size" {
			var solo int64
			for _, b := range s.Buckets {
				if b.LE == "1" {
					solo = b.Count
				}
			}
			if s.Count == 0 {
				t.Error("mview_group_commit_size never observed a batch")
			} else if solo == s.Count {
				t.Logf("warning: all %d batches were solo; concurrency never coalesced", s.Count)
			}
			return
		}
	}
	t.Error("mview_group_commit_size not in registry snapshot")
}

// TestGroupBatchExcludesFailingTx pins per-transaction atomicity
// inside a group, deterministically (white-box: the batch runner is
// driven directly). One member's delete cannot validate against a
// corrupted view; the shared maintenance pass fails, the scheduler
// retries each member solo, and only the poisoned transaction errors.
func TestGroupBatchExcludesFailingTx(t *testing.T) {
	e := newEngine(t) // R, S
	if err := e.CreateRelation("T", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateView(joinViewDef(t, e, "good"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	bad, err := expr.NaturalJoin("bad", e.Scheme(), "T", "S")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateView(bad, ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	var seed delta.Tx
	seed.Insert("R", tuple.New(1, 2)).Insert("S", tuple.New(2, 10)).Insert("T", tuple.New(7, 2))
	exec(t, e, &seed)
	// Corrupt "bad" so the delete of (7,2) cannot fold.
	if err := e.views["bad"].data.Add(tuple.New(7, 2, 10), -1); err != nil {
		t.Fatal(err)
	}

	okTx, badTx, unknownTx := &delta.Tx{}, &delta.Tx{}, &delta.Tx{}
	okTx.Insert("R", tuple.New(3, 2))
	badTx.Delete("T", tuple.New(7, 2))
	unknownTx.Insert("NOPE", tuple.New(1, 1))

	g := &group{e: e, maxBatch: 8}
	reqs := []*groupReq{
		{tx: okTx, done: make(chan struct{})},
		{tx: badTx, done: make(chan struct{})},
		{tx: unknownTx, done: make(chan struct{})},
	}
	g.run(reqs, 0)

	if reqs[0].err != nil {
		t.Errorf("healthy tx failed: %v", reqs[0].err)
	}
	if reqs[1].err == nil || !strings.Contains(reqs[1].err.Error(), "derivations") {
		t.Errorf("poisoned tx err = %v, want delta validation failure", reqs[1].err)
	}
	if reqs[2].err == nil || !strings.Contains(reqs[2].err.Error(), "unknown relation") {
		t.Errorf("unknown-relation tx err = %v", reqs[2].err)
	}

	// The healthy member committed: base applied, view refreshed.
	r, _ := e.Relation("R")
	if !r.Has(tuple.New(3, 2)) {
		t.Errorf("healthy tx not applied to R: %v", r)
	}
	v, _ := e.View("good")
	if !v.Has(tuple.New(3, 2, 10)) {
		t.Errorf("healthy tx not reflected in view: %v", v)
	}
	// The poisoned member did not: T unchanged.
	tr, _ := e.Relation("T")
	if !tr.Has(tuple.New(7, 2)) {
		t.Errorf("poisoned tx mutated T: %v", tr)
	}
}

// TestGroupCommitPerTxNotifications verifies subscriber granularity:
// with group commit coalescing many concurrent single-insert
// transactions, a subscriber still receives one alert per transaction
// whose delta reaches the view — never one blended alert per group.
func TestGroupCommitPerTxNotifications(t *testing.T) {
	e := newEngine(t)
	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{}); err != nil {
		t.Fatal(err)
	}
	var seed delta.Tx
	seed.Insert("S", tuple.New(2, 10))
	exec(t, e, &seed)

	var mu sync.Mutex
	var alerts int
	total := 0
	if _, err := e.Subscribe("v", func(view string, run []relation.CountedTuple) {
		mu.Lock()
		alerts++
		for _, r := range run {
			total += int(r.Count)
		}
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	e.EnableGroupCommit(16, 2*time.Millisecond, nil)
	defer e.DisableGroupCommit()

	const writers, per = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tx := &delta.Tx{}
				tx.Insert("R", tuple.New(int64(w*100+i), 2))
				if _, err := e.Execute(tx); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if alerts != writers*per {
		t.Errorf("subscriber got %d alerts for %d transactions, want per-tx granularity", alerts, writers*per)
	}
	if total != writers*per {
		t.Errorf("folded alert payloads sum to %d net inserts, want %d", total, writers*per)
	}
	v, _ := e.View("v")
	if v.Len() != writers*per {
		t.Errorf("view has %d rows, want %d", v.Len(), writers*per)
	}
}

// TestDisableGroupCommitDrains: disabling the scheduler commits every
// queued transaction before returning, and later Executes go serial.
func TestDisableGroupCommitDrains(t *testing.T) {
	e := newEngine(t)
	var seed delta.Tx
	seed.Insert("S", tuple.New(2, 10))
	exec(t, e, &seed)
	e.EnableGroupCommit(4, 50*time.Millisecond, nil)

	const n = 12
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := &delta.Tx{}
			tx.Insert("R", tuple.New(int64(i), 2))
			if _, err := e.Execute(tx); err != nil {
				t.Errorf("writer %d: %v", i, err)
			}
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	e.DisableGroupCommit()
	wg.Wait()

	if e.GroupCommitEnabled() {
		t.Error("scheduler still enabled after DisableGroupCommit")
	}
	tx := &delta.Tx{}
	tx.Insert("R", tuple.New(1000, 2))
	exec(t, e, tx)
	r, _ := e.Relation("R")
	if r.Len() != n+1 {
		t.Errorf("R has %d rows after drain + serial commit, want %d", r.Len(), n+1)
	}
}
