package mview

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// sortedRows canonicalizes a row set for comparison: shard layout (and
// hence iteration order) is an engine detail that must never leak into
// the observable contents.
func sortedRows(rows [][]int64) [][]int64 {
	out := append([][]int64(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

func viewKeys(t *testing.T, d *DB, name string) []string {
	t.Helper()
	rows, err := d.View(name)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = fmt.Sprint(r.Values)
	}
	sort.Strings(keys)
	return keys
}

// compareDBs asserts two databases hold identical relations and views,
// regardless of how either one is sharded.
func compareDBs(t *testing.T, got, want *DB, rels, views []string) {
	t.Helper()
	for _, rel := range rels {
		g, err := got.Rows(rel)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.Rows(rel)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(sortedRows(g)) != fmt.Sprint(sortedRows(w)) {
			t.Errorf("relation %s diverged:\n got:  %v\n want: %v", rel, sortedRows(g), sortedRows(w))
		}
	}
	for _, v := range views {
		g, w := viewKeys(t, got, v), viewKeys(t, want, v)
		if fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("view %s diverged:\n got:  %v\n want: %v", v, g, w)
		}
	}
}

// TestDurableShardedRecovery runs the same randomized workload through
// a sharded durable database and an unsharded in-memory reference,
// checkpoints mid-stream, crashes, and recovers under a DIFFERENT
// shard count. The shard count is engine configuration, not persisted
// state: checkpoint + log replay must reconstruct identical contents
// at any sharding.
func TestDurableShardedRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	ref := Open()

	setup := func(db *DB) {
		if err := db.CreateRelation("r", "A", "B"); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateRelation("s", "C", "D"); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateView("v", ViewSpec{
			From:  []string{"r", "s"},
			Where: "A < 40 && C > 5 && B = C",
		}, WithFilter()); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateView("sel", ViewSpec{From: []string{"r"}, Where: "A < 50"}); err != nil {
			t.Fatal(err)
		}
	}
	setup(d)
	setup(ref)

	apply := func(ops ...Op) {
		t.Helper()
		if _, err := d.Exec(ops...); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Exec(ops...); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(11))
	live := make(map[[2]int64]bool)
	churn := func(n int) {
		for i := 0; i < n; i++ {
			if len(live) > 40 && rng.Intn(2) == 0 {
				for k := range live {
					apply(Delete("r", k[0], k[1]))
					delete(live, k)
					break
				}
				continue
			}
			k := [2]int64{int64(rng.Intn(100)), int64(rng.Intn(30))}
			if !live[k] {
				apply(Insert("r", k[0], k[1]))
				live[k] = true
			}
		}
	}
	churn(60)
	for c := 0; c < 12; c++ {
		apply(Insert("s", int64(c), int64(100+c)))
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	churn(60) // post-checkpoint writes live only in the log
	compareDBs(t, d, ref, []string{"r", "s"}, []string{"v", "sel"})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover resharded: checkpoint (written at 4 shards) + log replay
	// land in an 8-shard engine.
	d2, err := OpenDurable(dir, WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.Shards(); got != 8 {
		t.Fatalf("recovered Shards() = %d, want 8", got)
	}
	compareDBs(t, d2, ref, []string{"r", "s"}, []string{"v", "sel"})
	// The resharded database keeps maintaining views correctly.
	if _, err := d2.Exec(Insert("r", 3, 7), Insert("s", 7, 200)); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Exec(Insert("r", 3, 7), Insert("s", 7, 200)); err != nil {
		t.Fatal(err)
	}
	compareDBs(t, d2, ref, []string{"r", "s"}, []string{"v", "sel"})
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	// Default recovery (no options) falls back to a monolithic engine.
	d3, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if got := d3.Shards(); got != 1 {
		t.Fatalf("default recovered Shards() = %d, want 1", got)
	}
	compareDBs(t, d3, ref, []string{"r", "s"}, []string{"v", "sel"})
}

// TestOpenOptionEquivalence pins that the functional options configure
// the machinery they name.
func TestOpenOptionEquivalence(t *testing.T) {
	optDB := Open(WithMaintWorkers(3), WithShards(4), WithGroupCommit(8, 0))
	defer optDB.Close()
	if got := optDB.MaintWorkers(); got != 3 {
		t.Errorf("MaintWorkers() = %d, want 3", got)
	}
	if !optDB.GroupCommitEnabled() {
		t.Error("GroupCommitEnabled() = false, want true")
	}
	if got := optDB.Shards(); got != 4 {
		t.Errorf("Shards() = %d, want 4", got)
	}
}
