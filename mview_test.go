package mview

import (
	"fmt"
	"strings"
	"testing"
)

func openExample41(t *testing.T) *DB {
	t.Helper()
	db := Open()
	if err := db.CreateRelation("r", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateRelation("s", "C", "D"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("v", ViewSpec{
		From:   []string{"r", "s"},
		Where:  "A < 10 && C > 5 && B = C",
		Select: []string{"A", "D"},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestQuickstartFlow(t *testing.T) {
	db := openExample41(t)
	info, err := db.Exec(Insert("r", 9, 10), Insert("s", 10, 20))
	if err != nil {
		t.Fatal(err)
	}
	if info.Inserted != 2 || info.ViewsRefreshed != 1 {
		t.Errorf("TxInfo = %+v", info)
	}
	rows, err := db.View("v")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Values[0] != 9 || rows[0].Values[1] != 20 || rows[0].Count != 1 {
		t.Errorf("rows = %+v", rows)
	}
	schema, err := db.ViewSchema("v")
	if err != nil {
		t.Fatal(err)
	}
	if len(schema) != 2 || schema[0] != "r.A" || schema[1] != "s.D" {
		t.Errorf("schema = %v", schema)
	}
}

func TestRelevantAPI(t *testing.T) {
	db := openExample41(t)
	// The paper's Example 4.1 verdicts through the public API.
	rel, err := db.Relevant("v", "r", 9, 10)
	if err != nil || !rel {
		t.Errorf("Relevant(9,10) = %v, %v", rel, err)
	}
	rel, err = db.Relevant("v", "r", 11, 10)
	if err != nil || rel {
		t.Errorf("Relevant(11,10) = %v, %v", rel, err)
	}
	if _, err := db.Relevant("v", "nope", 1); err == nil {
		t.Error("unknown relation must fail")
	}
	if _, err := db.Relevant("nope", "r", 1); err == nil {
		t.Error("unknown view must fail")
	}
}

func TestDeferredAndStats(t *testing.T) {
	db := openExample41(t)
	if err := db.CreateView("snap", ViewSpec{From: []string{"r"}, Where: "A < 5"}, OnDemand(), WithFilter()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(Insert("r", 1, 1), Insert("r", 99, 1)); err != nil {
		t.Fatal(err)
	}
	rows, _ := db.View("snap")
	if len(rows) != 0 {
		t.Errorf("deferred view should be stale: %+v", rows)
	}
	st, err := db.Stats("snap")
	if err != nil || st.PendingTx != 1 {
		t.Errorf("stats = %+v, %v", st, err)
	}
	if err := db.Refresh("snap"); err != nil {
		t.Fatal(err)
	}
	rows, _ = db.View("snap")
	if len(rows) != 1 || rows[0].Values[0] != 1 {
		t.Errorf("after refresh: %+v", rows)
	}
	st, _ = db.Stats("snap")
	if st.FilteredOut != 1 {
		t.Errorf("filter should have dropped (99,1): %+v", st)
	}
	if err := db.RefreshAll(); err != nil {
		t.Fatal(err)
	}
}

func TestNetChurnInvisible(t *testing.T) {
	db := openExample41(t)
	info, err := db.Exec(Insert("r", 1, 1), Delete("r", 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if info.Inserted != 0 || info.Deleted != 0 || info.ViewsRefreshed != 0 {
		t.Errorf("churn leaked: %+v", info)
	}
}

func TestCreateJoinView(t *testing.T) {
	db := Open()
	_ = db.CreateRelation("r", "A", "B")
	_ = db.CreateRelation("s", "B", "C")
	if err := db.CreateJoinView("j", []string{"r", "s"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(Insert("r", 1, 2), Insert("s", 2, 3)); err != nil {
		t.Fatal(err)
	}
	rows, _ := db.View("j")
	if len(rows) != 1 || rows[0].Values[2] != 3 {
		t.Errorf("join view = %+v", rows)
	}
	if err := db.CreateJoinView("bad", []string{"nope"}); err == nil {
		t.Error("unknown relation must fail")
	}
}

func TestAliasesInFrom(t *testing.T) {
	db := Open()
	_ = db.CreateRelation("r", "A", "B")
	if err := db.CreateView("self", ViewSpec{
		From:  []string{"r x", "r AS y"},
		Where: "x.B = y.A",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(Insert("r", 1, 2), Insert("r", 2, 9)); err != nil {
		t.Fatal(err)
	}
	rows, _ := db.View("self")
	if len(rows) != 1 {
		t.Errorf("self-join rows = %+v", rows)
	}
	if err := db.CreateView("bad", ViewSpec{From: []string{"r a b c"}}); err == nil {
		t.Error("malformed From must fail")
	}
	if err := db.CreateView("bad2", ViewSpec{}); err == nil {
		t.Error("empty From must fail")
	}
	if err := db.CreateView("bad3", ViewSpec{From: []string{"r"}, Where: "A <"}); err == nil {
		t.Error("bad Where must fail")
	}
}

func TestQueryAndRows(t *testing.T) {
	db := openExample41(t)
	if _, err := db.Exec(Insert("r", 3, 4), Insert("r", 7, 8)); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(ViewSpec{From: []string{"r"}, Where: "A > 5", Select: []string{"B"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Values[0] != 8 {
		t.Errorf("query = %+v", rows)
	}
	base, err := db.Rows("r")
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 2 || base[0][0] != 3 {
		t.Errorf("base rows = %+v", base)
	}
	if _, err := db.Rows("nope"); err == nil {
		t.Error("unknown relation must fail")
	}
	if _, err := db.Query(ViewSpec{From: []string{"zzz"}}); err == nil {
		t.Error("unknown relation in query must fail")
	}
}

func TestRecomputeOptionAndLists(t *testing.T) {
	db := openExample41(t)
	if err := db.CreateView("w", ViewSpec{From: []string{"r"}}, WithRecompute()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(Insert("r", 1, 1)); err != nil {
		t.Fatal(err)
	}
	st, _ := db.Stats("w")
	if st.Recomputes != 1 {
		t.Errorf("stats = %+v", st)
	}
	if got := db.Relations(); len(got) != 2 {
		t.Errorf("Relations = %v", got)
	}
	if got := db.Views(); len(got) != 2 {
		t.Errorf("Views = %v", got)
	}
	if err := db.DropView("w"); err != nil {
		t.Fatal(err)
	}
	if got := db.Views(); len(got) != 1 {
		t.Errorf("Views = %v", got)
	}
}

func TestUpdateOpAndExplainAndSaveLoad(t *testing.T) {
	db := openExample41(t)
	if _, err := db.Exec(Insert("r", 1, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(Update("r", []int64{1, 2}, []int64{1, 9})...); err != nil {
		t.Fatal(err)
	}
	rows, _ := db.Rows("r")
	if len(rows) != 1 || rows[0][1] != 9 {
		t.Errorf("after Update: %v", rows)
	}

	out, err := db.Explain("v")
	if err != nil || len(out) == 0 {
		t.Errorf("Explain: %q, %v", out, err)
	}

	var buf strings.Builder
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	rows2, _ := db2.Rows("r")
	if len(rows2) != 1 || rows2[0][1] != 9 {
		t.Errorf("after Load: %v", rows2)
	}
	if _, err := Load(strings.NewReader("garbage")); err == nil {
		t.Error("Load(garbage) must fail")
	}
}

func TestSubscribe(t *testing.T) {
	db := openExample41(t)
	var changes []Change
	cancel, err := db.Subscribe("v", func(c Change) { changes = append(changes, c) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(Insert("r", 9, 10), Insert("s", 10, 20)); err != nil {
		t.Fatal(err)
	}
	if len(changes) != 1 || len(changes[0].Inserts) != 1 || changes[0].View != "v" {
		t.Fatalf("changes = %+v", changes)
	}
	if changes[0].Inserts[0].Values[0] != 9 || changes[0].Inserts[0].Values[1] != 20 {
		t.Errorf("insert payload = %+v", changes[0].Inserts)
	}
	// Irrelevant update: no wake-up.
	if _, err := db.Exec(Insert("r", 11, 10)); err != nil {
		t.Fatal(err)
	}
	if len(changes) != 1 {
		t.Errorf("irrelevant update woke subscriber: %+v", changes)
	}
	cancel()
	if _, err := db.Exec(Delete("s", 10, 20)); err != nil {
		t.Fatal(err)
	}
	if len(changes) != 1 {
		t.Errorf("cancelled subscriber woken: %+v", changes)
	}
	if _, err := db.Subscribe("zzz", func(Change) {}); err == nil {
		t.Error("unknown view must fail")
	}

	// A Change is the view's net change, whichever way the view is
	// maintained: a replace that π_A hides fires nothing, and one that
	// moves A fires the same Change on every view.
	paths := map[string]ViewOption{"pdiff": OnCommit(), "prec": WithRecompute(), "psnap": OnDemand()}
	got := map[string][]string{}
	for name, opt := range paths {
		if err := db.CreateView(name, ViewSpec{From: []string{"r"}, Select: []string{"A"}}, opt); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Subscribe(name, func(c Change) { got[c.View] = append(got[c.View], fmt.Sprintf("%+v", c)) }); err != nil {
			t.Fatal(err)
		}
	}
	replace := func(from, to [2]int64) {
		t.Helper()
		if _, err := db.Exec(Delete("r", from[0], from[1]), Insert("r", to[0], to[1])); err != nil {
			t.Fatal(err)
		}
		if err := db.Refresh("psnap"); err != nil {
			t.Fatal(err)
		}
	}
	replace([2]int64{9, 10}, [2]int64{9, 12})
	for name := range paths {
		if len(got[name]) != 0 {
			t.Errorf("%s: a replace π_A hides fired %v", name, got[name])
		}
	}
	replace([2]int64{9, 12}, [2]int64{4, 12})
	want := "{View:%s Inserts:[{Values:[4] Count:1}] Deletes:[{Values:[9] Count:1}]}"
	for name := range paths {
		if len(got[name]) != 1 || got[name][0] != fmt.Sprintf(want, name) {
			t.Errorf("%s: changes %v, want one %s", name, got[name], fmt.Sprintf(want, name))
		}
	}
}

func TestAdaptiveOption(t *testing.T) {
	db := openExample41(t)
	if err := db.CreateView("a", ViewSpec{From: []string{"r"}}, WithAdaptiveMaint()); err != nil {
		t.Fatal(err)
	}
	// Empty base → first tx recomputes.
	if _, err := db.Exec(Insert("r", 1, 1)); err != nil {
		t.Fatal(err)
	}
	st, _ := db.Stats("a")
	if st.Recomputes+st.Refreshes == 0 {
		t.Errorf("adaptive view never maintained: %+v", st)
	}
}

// TestRowByRowOptionIsParseOnly: rowbyrow chose a row strategy of a
// retired evaluator. Logs may still name it, so it parses, changes
// nothing, and is no longer taught.
func TestRowByRowOptionIsParseOnly(t *testing.T) {
	db := Open()
	_ = db.CreateRelation("r", "A", "B")
	_ = db.CreateRelation("s", "B", "C")
	opt, err := ParseViewOption("rowbyrow")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateJoinView("j", []string{"r", "s"}, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(Insert("r", 1, 2), Insert("s", 2, 3)); err != nil {
		t.Fatal(err)
	}
	rows, _ := db.View("j")
	if len(rows) != 1 {
		t.Errorf("rows = %+v", rows)
	}
	if _, err := ParseViewOption("nope"); err == nil || strings.Contains(err.Error(), "rowbyrow") {
		t.Errorf("unknown-option error = %v; want one that no longer teaches rowbyrow", err)
	}
}
