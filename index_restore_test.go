package mview

import (
	"bytes"
	"strings"
	"testing"

	"mview/internal/db"
)

// indexesLine returns the "indexes:" line of a view's Explain output.
func indexesLine(t *testing.T, e *db.Engine, view string) string {
	t.Helper()
	out, err := e.Explain(view)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "indexes:") {
			return strings.TrimSpace(line)
		}
	}
	t.Fatalf("Explain(%q) has no indexes line:\n%s", view, out)
	return ""
}

// TestRestoredEnginesCarryIndexes: a database reopened from its
// checkpoint (OpenDurable, through CompleteSegmentedLoad) and an engine
// bootstrapped from a leader's snapshot stream (loadReplSnapshot) index
// their base relations as the original did: Explain lists the same
// indexes, and a commit that touches both sides of the equi-join view
// reads no base row there.
func TestRestoredEnginesCarryIndexes(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateRelation("r", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateRelation("s", "C", "D"); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateView("j", ViewSpec{From: []string{"r", "s"}, Where: "B = C"}); err != nil {
		t.Fatal(err)
	}
	var ops []Op
	for i := int64(0); i < 200; i++ {
		ops = append(ops, Insert("r", i, i%20))
	}
	for c := int64(0); c < 20; c++ {
		ops = append(ops, Insert("s", c, -c))
	}
	if _, err := d.Exec(ops...); err != nil {
		t.Fatal(err)
	}
	want := indexesLine(t, d.engine(), "j")
	if want != "indexes: r.B, s.C" {
		t.Fatalf("original: %q, want both join columns indexed", want)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	churn := []Op{Insert("r", 1000, 25), Insert("s", 25, 7), Delete("r", 3, 3)}
	check := func(label string, e *db.Engine, commit func() error) {
		t.Helper()
		if got := indexesLine(t, e, "j"); got != want {
			t.Errorf("%s: Explain lists %q, the original %q", label, got, want)
		}
		before, err := e.ViewStats("j")
		if err != nil {
			t.Fatal(err)
		}
		if err := commit(); err != nil {
			t.Fatal(err)
		}
		after, err := e.ViewStats("j")
		if err != nil {
			t.Fatal(err)
		}
		if after.JoinSteps == before.JoinSteps || after.BaseRowsScanned != before.BaseRowsScanned {
			t.Errorf("%s: commit took %d join steps reading %d base rows; want join steps and no base row",
				label, after.JoinSteps-before.JoinSteps, after.BaseRowsScanned-before.BaseRowsScanned)
		}
	}

	re, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var stream bytes.Buffer
	if err := writeReplSnapshot(&stream, re.engine().CurrentSnapshot(), 7); err != nil {
		t.Fatal(err)
	}
	check("reopened", re.engine(), func() error {
		_, err := re.Exec(churn...)
		return err
	})

	eng, _, err := loadReplSnapshot(&stream, config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.StopScheduler()
	check("bootstrapped", eng, func() error {
		tx := buildTx(churn)
		_, err := eng.Execute(&tx)
		return err
	})
}
