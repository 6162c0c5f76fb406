package db

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"mview/internal/delta"
	"mview/internal/diffeval"
	"mview/internal/tuple"
)

func populatedEngine(t *testing.T) *Engine {
	t.Helper()
	e := newEngine(t)
	var tx delta.Tx
	for i := int64(0); i < 50; i++ {
		tx.Insert("R", tuple.New(i, i%7))
		tx.Insert("S", tuple.New(i%7, i*2))
	}
	exec(t, e, &tx)
	if err := e.CreateView(joinViewDef(t, e, "v"), ViewConfig{
		Maint: diffeval.Options{Filter: true},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateView(joinViewDef(t, e, "snap"), ViewConfig{
		When: RefreshSpec{Kind: RefreshOnDemand}, Policy: PolicyAdaptive,
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSaveLoadRoundTrip(t *testing.T) {
	e := populatedEngine(t)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}

	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	// Base relations restored exactly.
	for _, name := range []string{"R", "S"} {
		a, _ := e.Relation(name)
		b, _ := got.Relation(name)
		if !a.Equal(b) {
			t.Errorf("relation %s diverged", name)
		}
	}
	// Views re-materialized to the same contents.
	for _, name := range []string{"v", "snap"} {
		a, _ := e.View(name)
		b, _ := got.View(name)
		if !a.Equal(b) {
			t.Errorf("view %s diverged:\n%v\n%v", name, a, b)
		}
	}
	// The restored engine keeps maintaining correctly.
	var tx delta.Tx
	tx.Insert("R", tuple.New(1000, 3)).Insert("S", tuple.New(3, 999))
	if _, err := got.Execute(&tx); err != nil {
		t.Fatal(err)
	}
	v, _ := got.View("v")
	if !v.Has(tuple.New(1000, 3, 999)) {
		t.Error("restored view not maintained")
	}
	// Config survived: the snap view is still deferred.
	st, _ := got.ViewStats("snap")
	if st.PendingTx != 1 {
		t.Errorf("snap should have deferred the tx: %+v", st)
	}
}

func TestSaveLoadEmptyEngine(t *testing.T) {
	e := New()
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Relations()) != 0 || len(got.Views()) != 0 {
		t.Error("empty engine did not round-trip empty")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"hello world",
		"\x00\x00\x00\x08NOTMAGIC",
	}
	for _, in := range cases {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("Load(%q) should fail", in)
		}
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	e := populatedEngine(t)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Truncate at several points; every prefix must fail cleanly, not
	// panic.
	for _, n := range []int{1, 10, len(full) / 4, len(full) / 2, len(full) - 1} {
		if _, err := Load(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("truncated at %d/%d bytes: want error", n, len(full))
		}
	}
}

func TestLoadRejectsHugeLengths(t *testing.T) {
	// A header claiming a gigantic string must not allocate blindly.
	var buf bytes.Buffer
	e := New()
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// Corrupt the relation-count field (right after the magic string).
	off := 4 + len(storageMagic)
	b[off] = 0xFF
	b[off+1] = 0xFF
	b[off+2] = 0xFF
	b[off+3] = 0xFF
	if _, err := Load(bytes.NewReader(b)); err == nil {
		t.Error("huge relation count must fail")
	}
}

func TestSaveDeterministic(t *testing.T) {
	e := populatedEngine(t)
	var a, b bytes.Buffer
	if err := e.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := e.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("Save is not deterministic")
	}
}

// TestViewDefReadsRetiredStrategyBytes: a view definition written when
// a view could pick its row strategy carries a strategy byte and a
// greedy-order flag; a parent build's rowbyrow view wrote 2 and 1. Both
// are written as 0 now and skipped on read, so such a definition
// decodes to the same config and re-materializes to the same rows.
func TestViewDefReadsRetiredStrategyBytes(t *testing.T) {
	e := populatedEngine(t)
	st := e.views["v"]
	var buf bytes.Buffer
	w := &writer{w: bufio.NewWriter(&buf)}
	writeViewDef(w, "v", st.bound, st.cfg)
	if err := w.w.Flush(); err != nil || w.err != nil {
		t.Fatal(err, w.err)
	}
	enc := buf.Bytes()
	// The tail after the strategy byte: filter, sat method, NE limit,
	// greedy flag, refresh kind, interval, bound (1+1+8+1+1+8+8 bytes);
	// after the greedy flag, the last three (17 bytes).
	strategy, greedy := len(enc)-29, len(enc)-18
	if enc[strategy] != 0 || enc[greedy] != 0 {
		t.Fatalf("retired bytes written as %d/%d, want 0/0", enc[strategy], enc[greedy])
	}
	enc[strategy], enc[greedy] = 2, 1

	r := &reader{r: bufio.NewReader(bytes.NewReader(enc))}
	v, cfg, err := readViewDef(r)
	if err != nil {
		t.Fatal(err)
	}
	if cfg != st.cfg {
		t.Errorf("decoded config = %+v, want %+v", cfg, st.cfg)
	}
	v.Name = "v2"
	if err := e.CreateView(v, cfg); err != nil {
		t.Fatal(err)
	}
	got, _ := e.View("v2")
	want, _ := e.View("v")
	if got.Len() == 0 || !got.Equal(want) {
		t.Errorf("re-materialized view = %v, want %v", got, want)
	}
}
