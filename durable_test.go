package mview

import (
	"os"
	"path/filepath"
	"testing"

	"mview/internal/wal"
)

// walSegments lists the commit-log segment files of a durable
// directory, oldest first; the last is the active segment.
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := wal.SegmentFiles(filepath.Join(dir, logFile))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

func openDur(t *testing.T, dir string) *DB {
	t.Helper()
	d, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func seedDurable(t *testing.T, d *DB) {
	t.Helper()
	if err := d.CreateRelation("r", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateRelation("s", "C", "D"); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateView("v", ViewSpec{
		From:   []string{"r", "s"},
		Where:  "A < 10 && C > 5 && B = C",
		Select: []string{"A", "D"},
	}, WithFilter()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec(Insert("r", 9, 10), Insert("s", 10, 20)); err != nil {
		t.Fatal(err)
	}
}

func verifySeeded(t *testing.T, d *DB) {
	t.Helper()
	rows, err := d.View("v")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Values[0] != 9 || rows[0].Values[1] != 20 {
		t.Fatalf("recovered view = %+v", rows)
	}
}

// TestDurableRecoveryFromLogOnly: crash before any checkpoint — the
// whole state comes back from the commit log.
func TestDurableRecoveryFromLogOnly(t *testing.T) {
	dir := t.TempDir()
	d := openDur(t, dir)
	seedDurable(t, d)
	if err := d.Close(); err != nil { // "crash": no checkpoint
		t.Fatal(err)
	}
	d2 := openDur(t, dir)
	defer d2.Close()
	verifySeeded(t, d2)
	// And the recovered database keeps working durably.
	if _, err := d2.Exec(Insert("r", 5, 10)); err != nil {
		t.Fatal(err)
	}
	rows, _ := d2.View("v")
	if len(rows) != 2 {
		t.Errorf("rows after recovered write = %+v", rows)
	}
}

// TestDurableRecoveryFromCheckpointPlusLog: checkpoint, more writes,
// crash, reopen.
func TestDurableRecoveryFromCheckpointPlusLog(t *testing.T) {
	dir := t.TempDir()
	d := openDur(t, dir)
	seedDurable(t, d)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes live only in the log.
	if _, err := d.Exec(Insert("r", 5, 10), Delete("s", 10, 20), Insert("s", 10, 30)); err != nil {
		t.Fatal(err)
	}
	if err := d.DropView("v"); err != nil {
		t.Fatal(err)
	}
	if err := d.CreateJoinView("j", []string{"r", "s"}); err != nil {
		t.Fatal(err)
	}
	_ = d.Close()

	d2 := openDur(t, dir)
	defer d2.Close()
	if _, err := d2.View("v"); err == nil {
		t.Error("dropped view resurrected")
	}
	rows, err := d2.View("j")
	if err != nil {
		t.Fatal(err)
	}
	// r = {(9,10),(5,10)}, s = {(10,30)}: both join on 10.
	if len(rows) != 2 {
		t.Errorf("join view after recovery = %+v", rows)
	}
}

// TestDurableCheckpointTruncatesLog: a checkpoint drops the covered
// commit-log segments and numbering stays monotonic.
func TestDurableCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	d := openDur(t, dir)
	seedDurable(t, d)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := d.LastCheckpointStats().WALSegmentsDropped; got < 1 {
		t.Errorf("checkpoint dropped %d WAL segments, want >= 1", got)
	}
	// Only the fresh (empty) active segment remains.
	var total int64
	for _, seg := range walSegments(t, dir) {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	if total > 64 {
		t.Errorf("log not truncated: %d bytes across segments", total)
	}
	if _, err := d.Exec(Insert("r", 1, 1)); err != nil {
		t.Fatal(err)
	}
	_ = d.Close()
	d2 := openDur(t, dir)
	defer d2.Close()
	rows, _ := d2.Rows("r")
	if len(rows) != 2 {
		t.Errorf("rows after checkpoint+log recovery = %+v", rows)
	}
}

// TestDurableTornLogTail: garbage appended to the log (simulating a
// crash mid-append) is discarded; everything acknowledged survives.
func TestDurableTornLogTail(t *testing.T) {
	dir := t.TempDir()
	d := openDur(t, dir)
	seedDurable(t, d)
	_ = d.Close()
	segs := walSegments(t, dir)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = f.Write([]byte("torn-half-record"))
	_ = f.Close()

	d2 := openDur(t, dir)
	defer d2.Close()
	verifySeeded(t, d2)
}

// TestDurableDoubleCheckpoint: crash between snapshot rename and log
// truncation must not replay old records onto the new snapshot.
func TestDurableCheckpointCrashWindow(t *testing.T) {
	dir := t.TempDir()
	d := openDur(t, dir)
	seedDurable(t, d)

	// Simulate "manifest swapped but covered log segment NOT deleted":
	// checkpoint, then resurrect the pre-checkpoint active segment.
	segs := walSegments(t, dir)
	active := segs[len(segs)-1]
	oldLog, err := os.ReadFile(active)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_ = d.Close()
	if err := os.WriteFile(active, oldLog, 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen: the manifest's LSN gates replay, so the stale records
	// are skipped and state is exactly the checkpointed one.
	d2 := openDur(t, dir)
	defer d2.Close()
	verifySeeded(t, d2)
	rows, _ := d2.Rows("r")
	if len(rows) != 1 {
		t.Errorf("stale log replayed: r = %+v", rows)
	}
}

func TestDurableMiscErrors(t *testing.T) {
	// Checkpoint/Close on an in-memory database.
	d := Open()
	if err := d.Checkpoint(); err == nil {
		t.Error("Checkpoint on in-memory DB must fail")
	}
	if err := d.Close(); err != nil {
		t.Errorf("Close on in-memory DB should be a no-op: %v", err)
	}
	// A garbage manifest fails loudly.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestFile), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(dir); err == nil {
		t.Error("garbage manifest must fail")
	}
	// Failed statements are not logged and do not poison recovery.
	dir2 := t.TempDir()
	d2 := openDur(t, dir2)
	if err := d2.CreateRelation("r", "A"); err != nil {
		t.Fatal(err)
	}
	if err := d2.CreateRelation("r", "A"); err == nil {
		t.Fatal("duplicate must fail")
	}
	if _, err := d2.Exec(Insert("zzz", 1)); err == nil {
		t.Fatal("unknown relation must fail")
	}
	_ = d2.Close()
	d3 := openDur(t, dir2)
	defer d3.Close()
	if got := d3.Relations(); len(got) != 1 || got[0] != "r" {
		t.Errorf("relations after recovery = %v", got)
	}
}

// TestDurableEverythingSurvives is the kitchen-sink round trip:
// several relations, all view option combinations, updates, drops.
func TestDurableEverythingSurvives(t *testing.T) {
	dir := t.TempDir()
	d := openDur(t, dir)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(d.CreateRelation("r", "A", "B"))
	must(d.CreateRelation("s", "B", "C"))
	must(d.CreateView("v1", ViewSpec{From: []string{"r"}, Where: "A < 100"}))
	must(d.CreateView("v2", ViewSpec{From: []string{"r", "s"}, Where: "r.B = s.B"}, OnDemand(), WithFilter()))
	must(d.CreateView("v3", ViewSpec{From: []string{"r"}}, WithAdaptiveMaint()))
	must(d.CreateJoinView("v4", []string{"r", "s"}, WithRecompute()))
	for i := int64(0); i < 20; i++ {
		_, err := d.Exec(Insert("r", i, i%5), Insert("s", i%5, i*10))
		must(err)
	}
	_, err := d.Exec(Update("r", []int64{3, 3}, []int64{3, 4})...)
	must(err)
	must(d.Checkpoint())
	for i := int64(20); i < 30; i++ {
		_, err := d.Exec(Insert("r", i, i%5))
		must(err)
	}
	must(d.DropView("v3"))
	_ = d.Close()

	d2 := openDur(t, dir)
	defer d2.Close()
	if got := len(d2.Views()); got != 3 {
		t.Fatalf("views after recovery = %v", d2.Views())
	}
	rows, _ := d2.Rows("r")
	if len(rows) != 30 {
		t.Errorf("r has %d rows", len(rows))
	}
	// Deferred view still needs a refresh, then matches a live query.
	must(d2.Refresh("v2"))
	v2, _ := d2.View("v2")
	q, err := d2.Query(ViewSpec{From: []string{"r", "s"}, Where: "r.B = s.B"})
	must(err)
	if len(v2) != len(q) {
		t.Errorf("v2 = %d rows, query = %d rows", len(v2), len(q))
	}
}
