package mview

import (
	"strings"
	"testing"
	"time"

	"mview/internal/obs"
)

// TestTraceAPISurface exercises the observability additions on DB:
// ExplainAnalyze, Staleness, SnapshotAge, CriticalPath, and the
// TxInfo-to-flight-recorder linkage through WithObs.
func TestTraceAPISurface(t *testing.T) {
	fr := obs.NewFlightRecorder(8, 0)
	db := Open(WithObs(obs.NewRegistry(), fr))
	if err := db.CreateRelation("r", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("v", ViewSpec{From: []string{"r"}, Where: "A < 10"}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("d", ViewSpec{From: []string{"r"}}, OnDemand()); err != nil {
		t.Fatal(err)
	}

	info, err := db.Exec(Insert("r", 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if info.Trace == 0 {
		t.Errorf("TxInfo.Trace = 0 with a flight recorder attached")
	} else if _, ok := fr.Get(info.Trace); !ok {
		t.Errorf("TxInfo.Trace %d not resolvable in the recorder", info.Trace)
	}
	time.Sleep(2 * time.Millisecond)

	// Staleness: the immediate view is fresh, the deferred one lags.
	st := db.Staleness()
	if st["v"] != 0 {
		t.Errorf("immediate staleness = %v, want 0", st["v"])
	}
	if st["d"] <= 0 {
		t.Errorf("deferred staleness = %v, want > 0", st["d"])
	}
	if err := db.RefreshAll(); err != nil {
		t.Fatal(err)
	}
	if st := db.Staleness(); st["d"] != 0 {
		t.Errorf("staleness after RefreshAll = %v, want 0", st["d"])
	}

	if age := db.SnapshotAge(); age < 0 || age > time.Minute {
		t.Errorf("SnapshotAge = %v, want small and non-negative", age)
	}

	cp := db.CriticalPath()
	if cp.Batches < 1 || cp.Seconds <= 0 {
		t.Errorf("CriticalPath = %+v, want >= 1 batch with time attributed", cp)
	}
	if _, ok := cp.Stages["install"]; !ok {
		t.Errorf("CriticalPath missing install stage: %v", cp.Stages)
	}

	// ExplainAnalyze names a trace the recorder can resolve.
	out, err := db.ExplainAnalyze("v")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "analyze:") || !strings.Contains(out, "trace=") {
		t.Fatalf("ExplainAnalyze output lacks annotations:\n%s", out)
	}
	idStr := out[strings.LastIndex(out, "trace=")+len("trace="):]
	idStr = strings.TrimSpace(strings.SplitN(idStr, "\n", 2)[0])
	var id uint64
	for _, c := range idStr {
		id = id*10 + uint64(c-'0')
	}
	if _, ok := fr.Get(id); !ok {
		t.Errorf("trace %d from ExplainAnalyze not found in the recorder", id)
	}
}

// TestInstrumentNilKeepsNewSurfacesWorking: every new read surface
// must stay usable (and cheap) on an uninstrumented database.
func TestInstrumentNilKeepsNewSurfacesWorking(t *testing.T) {
	db := openExample41(t)
	if _, err := db.Exec(Insert("r", 1, 6), Insert("s", 6, 20)); err != nil {
		t.Fatal(err)
	}
	if st := db.Staleness(); st["v"] != 0 {
		t.Errorf("staleness on uninstrumented db = %v", st)
	}
	cp := db.CriticalPath()
	if cp.Batches != 0 {
		t.Errorf("uninstrumented CriticalPath batches = %d, want 0 (no commitTrace)", cp.Batches)
	}
	out, err := db.ExplainAnalyze("v")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "last maintenance:") {
		t.Errorf("ExplainAnalyze must record timings without instrumentation:\n%s", out)
	}
	if strings.Contains(out, "trace=") {
		t.Errorf("uninstrumented maintenance must not claim a trace id:\n%s", out)
	}
}
