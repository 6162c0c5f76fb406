package httpapi

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"mview"
	"mview/internal/obs"
)

// tracedHandler builds a handler whose database traces into a flight
// recorder served at /v1/debug/traces, with r(A,B), s(C,D), and an
// immediate join view v already created.
func tracedHandler(t *testing.T, fr *obs.FlightRecorder) *Handler {
	t.Helper()
	reg := obs.NewRegistry()
	db := mview.Open(mview.WithObs(reg, fr))
	h := NewWith(db, WithObs(reg, fr), WithFlightRecorder(fr))
	for _, req := range []string{
		`{"name":"r","attrs":["A","B"]}`,
		`{"name":"s","attrs":["C","D"]}`,
	} {
		if code, _ := do(t, h, "POST", "/v1/relations", req); code != http.StatusCreated {
			t.Fatalf("create relation: %d", code)
		}
	}
	body := `{"name":"v","from":["r","s"],"where":"B = C"}`
	if code, resp := do(t, h, "POST", "/v1/views", body); code != http.StatusCreated {
		t.Fatalf("create view: %d %v", code, resp)
	}
	return h
}

// TestTracesEndpointShape pins the JSON contract of the debug/traces
// family: the catalog's summaries, one full trace's hierarchical span
// tree (root db.commit, commit.<stage> children on the same trace),
// the critical path, and the error answers for bad or unknown ids.
func TestTracesEndpointShape(t *testing.T) {
	fr := obs.NewFlightRecorder(8, 0)
	h := tracedHandler(t, fr)
	if code, _ := do(t, h, "POST", "/v1/exec",
		`{"ops":[{"op":"insert","rel":"r","values":[1,2]},{"op":"insert","rel":"s","values":[2,5]}]}`); code != http.StatusOK {
		t.Fatalf("exec failed")
	}

	code, resp := do(t, h, "GET", "/v1/debug/traces", "")
	if code != http.StatusOK {
		t.Fatalf("traces list: %d %v", code, resp)
	}
	if resp["total"].(float64) < 1 {
		t.Errorf("total = %v, want >= 1", resp["total"])
	}
	traces := resp["traces"].([]any)
	if len(traces) == 0 {
		t.Fatalf("no trace summaries")
	}
	sum := traces[0].(map[string]any)
	for _, k := range []string{"id", "name", "start", "seconds", "spans"} {
		if _, ok := sum[k]; !ok {
			t.Errorf("summary missing %q: %v", k, sum)
		}
	}

	// Fetch the newest trace in full: the commit's span tree.
	id := uint64(sum["id"].(float64))
	code, tr := do(t, h, "GET", fmt.Sprintf("/v1/debug/traces/%d", id), "")
	if code != http.StatusOK {
		t.Fatalf("trace %d: %d %v", id, code, tr)
	}
	if tr["name"].(string) != "db.commit" {
		t.Errorf("trace name = %v, want db.commit", tr["name"])
	}
	spans := tr["spans"].([]any)
	var rootID float64
	byName := map[string]map[string]any{}
	for _, s := range spans {
		sp := s.(map[string]any)
		byName[sp["name"].(string)] = sp
		if sp["parent"] == nil {
			rootID = sp["id"].(float64)
		}
	}
	for _, stage := range []string{"commit.net", "commit.compose", "commit.maint", "commit.validate", "commit.install", "commit.publish"} {
		sp, ok := byName[stage]
		if !ok {
			t.Fatalf("trace missing span %s (have %v)", stage, tr["spans"])
		}
		if sp["parent"].(float64) != rootID {
			t.Errorf("%s parent = %v, want root %v", stage, sp["parent"], rootID)
		}
	}
	// Stage durations must be consistent with the trace's wall time:
	// each offset+duration fits inside the root, and the critical path
	// sums to no more than the total.
	wall := tr["seconds"].(float64)
	for name, sp := range byName {
		if end := sp["offset_seconds"].(float64) + sp["seconds"].(float64); end > wall*1.001+1e-9 {
			t.Errorf("span %s ends at %v, past wall time %v", name, end, wall)
		}
	}
	var critSum float64
	for _, c := range tr["critical_path"].([]any) {
		critSum += c.(map[string]any)["seconds"].(float64)
	}
	if critSum <= 0 || critSum > wall*1.001+1e-9 {
		t.Errorf("critical path sums to %v, want within (0, %v]", critSum, wall)
	}

	// Errors: malformed id, evicted/unknown id, and no legacy alias.
	if code, _ := do(t, h, "GET", "/v1/debug/traces/bogus", ""); code != http.StatusBadRequest {
		t.Errorf("bad id: %d, want 400", code)
	}
	if code, _ := do(t, h, "GET", "/v1/debug/traces/999999999", ""); code != http.StatusNotFound {
		t.Errorf("unknown id: %d, want 404", code)
	}
	if rec := raw(t, h, "GET", "/debug/traces", ""); rec.Code != http.StatusNotFound {
		t.Errorf("legacy /debug/traces: %d, want 404 (v1-only route)", rec.Code)
	}
}

// TestTracesSlowPin drives commits through a recorder whose ring holds
// a single trace but whose slow threshold pins everything: earlier
// commits must survive the ring cycling past them, marked pinned.
func TestTracesSlowPin(t *testing.T) {
	fr := obs.NewFlightRecorder(1, time.Nanosecond)
	h := tracedHandler(t, fr)
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"ops":[{"op":"insert","rel":"r","values":[%d,2]}]}`, i)
		if code, _ := do(t, h, "POST", "/v1/exec", body); code != http.StatusOK {
			t.Fatalf("exec %d failed", i)
		}
	}
	code, resp := do(t, h, "GET", "/v1/debug/traces", "")
	if code != http.StatusOK {
		t.Fatalf("traces list: %d", code)
	}
	traces := resp["traces"].([]any)
	if len(traces) < 3 {
		t.Fatalf("recorder retained %d traces, want >= 3 (pins must outlive the 1-slot ring)", len(traces))
	}
	pinned := 0
	for _, s := range traces {
		if p, _ := s.(map[string]any)["pinned"].(bool); p {
			pinned++
		}
	}
	if pinned < 2 {
		t.Errorf("%d pinned traces, want >= 2", pinned)
	}
}

// TestTracesWithoutRecorder: the route exists but answers 404 when no
// recorder was attached.
func TestTracesWithoutRecorder(t *testing.T) {
	h := New()
	code, resp := do(t, h, "GET", "/v1/debug/traces", "")
	if code != http.StatusNotFound {
		t.Fatalf("traces without recorder: %d, want 404", code)
	}
	if resp["error"] == nil {
		t.Errorf("404 body missing error field: %v", resp)
	}
}

// TestDebugStatsCriticalPathAndStaleness pins the /debug/stats
// additions: critical-path attribution, per-view staleness, and
// snapshot age — and the staleness gauge reaching /metrics.
func TestDebugStatsCriticalPathAndStaleness(t *testing.T) {
	h := setup(t)
	body := `{"name":"d","from":["r"],"options":["ondemand"]}`
	if code, _ := do(t, h, "POST", "/v1/views", body); code != http.StatusCreated {
		t.Fatalf("create deferred view failed")
	}
	if code, _ := do(t, h, "POST", "/v1/exec", `{"ops":[{"op":"insert","rel":"r","values":[1,2]}]}`); code != http.StatusOK {
		t.Fatalf("exec failed")
	}
	time.Sleep(2 * time.Millisecond)

	code, resp := do(t, h, "GET", "/debug/stats", "")
	if code != http.StatusOK {
		t.Fatalf("debug/stats: %d", code)
	}
	cp := resp["critical_path"].(map[string]any)
	if cp["batches"].(float64) < 1 {
		t.Errorf("critical_path batches = %v, want >= 1", cp["batches"])
	}
	stages := cp["stages"].(map[string]any)
	for _, stage := range []string{"queue_wait", "net", "compose", "maint", "slowest_task", "validate", "fsync", "install", "publish"} {
		if _, ok := stages[stage]; !ok {
			t.Errorf("critical_path missing stage %q: %v", stage, stages)
		}
	}
	stale := resp["staleness"].(map[string]any)
	if stale["d"].(float64) <= 0 {
		t.Errorf("deferred view staleness = %v, want > 0", stale["d"])
	}
	if stale["v"].(float64) != 0 {
		t.Errorf("immediate view staleness = %v, want 0", stale["v"])
	}
	if _, ok := resp["snapshot_age_seconds"].(float64); !ok {
		t.Errorf("debug/stats missing snapshot_age_seconds")
	}

	rec := raw(t, h, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	for _, want := range []string{
		`mview_view_staleness_seconds{view="d"}`,
		`mview_commit_stage_seconds`,
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}
