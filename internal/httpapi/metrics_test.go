package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mview"
	"mview/internal/obs"
)

// doJSON issues one request against the handler and fails the test on
// an unexpected status.
func doJSON(t *testing.T, h http.Handler, method, path, body string, wantStatus int) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("%s %s = %d, want %d: %s", method, path, rec.Code, wantStatus, rec.Body.String())
	}
	return rec
}

// seedTraffic creates a relation, two views (immediate differential
// with the §4 filter, deferred), and runs a few transactions.
func seedTraffic(t *testing.T, h http.Handler) {
	t.Helper()
	doJSON(t, h, "POST", "/v1/relations", `{"name":"r","attrs":["A","B"]}`, http.StatusCreated)
	doJSON(t, h, "POST", "/v1/views", `{"name":"small","from":["r"],"where":"A < 10","options":["filtered"]}`, http.StatusCreated)
	doJSON(t, h, "POST", "/v1/views", `{"name":"lazy","from":["r"],"where":"B > 0","options":["ondemand"]}`, http.StatusCreated)
	doJSON(t, h, "POST", "/v1/exec", `{"ops":[{"op":"insert","rel":"r","values":[1,2]}]}`, http.StatusOK)
	doJSON(t, h, "POST", "/v1/exec", `{"ops":[{"op":"insert","rel":"r","values":[50,3]}]}`, http.StatusOK)
	doJSON(t, h, "POST", "/v1/views/lazy/refresh", "", http.StatusOK)
}

func TestMetricsEndpointExposition(t *testing.T) {
	h := New()
	seedTraffic(t, h)

	rec := doJSON(t, h, "GET", "/metrics", "", http.StatusOK)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		// Engine-wide commit metrics.
		"# TYPE mview_commits_total counter",
		"mview_commits_total 2",
		"# TYPE mview_commit_seconds histogram",
		"mview_commit_seconds_count 2",
		// Per-view refresh latency split by decision.
		"# TYPE mview_view_refresh_seconds histogram",
		`mview_view_refresh_seconds_count{decision="differential",view="small"} 2`,
		`mview_view_refresh_seconds_count{decision="differential",view="lazy"} 1`,
		// §4 filter counters: (50,3) is provably irrelevant to A < 10.
		`mview_filter_discarded_total{view="small"} 1`,
		`mview_filter_passed_total{view="small"} 1`,
		// Deferred backlog gauge, drained by the refresh.
		`mview_view_pending_tx{view="lazy"} 0`,
		// HTTP middleware.
		"# TYPE mview_http_requests_total counter",
		`mview_http_requests_total{code="200",endpoint="POST /v1/exec"} 2`,
		`mview_http_request_seconds_count{endpoint="POST /v1/exec"} 2`,
		"# TYPE mview_http_in_flight gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", body)
	}
}

func TestDebugStatsShape(t *testing.T) {
	h := New()
	seedTraffic(t, h)

	rec := doJSON(t, h, "GET", "/debug/stats", "", http.StatusOK)
	var payload struct {
		UptimeSeconds float64                `json:"uptime_seconds"`
		Metrics       []obs.SeriesSnapshot   `json:"metrics"`
		Views         map[string]mview.Stats `json:"views"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("decoding /debug/stats: %v\n%s", err, rec.Body.String())
	}
	if payload.UptimeSeconds < 0 {
		t.Errorf("uptime_seconds = %v", payload.UptimeSeconds)
	}
	if len(payload.Views) != 2 {
		t.Errorf("views = %v, want small and lazy", payload.Views)
	}
	if st := payload.Views["small"]; st.Refreshes != 2 || st.FilteredOut != 1 {
		t.Errorf("small stats = %+v, want 2 refreshes and 1 filtered", st)
	}
	byName := make(map[string]obs.SeriesSnapshot)
	for _, s := range payload.Metrics {
		key := s.Name
		for _, lk := range []string{"view", "endpoint"} {
			if v, ok := s.Labels[lk]; ok {
				key += "|" + v
			}
		}
		byName[key] = s
	}
	if s, ok := byName["mview_commits_total"]; !ok || s.Type != "counter" || s.Value != 2 {
		t.Errorf("mview_commits_total snapshot = %+v", s)
	}
	cs, ok := byName["mview_commit_seconds"]
	if !ok || cs.Type != "histogram" || cs.Count != 2 || len(cs.Buckets) == 0 {
		t.Errorf("mview_commit_seconds snapshot = %+v", cs)
	}
	if len(cs.Buckets) > 0 && cs.Buckets[len(cs.Buckets)-1].LE != "+Inf" {
		t.Errorf("last bucket = %+v, want +Inf", cs.Buckets[len(cs.Buckets)-1])
	}
}

func TestSharedRegistryAndTracer(t *testing.T) {
	reg := obs.NewRegistry()
	tr := &obs.CollectingTracer{}
	db := mview.Open(mview.WithObs(reg, tr))
	h := NewWith(db, WithObs(reg, tr))
	seedTraffic(t, h)

	// HTTP and engine metrics land in the one shared registry.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mview_commits_total 2", `endpoint="POST /v1/exec"`} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("shared registry missing %q", want)
		}
	}
	// The tracer saw both http.request and db.commit spans.
	seen := map[string]bool{}
	for _, s := range tr.Spans {
		seen[s.Name] = true
	}
	for _, want := range []string{"http.request", "db.commit", "db.refresh", "diffeval.compute"} {
		if !seen[want] {
			t.Errorf("tracer missing span %q (saw %v)", want, seen)
		}
	}
}

func TestWithoutObsDisablesSurface(t *testing.T) {
	h := New(WithoutObs())
	doJSON(t, h, "POST", "/v1/relations", `{"name":"r","attrs":["A"]}`, http.StatusCreated)
	doJSON(t, h, "GET", "/metrics", "", http.StatusNotFound)
	doJSON(t, h, "GET", "/debug/stats", "", http.StatusNotFound)
}
