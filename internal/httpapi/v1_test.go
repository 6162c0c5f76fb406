package httpapi

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"mview"
)

func raw(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestUnversionedRoutesGone: every route that used to be served at an
// unversioned path as well answers 404 there, and its /v1 twin still
// answers as before.
func TestUnversionedRoutesGone(t *testing.T) {
	h := setup(t) // r(A,B), s(C,D), view v
	routes := []struct {
		method, path, body string
		code               int // the /v1 twin's status
	}{
		{"POST", "/relations", `{"name":"t","attrs":["A"]}`, http.StatusCreated},
		{"GET", "/relations/r", "", http.StatusOK},
		{"POST", "/views", `{"name":"w","from":["r"]}`, http.StatusCreated},
		{"GET", "/views/v", "", http.StatusOK},
		{"GET", "/views/v/stats", "", http.StatusOK},
		{"GET", "/views/v/explain", "", http.StatusOK},
		{"POST", "/views/v/refresh", "", http.StatusOK},
		{"GET", "/views/v/relevant?rel=r&values=9,10", "", http.StatusOK},
		{"POST", "/exec", `{"ops":[{"op":"insert","rel":"r","values":[9,10]}]}`, http.StatusOK},
		{"GET", "/catalog", "", http.StatusOK},
		{"POST", "/checkpoint", "", http.StatusConflict}, // in-memory database
	}
	for _, rt := range routes {
		if rec := raw(t, h, rt.method, rt.path, rt.body); rec.Code != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", rt.method, rt.path, rec.Code)
		}
		if rec := raw(t, h, rt.method, "/v1"+rt.path, rt.body); rec.Code != rt.code {
			t.Errorf("%s /v1%s = %d, want %d: %s", rt.method, rt.path, rec.Code, rt.code, rec.Body)
		}
	}
	// The /v1 watch route streams until the client leaves, so only its
	// unversioned twin is driven here (watch_test.go covers /v1).
	if rec := raw(t, h, "GET", "/views/v/watch", ""); rec.Code != http.StatusNotFound {
		t.Errorf("GET /views/v/watch = %d, want 404", rec.Code)
	}
}

// TestV1WriteRoutes pins the canonical write paths end to end: DDL,
// exec and refresh all work under /v1.
func TestV1WriteRoutes(t *testing.T) {
	h := New()
	if code, _ := do(t, h, "POST", "/v1/relations", `{"name":"r","attrs":["A","B"]}`); code != http.StatusCreated {
		t.Fatalf("v1 create relation: %d", code)
	}
	body := `{"name":"v","from":["r"],"where":"A < 10","options":["ondemand"]}`
	if code, _ := do(t, h, "POST", "/v1/views", body); code != http.StatusCreated {
		t.Fatalf("v1 create view: %d", code)
	}
	for _, vals := range []string{"1,2", "3,4"} {
		if code, _ := do(t, h, "POST", "/v1/exec", `{"ops":[{"op":"insert","rel":"r","values":[`+vals+`]}]}`); code != http.StatusOK {
			t.Fatalf("v1 exec %s: %d", vals, code)
		}
	}
	if code, _ := do(t, h, "POST", "/v1/views/v/refresh", ""); code != http.StatusOK {
		t.Fatal("v1 refresh failed")
	}
	code, resp := do(t, h, "GET", "/v1/views/v", "")
	if code != http.StatusOK || resp["count"].(float64) != 2 {
		t.Errorf("v1 view read = %d %v, want both committed rows", code, resp)
	}
}

// TestDebugStatsKeys pins the operational endpoint's top-level keys,
// and that it has no /v1 alias.
func TestDebugStatsKeys(t *testing.T) {
	h := NewWith(mview.Open())
	code, resp := do(t, h, "GET", "/debug/stats", "")
	if code != http.StatusOK {
		t.Fatalf("debug/stats: %d", code)
	}
	var keys []string
	for k := range resp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := "[critical_path group_commit metrics policies snapshot_age_seconds staleness uptime_seconds views]"
	if got := fmt.Sprint(keys); got != want {
		t.Errorf("debug/stats keys = %s, want %s", got, want)
	}
	if rec := raw(t, h, "GET", "/v1/debug/stats", ""); rec.Code != http.StatusNotFound {
		t.Errorf("/v1/debug/stats = %d, want 404 (operational endpoints stay unversioned)", rec.Code)
	}
}
