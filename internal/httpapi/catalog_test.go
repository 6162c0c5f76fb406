package httpapi

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mview"
	"mview/internal/obs"
)

// eventOnlyFamilies register on the first event of a kind a scripted
// workload cannot provoke on cue: a scheduler refresh that fails, and
// an adaptive view's mode flip (it follows measured read/write rates).
var eventOnlyFamilies = map[string]bool{
	"mview_policy_refresh_failures_total": true,
	"mview_policy_adaptive_flips_total":   true,
}

// readmeMetricFamilies returns the mview_* names in the first column of
// README's metrics table.
func readmeMetricFamilies(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile("`(mview_[a-z_]+)")
	out := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "| `mview_") {
			continue
		}
		first, _, _ := strings.Cut(line[1:], "|")
		for _, m := range name.FindAllStringSubmatch(first, -1) {
			out[m[1]] = true
		}
	}
	return out
}

// TestMetricsCatalogMatchesReadme runs a scripted mixed workload — a
// durable group-committing leader serving HTTP with one follower, a
// filtered view, an on-demand view, a scheduled view, a checkpoint —
// and requires the metric families it registers to be exactly those
// README's metrics table documents, less the event-only ones, which
// must be documented too.
func TestMetricsCatalogMatchesReadme(t *testing.T) {
	reg := obs.NewRegistry()
	leader, err := mview.OpenDurable(t.TempDir(), mview.WithObs(reg, nil), mview.WithGroupCommit(8, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	srv, err := leader.ReplicationServer()
	if err != nil {
		t.Fatal(err)
	}
	srv.Poll = 200 * time.Microsecond
	srv.Heartbeat = 5 * time.Millisecond
	ts := httptest.NewServer(NewWith(leader, WithReplication(srv)))
	defer ts.Close()
	call := func(method, path, body string, want int) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s = %d, want %d", method, path, resp.StatusCode, want)
		}
	}

	call("POST", "/v1/relations", `{"name":"r","attrs":["A","B"]}`, http.StatusCreated)
	call("POST", "/v1/views", `{"name":"small","from":["r"],"where":"A < 10","options":["filtered"]}`, http.StatusCreated)
	call("POST", "/v1/views", `{"name":"lazy","from":["r"],"where":"B > 0","options":["ondemand"]}`, http.StatusCreated)
	call("POST", "/v1/views", `{"name":"tick","from":["r"],"options":["every=5ms"]}`, http.StatusCreated)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				call("POST", "/v1/exec", fmt.Sprintf(`{"ops":[{"op":"insert","rel":"r","values":[%d,%d]}]}`, w*10+i, i+1), http.StatusOK)
			}
		}(w)
	}
	wg.Wait()
	call("POST", "/v1/views/lazy/refresh", "", http.StatusOK)
	call("GET", "/v1/views/small", "", http.StatusOK)

	follower, err := mview.OpenFollower(ts.URL, "f1")
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	call("POST", "/v1/exec", `{"ops":[{"op":"insert","rel":"r","values":[99,1]}]}`, http.StatusOK)
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	registered := func() map[string]bool {
		call("GET", "/metrics", "", http.StatusOK) // refreshes the scrape-time gauges
		out := make(map[string]bool)
		for _, s := range reg.Snapshot() {
			out[s.Name] = true
		}
		return out
	}
	// The follower's acks and the scheduled view's refresh land
	// asynchronously.
	got := registered()
	for deadline := time.Now().Add(15 * time.Second); !got["mview_repl_follower_ack_lsn"] || !got["mview_policy_refreshes_total"]; got = registered() {
		if time.Now().After(deadline) {
			t.Fatal("the follower never acknowledged, or the scheduled view never refreshed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	documented := readmeMetricFamilies(t)
	var missing, undocumented []string
	for name := range documented {
		if !got[name] && !eventOnlyFamilies[name] {
			missing = append(missing, name)
		}
	}
	for name := range got {
		if !documented[name] {
			undocumented = append(undocumented, name)
		}
	}
	for name := range eventOnlyFamilies {
		if !documented[name] {
			undocumented = append(undocumented, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(undocumented)
	if len(missing) > 0 {
		t.Errorf("documented in README but not registered: %v", missing)
	}
	if len(undocumented) > 0 {
		t.Errorf("registered but not in README's metrics table: %v", undocumented)
	}
}
