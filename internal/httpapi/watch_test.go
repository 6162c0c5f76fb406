package httpapi

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mview"
)

// TestWatchStreamsChanges drives the SSE endpoint end to end: a
// subscriber connects, a transaction commits, and the change event
// arrives on the stream.
func TestWatchStreamsChanges(t *testing.T) {
	db := mview.Open()
	if err := db.CreateRelation("r", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("low", mview.ViewSpec{From: []string{"r"}, Where: "A < 5"}); err != nil {
		t.Fatal(err)
	}
	// Pre-existing state must arrive with the ready event, so a
	// subscriber needs no separate racy GET to catch up.
	if _, err := db.Exec(mview.Insert("r", 1, 10)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewWith(db))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/views/low/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	reader := bufio.NewReader(resp.Body)

	// The ready handshake arrives first, carrying the current rows.
	line, err := reader.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "event: ready") {
		t.Fatalf("handshake = %q, %v", line, err)
	}
	line, err = reader.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "data: ") {
		t.Fatalf("ready payload = %q, %v", line, err)
	}
	if !strings.Contains(line, `"view":"low"`) || !strings.Contains(line, `[1,10]`) {
		t.Fatalf("ready payload missing initial state: %q", line)
	}

	// Commit a relevant change once the subscriber is attached.
	done := make(chan error, 1)
	go func() {
		_, err := db.Exec(mview.Insert("r", 3, 30))
		done <- err
	}()

	deadline := time.After(5 * time.Second)
	var data string
	for data == "" {
		select {
		case <-deadline:
			t.Fatal("no event within deadline")
		default:
		}
		line, err := reader.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		if strings.HasPrefix(line, "data: {\"View\"") {
			data = strings.TrimSpace(strings.TrimPrefix(line, "data: "))
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(data, `"View":"low"`) || !strings.Contains(data, `"Values":[3,30]`) {
		t.Errorf("event payload = %s", data)
	}

	// An event is the view's net change: on π_A r, a replace that keeps
	// A sends nothing, so the next event is the insert that follows it.
	if err := db.CreateView("pa", mview.ViewSpec{From: []string{"r"}, Select: []string{"A"}}); err != nil {
		t.Fatal(err)
	}
	presp, err := http.Get(srv.URL + "/v1/views/pa/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	preader := bufio.NewReader(presp.Body)
	if line, err := preader.ReadString('\n'); err != nil || !strings.HasPrefix(line, "event: ready") {
		t.Fatalf("pa handshake = %q, %v", line, err)
	}
	if _, err := db.Exec(mview.Delete("r", 1, 10), mview.Insert("r", 1, 11)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(mview.Insert("r", 2, 20)); err != nil {
		t.Fatal(err)
	}
	for data = ""; data == ""; {
		line, err := preader.ReadString('\n')
		if err != nil {
			t.Fatalf("pa stream read: %v", err)
		}
		if strings.HasPrefix(line, "data: {\"View\"") {
			data = strings.TrimSpace(strings.TrimPrefix(line, "data: "))
		}
	}
	if want := `{"View":"pa","Inserts":[{"Values":[2],"Count":1}],"Deletes":[]}`; data != want {
		t.Errorf("first pa event = %s, want %s", data, want)
	}
}

// TestWatchSlowConsumerDropsEvents: a watcher that stays connected but
// stops reading must not stall commits — events past the stream buffer
// are dropped, and the stream keeps working once the consumer resumes.
func TestWatchSlowConsumerDropsEvents(t *testing.T) {
	db := mview.Open()
	if err := db.CreateRelation("r", "A"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("v", mview.ViewSpec{From: []string{"r"}}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewWith(db))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/views/v/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reader := bufio.NewReader(resp.Body)
	if line, err := reader.ReadString('\n'); err != nil || !strings.HasPrefix(line, "event: ready") {
		t.Fatalf("handshake = %q, %v", line, err)
	}

	// The consumer now reads nothing. Push far more events than the
	// watch buffer (16) holds; every commit must complete promptly.
	const commits = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < commits; i++ {
			if _, err := db.Exec(mview.Insert("r", int64(i))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("commits stalled behind a slow watch consumer")
	}

	// Resuming the read still yields events (the buffered head of the
	// stream); the dropped middle is the documented trade-off.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("no event readable after consumer resumed")
		default:
		}
		line, err := reader.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read after resume: %v", err)
		}
		if strings.HasPrefix(line, "data: {\"View\"") {
			if !strings.Contains(line, `"View":"v"`) {
				t.Fatalf("unexpected event %q", line)
			}
			return
		}
	}
}

func TestWatchUnknownView(t *testing.T) {
	srv := httptest.NewServer(New())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/views/zzz/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

// TestWatchDisconnectUnsubscribes: closing the client connection must
// release the subscription so later commits do not block or leak.
func TestWatchDisconnectUnsubscribes(t *testing.T) {
	db := mview.Open()
	_ = db.CreateRelation("r", "A")
	_ = db.CreateView("v", mview.ViewSpec{From: []string{"r"}})
	srv := httptest.NewServer(NewWith(db))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/views/v/watch")
	if err != nil {
		t.Fatal(err)
	}
	reader := bufio.NewReader(resp.Body)
	if _, err := reader.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() // client goes away

	// Commits keep working; eventually the handler notices the dead
	// context. Fill well past the channel buffer to prove commits
	// never block on the dead consumer.
	for i := 0; i < 64; i++ {
		if _, err := db.Exec(mview.Insert("r", int64(i))); err != nil {
			t.Fatalf("commit %d after disconnect: %v", i, err)
		}
	}
}
