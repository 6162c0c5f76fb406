package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mview"
)

// parentViewBody is GET /v1/views/{name} as the handler rendered it
// before the per-version memo — reflection over a map through
// json.Encoder — kept as the byte-identity reference.
func parentViewBody(rows []mview.Row, attrs []string, spec string, staleness float64) []byte {
	body := map[string]any{"schema": attrs, "rows": rows, "count": len(rows)}
	body["policy"] = spec
	body["staleness_seconds"] = staleness
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(body)
	return buf.Bytes()
}

// parentReady is the SSE ready payload as the handler rendered it
// before the memo.
func parentReady(name string, rows []mview.Row, attrs []string) []byte {
	b, _ := json.Marshal(map[string]any{"view": name, "schema": attrs, "rows": rows})
	return b
}

// viewBody is the part of a view GET body the tests inspect.
type viewBody struct {
	Count     int         `json:"count"`
	Policy    string      `json:"policy"`
	Rows      []mview.Row `json:"rows"`
	Schema    []string    `json:"schema"`
	Staleness float64     `json:"staleness_seconds"`
}

// TestViewGetByteIdentity: over random views — empty, arity 1 to 6,
// int64 extremes, §5.2 counts above one, every policy spec, deferred
// views with a non-zero staleness — the memoised GET body and the SSE
// ready event are byte for byte what the
// reflection-based handler produced.
func TestViewGetByteIdentity(t *testing.T) {
	db := mview.Open()
	defer db.Close()
	attrs := []string{"A", "B", "C", "D", "E", "F"}
	if err := db.CreateRelation("r", attrs...); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateRelation("e", "X"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	policies := []string{"oncommit", "ondemand", "every=1h", "maxstale=1h", "autopolicy"}
	type view struct {
		name string
		spec mview.ViewSpec
		pol  string
	}
	views := []view{
		{"empty", mview.ViewSpec{From: []string{"e"}}, "oncommit"},
		{"dup", mview.ViewSpec{From: []string{"r"}, Select: []string{"A"}}, "oncommit"},
	}
	for k := 1; k <= 6; k++ {
		sel := slices.Clone(attrs)
		rng.Shuffle(len(sel), func(i, j int) { sel[i], sel[j] = sel[j], sel[i] })
		views = append(views, view{fmt.Sprintf("a%d", k),
			mview.ViewSpec{From: []string{"r"}, Select: sel[:k]}, policies[k%len(policies)]})
	}
	for _, pol := range policies {
		views = append(views, view{"p_" + strings.NewReplacer("=", "_").Replace(pol),
			mview.ViewSpec{From: []string{"r"}, Where: "A < 0", Select: []string{"A", "B"}}, pol})
	}
	extremes := []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, -1000}
	n := 0
	insert := func(rows int) {
		t.Helper()
		var ops []mview.Op
		for i := 0; i < rows; i++ {
			row := make([]int64, len(attrs))
			for j := range row {
				if rng.Intn(3) == 0 {
					row[j] = extremes[rng.Intn(len(extremes))]
				} else {
					row[j] = rng.Int63n(21) - 10
				}
			}
			row[len(row)-1] = int64(n) // distinct rows
			n++
			ops = append(ops, mview.Insert("r", row...))
		}
		if _, err := db.Exec(ops...); err != nil {
			t.Fatal(err)
		}
	}
	insert(150)
	for _, v := range views {
		opt, err := mview.ParseViewOption(v.pol)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.CreateView(v.name, v.spec, opt); err != nil {
			t.Fatal(err)
		}
	}
	// Committed after the DDL, so the deferred policies hold a backlog
	// and report a non-zero staleness.
	insert(50)

	h := NewWith(db)
	srv := httptest.NewServer(h)
	defer srv.Close()
	var sawCount2, sawStale bool
	for _, v := range views {
		rows, err := db.View(v.name)
		if err != nil {
			t.Fatal(err)
		}
		schema, err := db.ViewSchema(v.name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := db.Policy(v.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			sawCount2 = sawCount2 || r.Count > 1
		}
		for _, path := range []string{"/v1/views/" + v.name} {
			rec := raw(t, h, "GET", path, "")
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
			}
			// staleness_seconds moves with the wall clock, so the
			// reference encodes the value this body carries: equal bytes
			// then also prove the float was formatted as encoding/json
			// formats it.
			var got viewBody
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			sawStale = sawStale || got.Staleness > 0
			want := parentViewBody(rows, schema, p.Spec, got.Staleness)
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("GET %s diverges from the encoding/json rendering:\n got: %s\nwant: %s", path, rec.Body, want)
			}
			if cl := rec.Header().Get("Content-Length"); cl != fmt.Sprint(len(want)) {
				t.Errorf("GET %s: Content-Length %q, body %d bytes", path, cl, len(want))
			}
		}
		ready := readyEvent(t, srv.URL, v.name)
		if want := parentReady(v.name, rows, schema); !bytes.Equal(ready, want) {
			t.Fatalf("ready event for %s diverges:\n got: %s\nwant: %s", v.name, ready, want)
		}
	}
	if !sawCount2 || !sawStale {
		t.Fatalf("cases not exercised: count>1 %v, staleness>0 %v", sawCount2, sawStale)
	}
}

// readyEvent opens a watch stream and returns the ready event's data.
func readyEvent(t *testing.T, base, view string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/views/" + view + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if line, err := br.ReadString('\n'); err != nil || line != "event: ready\n" {
		t.Fatalf("watch %s: first line %q, %v", view, line, err)
	}
	line, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "data: ") {
		t.Fatalf("watch %s: data line %q, %v", view, line, err)
	}
	if blank, err := br.ReadString('\n'); err != nil || blank != "\n" {
		t.Fatalf("watch %s: event not terminated: %q, %v", view, blank, err)
	}
	return []byte(strings.TrimSuffix(strings.TrimPrefix(line, "data: "), "\n"))
}

// TestViewGetOneSnapshot: every field of a view GET comes from one
// snapshot. A writer drops and re-creates the view at another arity
// and flips its policy while readers GET it. A handler that loads the
// snapshot once per field tears: rows of one version under the schema
// of another (rows of the wrong width), or rows of a version whose
// schema lookup then finds the view dropped (a 500).
func TestViewGetOneSnapshot(t *testing.T) {
	db := mview.Open()
	defer db.Close()
	if err := db.CreateRelation("r", "A", "B", "C"); err != nil {
		t.Fatal(err)
	}
	var ops []mview.Op
	for i := int64(0); i < 200; i++ {
		ops = append(ops, mview.Insert("r", i, i%7, -i))
	}
	if _, err := db.Exec(ops...); err != nil {
		t.Fatal(err)
	}
	specs := []mview.ViewSpec{
		{From: []string{"r"}, Select: []string{"A", "B", "C"}},
		{From: []string{"r"}, Select: []string{"A"}},
	}
	if err := db.CreateView("v", specs[0]); err != nil {
		t.Fatal(err)
	}
	h := NewWith(db)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // DDL churn until the readers finish
		defer wg.Done()
		pols := []string{"ondemand", "oncommit", "every=1h"}
		for i := 1; !stop.Load(); i++ {
			if err := db.DropView("v"); err != nil {
				t.Error(err)
				return
			}
			if err := db.CreateView("v", specs[i%2]); err != nil {
				t.Error(err)
				return
			}
			opt, _ := mview.ParseViewOption(pols[i%len(pols)])
			if err := db.SetPolicy("v", opt); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	const readers, gets = 4, 2000
	var torn, served atomic.Int64
	var rg sync.WaitGroup
	// Readers keep going past gets until one of them has found the view,
	// so a loaded host that keeps hitting the drop/re-create gap cannot
	// end the test with nothing checked.
	deadline := time.Now().Add(10 * time.Second)
	for g := 0; g < readers; g++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for i := 0; (i < gets || served.Load() == 0) && torn.Load() == 0 && time.Now().Before(deadline); i++ {
				rec := raw(t, h, "GET", "/v1/views/v", "")
				if rec.Code == http.StatusNotFound {
					continue // between the drop and the re-create
				}
				var b viewBody
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &b) != nil {
					torn.Add(1)
					t.Errorf("GET: %d %.200s", rec.Code, rec.Body)
					return
				}
				served.Add(1)
				for _, r := range b.Rows {
					if len(r.Values) != len(b.Schema) {
						torn.Add(1)
						t.Errorf("torn read: row %v under schema %v", r.Values, b.Schema)
						return
					}
				}
			}
		}()
	}
	rg.Wait()
	stop.Store(true)
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no GET found the view")
	}
}

// TestViewGetMemoStress runs readers against group-committed writers
// (go test -race; make race repeats it): every body parses, its rows
// are strictly ascending, and its count is its number of rows.
func TestViewGetMemoStress(t *testing.T) {
	db := mview.Open(mview.WithGroupCommit(8, 200*time.Microsecond))
	defer db.Close()
	if err := db.CreateRelation("r", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("v", mview.ViewSpec{From: []string{"r"}, Where: "A < 150"}); err != nil {
		t.Fatal(err)
	}
	h := NewWith(db)
	const writers, txs, readers = 4, 60, 3
	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < txs; i++ {
				a := int64(w*50 + rng.Intn(50))
				op := mview.Insert("r", a, int64(i))
				if i%3 == 2 {
					op = mview.Delete("r", a, int64(i-1))
				}
				if _, err := db.Exec(op); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var rg sync.WaitGroup
	for g := 0; g < readers; g++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for !done.Load() {
				rec := raw(t, h, "GET", "/v1/views/v", "")
				var b viewBody
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &b) != nil {
					t.Errorf("GET: %d %.200s", rec.Code, rec.Body)
					return
				}
				if b.Count != len(b.Rows) {
					t.Errorf("count %d, %d rows", b.Count, len(b.Rows))
					return
				}
				for i := 1; i < len(b.Rows); i++ {
					if slices.Compare(b.Rows[i-1].Values, b.Rows[i].Values) >= 0 {
						t.Errorf("rows not strictly ascending: %v then %v", b.Rows[i-1].Values, b.Rows[i].Values)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	rg.Wait()
}

// writeCounter counts the Write calls a handler makes.
type writeCounter struct {
	*httptest.ResponseRecorder
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(p)
}

// TestViewGetOneWrite: a view GET hands its whole response to one
// ResponseWriter.Write, envelope and memoised body together, twice in a
// row (the second from a pooled buffer) with the same bytes.
func TestViewGetOneWrite(t *testing.T) {
	db := mview.Open()
	defer db.Close()
	if err := db.CreateRelation("r", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("v", mview.ViewSpec{From: []string{"r"}}); err != nil {
		t.Fatal(err)
	}
	var ops []mview.Op
	for i := range 500 {
		ops = append(ops, mview.Insert("r", int64(i), int64(i*7)))
	}
	if _, err := db.Exec(ops...); err != nil {
		t.Fatal(err)
	}
	h := NewWith(db)
	var bodies []string
	for range 2 {
		w := &writeCounter{ResponseRecorder: httptest.NewRecorder()}
		h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/views/v", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET: %d %s", w.Code, w.Body)
		}
		if w.writes != 1 {
			t.Fatalf("a %d-byte view GET made %d Writes, want 1", w.Body.Len(), w.writes)
		}
		if cl := w.Header().Get("Content-Length"); cl != fmt.Sprint(w.Body.Len()) {
			t.Fatalf("Content-Length %q, body %d bytes", cl, w.Body.Len())
		}
		bodies = append(bodies, w.Body.String())
	}
	if bodies[0] != bodies[1] {
		t.Fatalf("the pooled buffer changed the body:\n%s\n%s", bodies[0], bodies[1])
	}
}
