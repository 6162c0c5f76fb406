package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"mview"
	"mview/internal/httpapi"
	"mview/internal/obs"
)

// inProcess is a Deployment inside the test process: httptest servers
// over mview.Open / OpenDurable / OpenFollower, wired like cmd/mviewd.
type inProcess struct {
	t        *testing.T
	sc       *Scenario
	mode     obsMode
	dir      string
	leader   *served
	follower *served
}

type served struct {
	db  *mview.DB
	srv *httptest.Server
}

func (s *served) stop() {
	if s == nil {
		return
	}
	s.srv.CloseClientConnections()
	s.srv.Close()
	_ = s.db.Close()
}

func (s *served) dialer() dialer {
	addr := strings.TrimPrefix(s.srv.URL, "http://")
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// serve opens a database and serves it with the observability the
// mode asks for, as cmd/mviewd's run does.
func (p *inProcess) serve(open func(opts ...mview.Option) (*mview.DB, error), group, replicate bool) (*served, error) {
	var dbOpts []mview.Option
	var hOpts []httpapi.Option
	switch p.mode {
	case obsOff:
		hOpts = append(hOpts, httpapi.WithoutObs())
	case obsRegistry:
		reg := obs.NewRegistry()
		dbOpts = append(dbOpts, mview.WithObs(reg, nil))
		hOpts = append(hOpts, httpapi.WithObs(reg, nil))
	case obsTraced:
		reg, fr := obs.NewRegistry(), obs.NewFlightRecorder(256, 250*time.Millisecond)
		dbOpts = append(dbOpts, mview.WithObs(reg, fr))
		hOpts = append(hOpts, httpapi.WithObs(reg, fr), httpapi.WithFlightRecorder(fr))
	}
	if group {
		dbOpts = append(dbOpts, mview.WithGroupCommit(0, 2*time.Millisecond))
	}
	db, err := open(dbOpts...)
	if err != nil {
		return nil, err
	}
	if replicate {
		rs, err := db.ReplicationServer()
		if err != nil {
			return nil, err
		}
		hOpts = append(hOpts, httpapi.WithReplication(rs))
	}
	return &served{db: db, srv: httptest.NewServer(httpapi.NewWith(db, hOpts...))}, nil
}

func (p *inProcess) openLeader(opts ...mview.Option) (*mview.DB, error) {
	if p.sc.Durable {
		return mview.OpenDurable(p.dir, opts...)
	}
	return mview.Open(opts...), nil
}

func (p *inProcess) Start(context.Context) error {
	if p.sc.Durable {
		p.dir = p.t.TempDir()
	}
	s, err := p.serve(p.openLeader, p.sc.Group, p.sc.ReadView != "")
	p.leader = s
	return err
}

func (p *inProcess) StartFollower(context.Context) error {
	s, err := p.serve(func(opts ...mview.Option) (*mview.DB, error) {
		return mview.OpenFollower(p.leader.srv.URL, "test-follower", opts...)
	}, false, false) // -follow excludes -group-commit and -replicate
	p.follower = s
	return err
}

func (p *inProcess) Leader() dialer { return p.leader.dialer() }

func (p *inProcess) Follower() dialer {
	if p.follower == nil {
		return nil
	}
	return p.follower.dialer()
}

func (p *inProcess) Proc() procSample { return sampleProc(os.Getpid()) }

func (p *inProcess) DataDir() string { return p.dir }

func (p *inProcess) Crash() {
	p.leader.stop()
	p.leader = nil
}

func (p *inProcess) Restart(context.Context) error {
	s, err := p.serve(p.openLeader, p.sc.Group, p.sc.ReadView != "")
	p.leader = s
	return err
}

func (p *inProcess) Stop() {
	p.follower.stop()
	p.leader.stop()
	p.follower, p.leader = nil, nil
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesSpec: BENCHMARK.json is the driver's subset
// of spec.json; the two must not drift apart.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := readBenchmarkJSON(t)
	spec, err := LoadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(spec.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.json %d", len(b.Workloads), len(spec.Workloads))
	}
	for i, w := range spec.Workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why || w.Name != WorkloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, spec.json %q, WorkloadNames %q", i, b.Workloads[i].Name, w.Name, WorkloadNames[i])
		}
		if w.OpenLoopRate <= 0 || w.LatencyLimitMS <= 0 {
			t.Errorf("workload %s has no frozen rate or latency limit", w.Name)
		}
	}
	if len(b.EndToEnd) != len(spec.EndToEnd) || len(b.PerLayer) != len(spec.PerLayer) {
		t.Fatalf("metric lists differ in length: %d/%d end to end, %d/%d per layer",
			len(b.EndToEnd), len(spec.EndToEnd), len(b.PerLayer), len(spec.PerLayer))
	}
	seen := make(map[string]bool)
	check := func(name, unit, better string, s MetricSpec) {
		if name != s.Name || unit != s.Unit || better != s.Better {
			t.Errorf("BENCHMARK.json has %s %s %s, spec.json %s %s %s", name, unit, better, s.Name, s.Unit, s.Better)
		}
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", name)
		}
		if better != "higher" && better != "lower" {
			t.Errorf("metric %s: better = %q", name, better)
		}
		if seen[name] {
			t.Errorf("metric %s is declared twice", name)
		}
		seen[name] = true
	}
	var hasSetup bool
	for i, m := range b.EndToEnd {
		check(m.Name, m.Unit, m.Better, spec.EndToEnd[i])
		if m.Bound != spec.EndToEnd[i].Bound || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v (spec.json %v)", m.Name, m.Bound, spec.EndToEnd[i].Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for i, m := range b.PerLayer {
		check(m.Name, m.Unit, m.Better, spec.PerLayer[i])
		if s := spec.PerLayer[i]; s.ShouldMove == "" || len(s.On) == 0 || !strings.Contains("PTO", s.Src) {
			t.Errorf("per-layer metric %s lacks its source, its should-move prediction or its workloads", m.Name)
		}
	}
}

// TestEveryWorkloadAtToyScale runs all four workloads in both modes
// against in-process servers and checks the ledger's shape.
func TestEveryWorkloadAtToyScale(t *testing.T) {
	b := readBenchmarkJSON(t)
	spec, err := LoadSpec()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, name := range WorkloadNames {
		for _, trace := range []bool{false, true} {
			r := &Runner{Spec: spec, Clients: 2, Deploy: func(sc *Scenario, mode obsMode) (Deployment, error) {
				return &inProcess{t: t, sc: sc, mode: mode}, nil
			}}
			traceDir := t.TempDir()
			res, err := r.Run(context.Background(), Options{
				Workload: name, Seed: 7, Seconds: 0.4, Trace: trace, Size: 0.01,
				SetupReps: 1, Scratch: t.TempDir(), TraceDir: traceDir,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%q",
					name, trace, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			// Every declared name exactly once, with its unit.
			want := make(map[string]string)
			declaredOn := make(map[string]bool)
			if trace {
				for i, m := range b.PerLayer {
					want[m.Name] = m.Unit
					declaredOn[m.Name] = slices.Contains(spec.PerLayer[i].On, name)
				}
			} else {
				for i, m := range b.EndToEnd {
					want[m.Name] = m.Unit
					declaredOn[m.Name] = slices.Contains(spec.EndToEnd[i].Workloads, name)
				}
			}
			got := make(map[string]bool)
			for _, m := range res.Metrics {
				unit, ok := want[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s is not in BENCHMARK.json", name, m.Name)
				case got[m.Name]:
					t.Errorf("%s: metric %s emitted twice", name, m.Name)
				case unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", name, m.Name, m.Unit, unit)
				}
				got[m.Name] = true
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s is %v", name, m.Name, m.Value)
				}
				if declaredOn[m.Name] && m.Samples == 0 {
					t.Errorf("%s: metric %s is declared on this workload but has no samples", name, m.Name)
				}
			}
			for n := range want {
				if !got[n] {
					t.Errorf("%s trace=%v: metric %s was not emitted", name, trace, n)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(traceDir, name+".trace.json")); err != nil {
					t.Errorf("%s: no trace file: %v", name, err)
				}
			}
		}
	}
	t.Logf("eight toy runs took %v", time.Since(start))
}

// TestOutputCheckCatchesCorruptRow: a view row whose §5.2 count is off
// by one, or whose value is wrong, fails the check.
func TestOutputCheckCatchesCorruptRow(t *testing.T) {
	sc, err := NewScenario("join-maint", 3, 0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	model, err := NewModel(sc)
	if err != nil {
		t.Fatal(err)
	}
	dep := &inProcess{t: t, sc: sc, mode: obsOff}
	defer dep.Stop()
	if err := bringUp(context.Background(), dep, sc); err != nil {
		t.Fatal(err)
	}
	get, closeGet, err := getter(dep.Leader())
	if err != nil {
		t.Fatal(err)
	}
	defer closeGet()
	if err := model.CheckViews("leader", get); err != nil {
		t.Fatalf("clean views failed the check: %v", err)
	}
	if err := model.CheckRelations("leader", get); err != nil {
		t.Fatalf("clean relations failed the check: %v", err)
	}
	corrupt := func(old, new string) fetcher {
		return func(path string) ([]byte, error) {
			raw, err := get(path)
			if err == nil && path == "/v1/views/jproj" {
				if !bytes.Contains(raw, []byte(old)) {
					t.Fatalf("view body has no %q to corrupt", old)
				}
				raw = bytes.Replace(raw, []byte(old), []byte(new), 1)
			}
			return raw, err
		}
	}
	if err := model.CheckViews("leader", corrupt(`"Count":`, `"Count":1`)); err == nil {
		t.Error("a corrupted count passed the check")
	}
	if err := model.CheckViews("leader", corrupt(`"Values":[`, `"Values":[9`)); err == nil {
		t.Error("a corrupted value passed the check")
	}
}

// TestQuartilesMatchPython pins quartiles to
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v, %v; Python gives 1, 3", q1, q3)
	}
}

func TestMaxSeq(t *testing.T) {
	body := []byte(`{"count":2,"policy":"oncommit","rows":[{"Values":[41,9,107],"Count":1},{"Values":[42,10,108],"Count":1}],"schema":["win.SEQ"]}`)
	if v, ok := maxSeq(body); !ok || v != 42 {
		t.Errorf("maxSeq = %v, %v; want 42", v, ok)
	}
	if _, ok := maxSeq([]byte(`{"count":0,"rows":[]}`)); ok {
		t.Error("maxSeq found a row in an empty view")
	}
}
