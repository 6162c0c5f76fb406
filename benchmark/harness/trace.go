package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"time"
)

// Span is one interval of the traced pass. The harness records a span
// around each of its own calls (client.exec, client.read); for sampled
// transactions the server's flight-recorder spans are hung under it.
type Span struct {
	ID      uint64         `json:"id"`
	Parent  uint64         `json:"parent,omitempty"`
	Trace   uint64         `json:"trace"` // spans of one request share it
	Name    string         `json:"name"`
	StartNS int64          `json:"start_ns"` // Unix nanoseconds
	EndNS   int64          `json:"end_ns"`
	SelfUS  float64        `json:"self_us"` // duration minus the part child spans cover
	Tx      int            `json:"tx"`      // stream index of the transaction; -1 for reads
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// serverTrace is GET /v1/debug/traces/{id}.
type serverTrace struct {
	ID    uint64    `json:"id"`
	Start time.Time `json:"start"`
	Spans []struct {
		ID      uint64         `json:"id"`
		Parent  uint64         `json:"parent"`
		Name    string         `json:"name"`
		Offset  float64        `json:"offset_seconds"`
		Seconds float64        `json:"seconds"`
		Attrs   map[string]any `json:"attrs"`
	} `json:"spans"`
}

// traceEvery is how often the traced pass pulls a transaction's
// server-side trace (the recorder's ring holds 256).
const traceEvery = 50

// counts are the traced pass's work counters; with one client and no
// timers they must repeat exactly from one repetition to the next.
type counts struct {
	commits, tested, discarded, rows, joinSteps, walBytes, fsyncs float64
}

// pass is what one single-client, fixed-count pass measured.
type pass struct {
	execNS   int64 // sum of client.exec span durations
	spans    []Span
	counts   counts
	leader   [2]promSnap // before, after
	follower [2]promSnap
	lagSecs  []float64
	lagLSN   []float64
	resyncs  float64
	ckptSize float64
	oracle   struct{ tested, discarded float64 } // the generator's own filter count
}

// runPass brings up a fresh deployment and sends n transactions of
// writer 0's stream from one connection, one after the other.
func (r *Runner) runPass(ctx context.Context, o Options, mode obsMode, n int) (*pass, error) {
	sc, err := NewScenario(o.Workload, o.Seed, o.Size, r.Clients)
	if err != nil {
		return nil, err
	}
	model, err := NewModel(sc)
	if err != nil {
		return nil, err
	}
	st := sc.Generate(0, n)
	dep, err := r.Deploy(sc, mode)
	if err != nil {
		return nil, err
	}
	defer dep.Stop()
	if err := bringUp(ctx, dep, sc); err != nil {
		return nil, fmt.Errorf("traced pass set-up: %w", err)
	}
	lc, err := newConn(dep.Leader())
	if err != nil {
		return nil, err
	}
	defer lc.close()
	lget := func(path string) ([]byte, error) { return lc.call("GET", path, nil) }
	var fc *conn
	var fget fetcher
	if dep.Follower() != nil {
		if fc, err = newConn(dep.Follower()); err != nil {
			return nil, err
		}
		defer fc.close()
		fget = func(path string) ([]byte, error) { return fc.call("GET", path, nil) }
	}
	p := &pass{}
	traced := mode == obsTraced
	if traced {
		if p.leader[0], err = scrapeMetrics(lget); err != nil {
			return nil, err
		}
		if fget != nil {
			if p.follower[0], err = scrapeMetrics(fget); err != nil {
				return nil, err
			}
		}
	}
	readReq := appendRequest(nil, "GET", "/v1/views/"+sc.ReadView, nil)
	lagEvery := max(1, n/10) // ask the leader for the follower's lag ten times a pass
	var nextID uint64
	span := func(name string, tx int, t0, t1 time.Time) int {
		nextID++
		p.spans = append(p.spans, Span{ID: nextID, Trace: nextID, Name: name, Tx: tx,
			StartNS: t0.UnixNano(), EndNS: t1.UnixNano(), SelfUS: float64(t1.Sub(t0).Nanoseconds()) / 1e3})
		return len(p.spans) - 1
	}
	for i := 0; i < n; i++ {
		if sc.Checkpoint && i == n/2 {
			if _, err := lc.call("POST", "/v1/checkpoint", []byte{}); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		status, body, err := lc.do(st.Request(i))
		t1 := time.Now()
		if err != nil || status != 200 {
			return nil, fmt.Errorf("traced pass tx %d: status %d err %v: %s", i, status, err, body)
		}
		p.execNS += t1.Sub(t0).Nanoseconds()
		for _, op := range st.Tx(i) {
			for _, v := range sc.Views {
				if v.filtered() && slices.Contains(v.From, sc.Rels[op.Rel].Name) {
					p.oracle.tested++
					if !v.relevant(op.Rel, op.V) {
						p.oracle.discarded++
					}
				}
			}
		}
		if !traced {
			continue
		}
		sp := span("client.exec", i, t0, t1)
		if i%traceEvery == 0 {
			var info struct{ Trace uint64 }
			if err := json.Unmarshal(body, &info); err == nil && info.Trace != 0 {
				p.attachServerTrace(lget, sp, info.Trace, &nextID)
			}
		}
		if fget != nil && i%10 == 0 {
			t0 := time.Now()
			if status, body, err := fc.do(readReq); err != nil || status != 200 {
				return nil, fmt.Errorf("traced pass read: status %d err %v: %s", status, err, body)
			}
			span("client.read", -1, t0, time.Now())
		}
		if fget != nil && (i+1)%lagEvery == 0 {
			var st struct {
				Followers []struct {
					LagLSN     float64 `json:"lag_lsn"`
					LagSeconds float64 `json:"lag_seconds"`
				} `json:"followers"`
			}
			raw, err := lget("/v1/replication/status")
			if err != nil {
				return nil, err
			}
			if err := json.Unmarshal(raw, &st); err != nil {
				return nil, err
			}
			for _, f := range st.Followers {
				p.lagLSN = append(p.lagLSN, f.LagLSN)
				p.lagSecs = append(p.lagSecs, f.LagSeconds)
			}
		}
	}
	for i := 0; i < n; i++ {
		if err := model.Apply(st.Tx(i)); err != nil {
			return nil, err
		}
	}
	if err := model.CheckViews("leader (traced pass)", lget); err != nil {
		return nil, err
	}
	if fget != nil {
		if err := waitFor(ctx, 10*time.Second, func() error { return model.CheckViews("follower (traced pass)", fget) }); err != nil {
			return nil, err
		}
	}
	if !traced {
		return p, nil
	}
	if p.leader[1], err = scrapeMetrics(lget); err != nil {
		return nil, err
	}
	if fget != nil {
		if p.follower[1], err = scrapeMetrics(fget); err != nil {
			return nil, err
		}
		var stats struct {
			Client struct {
				Resyncs float64 `json:"resyncs"`
			} `json:"replication_client"`
		}
		raw, err := fget("/debug/stats")
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(raw, &stats); err != nil {
			return nil, err
		}
		p.resyncs = stats.Client.Resyncs
	}
	p.ckptSize = dirBytes(dep.DataDir(), "ckpt-")
	d := p.leaderDelta
	p.counts = counts{
		commits:   d("mview_commits_total"),
		tested:    d("mview_filter_discarded_total") + d("mview_filter_passed_total"),
		discarded: d("mview_filter_discarded_total"),
		rows:      d("mview_diffeval_rows_total"),
		joinSteps: d("mview_diffeval_join_steps_total"),
		walBytes:  d("mview_wal_bytes_written_total"),
		fsyncs:    d("mview_wal_fsyncs_total"),
	}
	return p, nil
}

// leaderDelta is how much a leader metric grew over the pass.
func (p *pass) leaderDelta(name string, labelFrags ...string) float64 {
	return p.leader[1].sum(name, labelFrags...) - p.leader[0].sum(name, labelFrags...)
}

// attachServerTrace pulls one flight-recorder trace and hangs its
// spans under the client span (p.spans[parent]) that caused it. The
// client span's self time is what the server's root span does not
// cover: the kernel, the HTTP framing on both sides, and the generator.
func (p *pass) attachServerTrace(get fetcher, parent int, id uint64, nextID *uint64) {
	raw, err := get("/v1/debug/traces/" + strconv.FormatUint(id, 10))
	if err != nil {
		return // evicted already: the sample is lost, the pass is not
	}
	var t serverTrace
	if json.Unmarshal(raw, &t) != nil || len(t.Spans) == 0 {
		return
	}
	parentID, trace, tx := p.spans[parent].ID, p.spans[parent].Trace, p.spans[parent].Tx
	base := *nextID
	start := t.Start.UnixNano()
	covered := make(map[uint64]float64) // child seconds per server span
	for _, s := range t.Spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.Seconds
		}
	}
	for _, s := range t.Spans {
		sp := Span{ID: base + s.ID, Parent: base + s.Parent, Trace: trace, Name: s.Name, Tx: tx, Attrs: s.Attrs,
			StartNS: start + int64(s.Offset*1e9), EndNS: start + int64((s.Offset+s.Seconds)*1e9),
			SelfUS: max(0, s.Seconds-covered[s.ID]) * 1e6}
		if s.Parent == 0 {
			sp.Parent = parentID
			p.spans[parent].SelfUS = max(0, p.spans[parent].SelfUS-s.Seconds*1e6)
		}
		p.spans = append(p.spans, sp)
		if base+s.ID > *nextID {
			*nextID = base + s.ID
		}
	}
}

// stageNames are mviewd's commit-pipeline stages, as labelled on
// mview_commit_stage_seconds.
var stageNames = []string{"queue_wait", "net", "compose", "maint", "slowest_task", "validate", "fsync", "install", "publish"}

// runTraced makes the traced passes — two traced repetitions whose
// counts must agree exactly, and one untraced for the overhead — and
// reports the layers they show.
func (r *Runner) runTraced(ctx context.Context, o Options, ms *metricSet, res *Result) error {
	n := max(40, int(o.Seconds*50))
	p, err := r.runPass(ctx, o, obsTraced, n)
	if err != nil {
		return err
	}
	again, err := r.runPass(ctx, o, obsTraced, n)
	if err != nil {
		return err
	}
	plain, err := r.runPass(ctx, o, obsOff, n)
	if err != nil {
		return err
	}
	if p.counts != again.counts {
		res.Correct = false
		res.Notes = append(res.Notes, fmt.Sprintf("traced pass counts did not repeat: %+v then %+v", p.counts, again.counts))
	}
	if p.counts.tested != p.oracle.tested || p.counts.discarded != p.oracle.discarded {
		res.Correct = false
		res.Notes = append(res.Notes, fmt.Sprintf("filter counted %v tested / %v discarded, the generator %v / %v",
			p.counts.tested, p.counts.discarded, p.oracle.tested, p.oracle.discarded))
	}
	o.logf("# %s: traced pass %d tx, %d spans; counts %+v", o.Workload, n, len(p.spans), p.counts)

	c, d := p.counts, p.leaderDelta
	commits := int(c.commits)
	var stageSum float64
	stage := make(map[string]float64)
	for _, s := range stageNames {
		us := ratio(d("mview_commit_stage_seconds_sum", `stage="`+s+`"`)*1e6, c.commits)
		stage[s] = us
		if s != "slowest_task" { // already inside maint's wall time
			stageSum += us
		}
		ms.set("db.stage."+s+"_us", us, commits)
	}
	httpExec := ratio(d("mview_http_request_seconds_sum", `endpoint="POST /v1/exec"`)*1e6,
		d("mview_http_request_seconds_count", `endpoint="POST /v1/exec"`))
	ms.set("client.residual_us", float64(p.execNS)/1e3/float64(n)-httpExec, n)
	ms.set("irrelevance.discard_ratio", ratio(c.discarded, c.tested), int(c.tested))
	ms.set("diffeval.rows_per_commit", ratio(c.rows, c.commits), commits)
	ms.set("diffeval.join_steps_per_commit", ratio(c.joinSteps, c.commits), commits)
	fsyncs := d("mview_wal_fsync_seconds_count")
	ms.set("wal.fsync_us", ratio(d("mview_wal_fsync_seconds_sum")*1e6, fsyncs), int(fsyncs))
	ms.set("wal.fsyncs_per_commit", ratio(c.fsyncs, c.commits), commits)
	ms.set("wal.bytes_per_commit", ratio(c.walBytes, c.commits), commits)
	ckpts := d("mview_checkpoint_seconds_count")
	ms.set("ckpt.duration_ms", ratio(d("mview_checkpoint_seconds_sum")*1e3, ckpts), int(ckpts))
	ms.set("ckpt.fence_hold_ms", ratio(d("mview_checkpoint_fence_seconds_sum")*1e3, ckpts), int(ckpts))
	ms.set("ckpt.bytes", p.ckptSize, int(ckpts))
	ms.set("repl.lag_seconds_p50", median(p.lagSecs), len(p.lagSecs))
	ms.set("repl.lag_lsn_mean", mean(p.lagLSN), len(p.lagLSN))
	ms.set("repl.resyncs", p.resyncs, len(p.lagLSN))
	var applyUS, applied float64
	if p.follower[1] != nil {
		fd := func(name string, frags ...string) float64 {
			return p.follower[1].sum(name, frags...) - p.follower[0].sum(name, frags...)
		}
		// A follower counts no commits of its own; every batch it applies
		// passes through the publish stage once.
		applied = fd("mview_commit_stage_seconds_count", `stage="publish"`)
		for _, s := range stageNames {
			if s != "slowest_task" {
				applyUS += fd("mview_commit_stage_seconds_sum", `stage="`+s+`"`) * 1e6
			}
		}
	}
	ms.set("repl.apply_us_per_commit", ratio(applyUS, applied), int(applied))
	ms.set("obs.trace_overhead_frac", 1-ratio(float64(plain.execNS), float64(p.execNS)), n)

	// Traffic verified, not guessed: say where the commit's time went.
	share := func(us float64) float64 { return ratio(us, stageSum) }
	res.Notes = append(res.Notes, fmt.Sprintf(
		"traced pass: stage sum %.1f us/commit, of which maint %.2f, fsync+queue_wait %.2f, net %.2f; discard_ratio %.4f; wal bytes/commit %.1f",
		stageSum, share(stage["maint"]), share(stage["fsync"]+stage["queue_wait"]), share(stage["net"]),
		ratio(c.discarded, c.tested), ratio(c.walBytes, c.commits)))

	if o.TraceDir != "" {
		if err := writeTrace(o, p.spans); err != nil {
			return err
		}
	}
	return nil
}

// writeTrace writes the pass's spans, in start order, when the pass
// has ended.
func writeTrace(o Options, spans []Span) error {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	if err := os.MkdirAll(o.TraceDir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(map[string]any{"workload": o.Workload, "seed": o.Seed, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.TraceDir, o.Workload+".trace.json"), raw, 0o644)
}
