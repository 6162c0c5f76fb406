package harness

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"
)

// Options selects one run: a workload, a seed, how long to measure,
// and whether to produce the end-to-end or the per-layer metrics.
type Options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Size     Size   // 0 means 1
	TraceDir string // where <workload>.trace.json goes; "" writes none
	Scratch  string // directory for the probes' temporary files
	// SetupReps is how many times the run sets up before measuring
	// (setup_s is their median); 0 means 3.
	SetupReps int
	Log       io.Writer // progress and sample counts
}

// Result is one run's outcome.
type Result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Metrics   []Metric `json:"metrics"`
	Notes     []string `json:"notes,omitempty"`
}

// Runner runs workloads against deployments made by Deploy.
type Runner struct {
	Spec   *Spec
	Deploy Deployer
	// Clients caps the client goroutines and connections; it is
	// runtime.NumCPU() unless a test sets it.
	Clients int
}

// NewRunner returns a runner over the embedded spec.
func NewRunner(deploy Deployer) (*Runner, error) {
	spec, err := LoadSpec()
	if err != nil {
		return nil, err
	}
	return &Runner{Spec: spec, Deploy: deploy, Clients: runtime.NumCPU()}, nil
}

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Run performs one run. The error is for a harness or environment
// failure; a run that completed but found wrong output or failed
// operations returns a Result with Correct false.
func (r *Runner) Run(ctx context.Context, o Options) (*Result, error) {
	wspec, ok := r.Spec.Workload(o.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.Workload, WorkloadNames)
	}
	if o.Size == 0 {
		o.Size = 1
	}
	if o.SetupReps == 0 {
		o.SetupReps = 3
		if o.Trace {
			o.SetupReps = 1 // setup_s is not one of the per-layer metrics
		}
	}
	seconds := o.Seconds
	if o.Trace {
		// The per-layer run spends half its time on the same load (for
		// the layers observed from outside) and the rest on the traced
		// passes and the probes.
		seconds /= 2
	}
	plan := newLoadPlan(wspec, seconds)
	res := &Result{Workload: o.Workload, Seed: o.Seed, Trace: o.Trace, Correct: true}
	specs := r.Spec.EndToEnd
	if o.Trace {
		specs = r.Spec.PerLayer
	}
	ms := newMetricSet(specs)

	lr, err := r.runLoad(ctx, o, plan, res)
	if err != nil {
		return nil, err
	}
	if o.Trace {
		lr.perLayer(ms, res)
		if err := r.runTraced(ctx, o, ms, res); err != nil {
			return nil, err
		}
		if err := r.runProbes(o, ms); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	} else {
		lr.endToEnd(ms)
	}
	if res.Metrics, err = ms.list(specs); err != nil {
		return nil, err
	}
	for _, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
	}
	if !res.Correct {
		res.Failed = res.Attempted // a run that failed its check has no good operations
	}
	return res, nil
}

// loadRun is what the load phases of one run measured.
type loadRun struct {
	ld        *load
	setups    []float64
	recovery  float64 // seconds; 0 when the workload has no recovery step
	groupSize float64 // mean commit-group size over the closed loop (registry runs)
	groups    int
}

// runLoad sets the deployment up (several times, keeping the last),
// runs the open- and closed-loop phases, recovers a durable leader
// from SIGKILL, and checks every output.
func (r *Runner) runLoad(ctx context.Context, o Options, plan loadPlan, res *Result) (*loadRun, error) {
	sc, err := NewScenario(o.Workload, o.Seed, o.Size, r.Clients)
	if err != nil {
		return nil, err
	}
	model, err := NewModel(sc)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	streams := make([]*Stream, sc.Writers)
	for w := range streams {
		streams[w] = sc.Generate(w, plan.streamLen(sc.Writers))
	}
	o.logf("# %s: generated %d×%d transactions in %.2fs", sc.Name, sc.Writers, streams[0].Len(), time.Since(t0).Seconds())

	mode := obsOff
	if o.Trace {
		mode = obsRegistry // the commit-group size is only on /metrics
	}
	lr := &loadRun{}
	var dep Deployment
	defer func() {
		if lr.ld != nil {
			lr.ld.close()
		}
		if dep != nil {
			dep.Stop()
		}
	}()
	for rep := 0; rep < o.SetupReps; rep++ {
		if lr.ld != nil {
			lr.ld.close()
			dep.Stop()
		}
		t0 := time.Now()
		if dep, err = r.Deploy(sc, mode); err != nil {
			return nil, err
		}
		if err := bringUp(ctx, dep, sc); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if lr.ld, err = newLoad(dep, sc, plan, streams); err != nil {
			return nil, err
		}
		if err := lr.ld.warmUp(); err != nil {
			return nil, err
		}
		lr.setups = append(lr.setups, time.Since(t0).Seconds())
	}
	ld := lr.ld

	ld.openLoop()
	var scrape func() (promSnap, error)
	var before promSnap
	if o.Trace {
		get, closeGet, err := getter(dep.Leader())
		if err != nil {
			return nil, err
		}
		defer closeGet()
		scrape = func() (promSnap, error) { return scrapeMetrics(get) }
		if before, err = scrape(); err != nil {
			return nil, err
		}
	}
	// The kill lands a seed-dependent 5–45 ms after the phase, while
	// both writers are still sending.
	killAfter := time.Duration(5+o.Seed%41) * time.Millisecond
	crashedAt := ld.closedLoop(ctx, dep, sc.Durable && sc.ReadView == "", killAfter, func() {
		if scrape == nil {
			return
		}
		if after, err := scrape(); err == nil {
			lr.groups = int(after.sum("mview_group_commit_size_count") - before.sum("mview_group_commit_size_count"))
			lr.groupSize = ratio(after.sum("mview_group_commit_size_sum")-before.sum("mview_group_commit_size_sum"), float64(lr.groups))
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = ld.attempted, ld.fails
	o.logf("# %s: open loop %d commits %d reads %d visibility samples; closed loop %d commits %d reads in %.2fs",
		sc.Name, len(ld.openCommit.lat), len(ld.openRead.lat), len(ld.visible.lat), ld.commits, ld.reads, ld.closedSecs)
	perSec := make([]string, len(ld.windows))
	for i, w := range ld.windows {
		perSec[i] = fmt.Sprintf("%.0f", ratio(w.commits, w.secs))
	}
	o.logf("# %s: closed-loop commits/s per window: %s", sc.Name, strings.Join(perSec, " "))
	if ld.fails > 0 {
		res.Correct = false
		res.Notes = append(res.Notes, fmt.Sprintf("%d of %d operations failed, first: %v", ld.fails, ld.attempted, ld.firstErr))
	}
	if ld.backlog != "" {
		res.Correct = false
		res.Notes = append(res.Notes, "INVALID: the generator's backlog was still growing at the end of the open-loop phase: "+ld.backlog)
	}
	if ld.reader != nil && len(ld.visible.lat) == 0 {
		res.Correct = false
		res.Notes = append(res.Notes, "no follower read showed a sequence number the open-loop phase wrote: client.visible_* cannot be measured")
	}
	if lag := quantileMS(ld.schedLag, 0.99); lag >= 2 {
		res.Notes = append(res.Notes, fmt.Sprintf("generator ran late: client.sched_lag_p99_ms = %.3f (want < 2)", lag))
	}
	if p99 := ld.openCommit.quantileMS(0.99); p99 > plan.spec.LatencyLimitMS {
		res.Notes = append(res.Notes, fmt.Sprintf("client.commit_p99_ms %.3f is over the workload's latency limit of %g ms at %g commits/s",
			p99, plan.spec.LatencyLimitMS, plan.spec.OpenLoopRate))
	}

	// Recovery: restart on the same directory and time the first answer.
	if !crashedAt.IsZero() {
		if err := dep.Restart(ctx); err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		lr.recovery = time.Since(crashedAt).Seconds()
	}
	if err := r.checkOutputs(ctx, dep, sc, model, ld, !crashedAt.IsZero()); err != nil {
		res.Correct = false
		res.Notes = append(res.Notes, "output check failed: "+err.Error())
	}
	return lr, nil
}

// checkOutputs brings the model to the state the acknowledged
// transactions imply and compares every relation and view with it, on
// the leader and on the follower.
func (r *Runner) checkOutputs(ctx context.Context, dep Deployment, sc *Scenario, model *Model, ld *load, crashed bool) error {
	get, closeGet, err := getter(dep.Leader())
	if err != nil {
		return err
	}
	defer closeGet()
	for _, l := range ld.writers {
		for i := 0; i < l.next; i++ {
			if err := model.Apply(l.stream.Tx(i)); err != nil {
				return err
			}
		}
	}
	if crashed {
		// Every acknowledged transaction must be there; one that was in
		// flight may be, whole or not at all.
		for _, l := range ld.writers {
			if l.inflight < 0 {
				continue
			}
			ops := l.stream.Tx(l.inflight)
			applied, err := model.settleInflight(get, ops)
			if err != nil {
				return err
			}
			if applied {
				if err := model.Apply(ops); err != nil {
					return err
				}
			}
		}
	}
	if err := model.CheckRelations("leader", get); err != nil {
		return err
	}
	if err := model.CheckViews("leader", get); err != nil {
		return err
	}
	if dep.Follower() == nil {
		return nil
	}
	fget, closeF, err := getter(dep.Follower())
	if err != nil {
		return err
	}
	defer closeF()
	// The follower applies asynchronously; give it time to drain.
	return waitFor(ctx, 10*time.Second, func() error {
		if err := model.CheckRelations("follower", fget); err != nil {
			return err
		}
		return model.CheckViews("follower", fget)
	})
}

func scrapeMetrics(get fetcher) (promSnap, error) {
	raw, err := get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(raw))
}

// endToEnd reports what a user of the system sees.
func (lr *loadRun) endToEnd(ms *metricSet) {
	ld := lr.ld
	ms.set("setup_s", median(lr.setups), len(lr.setups))
	ms.set("commit_tput", ratio(float64(ld.commits), ld.closedSecs), ld.commits)
	ms.set("commit_p50_ms", ld.openCommit.quantileMS(0.50), len(ld.openCommit.lat))
	ms.set("commit_mean_ms", ld.openCommit.meanMS(), len(ld.openCommit.lat))
	ms.set("server_cpu_ms_per_kop", ld.cpuMSPerKop(), ld.commits+ld.reads)
	ms.set("server_rss_mb", ld.hwmKB/1024, 1)
}

// perLayer reports the layers observed from outside the process, and
// the reader-side and recovery numbers only some workloads have (0 on
// a workload without a reader, a follower or a data directory).
func (lr *loadRun) perLayer(ms *metricSet, res *Result) {
	ld := lr.ld
	ms.set("client.read_tput", ratio(float64(ld.reads), ld.closedSecs), ld.reads)
	ms.set("client.read_p50_ms", ld.openRead.quantileMS(0.50), len(ld.openRead.lat))
	ms.set("client.read_p99_ms", ld.openRead.quantileMS(0.99), len(ld.openRead.lat))
	ms.set("client.visible_p50_ms", ld.visible.quantileMS(0.50), len(ld.visible.lat))
	ms.set("client.visible_p99_ms", ld.visible.quantileMS(0.99), len(ld.visible.lat))
	ms.set("client.commit_p90_ms", ld.openCommit.quantileMS(0.90), len(ld.openCommit.lat))
	ms.set("client.commit_p95_ms", ld.openCommit.quantileMS(0.95), len(ld.openCommit.lat))
	ms.set("client.commit_p99_ms", ld.openCommit.quantileMS(0.99), len(ld.openCommit.lat))
	ms.set("client.commit_p99_phase_ms", ld.openCommit.phaseQuantileMS(0.99), len(ld.openCommit.lat))
	ms.set("client.commit_max_ms", ld.openCommit.phaseQuantileMS(1), len(ld.openCommit.lat))
	ms.set("client.recovery_s", lr.recovery, 1)
	ms.set("client.wal_bytes_per_commit", ratio(ld.walBytes, float64(ld.commits)), ld.commits)
	failFrac := ratio(float64(ld.fails), float64(ld.attempted))
	if !res.Correct {
		failFrac = 1
	}
	ms.set("client.fail_frac", failFrac, int(ld.attempted))
	ms.set("client.sched_lag_p99_ms", quantileMS(ld.schedLag, 0.99), len(ld.schedLag))
	ms.set("db.group_size_mean", lr.groupSize, lr.groups)
	ops := ld.commits + ld.reads
	ms.set("proc.cpu_user_frac", ratio(ld.cpu.userTicks, ld.cpu.userTicks+ld.cpu.sysTicks), ops)
	ms.set("proc.ctx_switches_per_kop", ratio(ld.cpu.ctxSwitches, float64(ops)/1000), ops)
}
