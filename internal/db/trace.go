package db

// Commit-pipeline stage instrumentation.
//
// Every run of executeBatchLocked — a group batch or a solo commit —
// is carried by a commitTrace: per-stage wall times feed the
// mview_commit_stage_seconds{stage} histograms and the engine's
// cumulative critical-path accumulators, and (when a tracer is
// attached) each stage becomes a child span of the commit's root span,
// so a hierarchical sink like obs.FlightRecorder reconstructs the full
// tree: root → commit.<stage> → maint.task fan-out.
//
// Stage taxonomy (see ARCHITECTURE.md "Tracing & flight recorder"):
//
//	queue_wait    time the batch's slowest member sat in the group
//	              queue before a leader claimed it (0 for solo commits)
//	net           phase 1: per-tx net effects against the overlay
//	compose       phase 2: §6 composition of the group's net effects
//	maint         phase 3 fan-out wall time (parallel; NOT on the
//	              critical path — slowest_task is its critical component)
//	slowest_task  the longest single (shard × view) maintenance task
//	validate      delta validation before anything becomes visible
//	fsync         phase 4: the batch's single durable log append
//	install       phase 5: base swap, index upkeep, view installs
//	publish       the COW snapshot publish
//
// Every batch observes every stage (0 when a stage had no work), so
// per-stage histogram sums divide a workload's total commit time into
// its critical-path attribution.

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"mview/internal/obs"
)

const (
	stageQueueWait = iota
	stageNet
	stageCompose
	stageMaint
	stageSlowestTask
	stageValidate
	stageFsync
	stageInstall
	stagePublish
	numStages
)

var stageNames = [numStages]string{
	"queue_wait", "net", "compose", "maint", "slowest_task",
	"validate", "fsync", "install", "publish",
}

// critAccum is the engine's cumulative critical-path attribution:
// total time per stage across all batches, read by CriticalPath.
type critAccum struct {
	batches atomic.Int64
	nanos   [numStages]atomic.Int64
}

// StageSummary is one stage's cumulative cost in CriticalPathSummary.
// Share is the stage's fraction of the total critical-path time.
type StageSummary struct {
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
}

// CriticalPathSummary attributes the engine's cumulative commit time
// to pipeline stages. Seconds sums the critical-path stages: every
// sequential stage plus the slowest parallel maintenance task — the
// maint fan-out wall is excluded because slowest_task is its critical
// component (the rest of the fan-out overlapped it).
type CriticalPathSummary struct {
	Batches int64                   `json:"batches"`
	Seconds float64                 `json:"seconds"`
	Stages  map[string]StageSummary `json:"stages"`
}

// CriticalPath returns the engine's cumulative per-stage commit-time
// attribution (see CriticalPathSummary). Counters accumulate from
// engine construction; the summary is a lock-free read.
func (e *Engine) CriticalPath() CriticalPathSummary {
	out := CriticalPathSummary{
		Batches: e.crit.batches.Load(),
		Stages:  make(map[string]StageSummary, numStages-1),
	}
	var secs [numStages]float64
	for i := 0; i < numStages; i++ {
		secs[i] = time.Duration(e.crit.nanos[i].Load()).Seconds()
		if i != stageMaint {
			out.Seconds += secs[i]
		}
	}
	for i := 0; i < numStages; i++ {
		if i == stageMaint {
			continue
		}
		s := StageSummary{Seconds: secs[i]}
		if out.Seconds > 0 {
			s.Share = secs[i] / out.Seconds
		}
		out.Stages[stageNames[i]] = s
	}
	return out
}

// commitTrace carries one pipeline run's stage timing and spans. A nil
// *commitTrace is valid and free: every method no-ops, so the
// obs-detached hot path stays a single atomic load.
type commitTrace struct {
	e        *Engine
	o        *engineObs
	tr       obs.Tracer
	root     obs.SpanContext
	rootSpan obs.Span // owned root (group path); nil when the caller owns it
	crit     [numStages]time.Duration
}

// newCommitTrace wraps a solo commit whose root span (db.commit) is
// owned by ExecuteLoggedCtx; parent is that span's context.
func (e *Engine) newCommitTrace(parent obs.SpanContext) *commitTrace {
	o := e.o.Load()
	if o == nil {
		return nil
	}
	ct := &commitTrace{e: e, o: o, tr: o.tr, root: parent}
	ct.note(stageQueueWait, 0)
	return ct
}

// newGroupTrace opens a batch's own root span (db.commit_group).
// queueWait is the batch's slowest member's time in the scheduler
// queue; window is how long the leader held the batch open.
func (e *Engine) newGroupTrace(txs int, queueWait, window time.Duration) *commitTrace {
	o := e.o.Load()
	if o == nil {
		return nil
	}
	ct := &commitTrace{e: e, o: o, tr: o.tr}
	if o.tr != nil {
		ct.rootSpan, ct.root = obs.StartRoot(o.tr, "db.commit_group",
			obs.KV{K: "txs", V: txs},
			obs.KV{K: "queue_wait", V: queueWait},
			obs.KV{K: "window_wait", V: window})
	}
	ct.note(stageQueueWait, queueWait)
	return ct
}

// tracing reports whether this run produces stage spans. Callsites
// use it to skip building span-attribute KVs: a variadic []KV literal
// escapes into the span sink, so building one unconditionally would
// cost the uninstrumented hot path a heap allocation per stage.
func (ct *commitTrace) tracing() bool { return ct != nil && ct.tr != nil }

// traceID returns the trace the pipeline's spans belong to (0 when
// tracing is off).
func (ct *commitTrace) traceID() uint64 {
	if ct == nil {
		return 0
	}
	return ct.root.Trace
}

// note records a stage duration without a span (queue_wait,
// slowest_task, skipped stages).
func (ct *commitTrace) note(idx int, d time.Duration) {
	if ct == nil {
		return
	}
	ct.crit[idx] += d
	if h := ct.o.stages[idx]; h != nil {
		h.ObserveDuration(d)
	}
}

// stageEnd closes one stage opened by begin.
type stageEnd struct {
	ct   *commitTrace
	idx  int
	span obs.Span
	ctx  obs.SpanContext
	t0   time.Time
}

// begin opens a stage: starts its timer and, when a tracer is
// attached, a commit.<stage> child span whose context fan-out tasks
// parent to (stageEnd.ctx).
func (ct *commitTrace) begin(idx int, kv ...obs.KV) stageEnd {
	if ct == nil {
		return stageEnd{}
	}
	se := stageEnd{ct: ct, idx: idx, t0: time.Now()}
	if ct.tr != nil {
		se.span, se.ctx = obs.StartChild(ct.tr, ct.root, "commit."+stageNames[idx], kv...)
	}
	return se
}

// end closes the stage, feeding its histogram and the critical-path
// accumulator, and returns the stage duration.
func (se stageEnd) end(kv ...obs.KV) time.Duration {
	if se.ct == nil {
		return 0
	}
	d := time.Since(se.t0)
	se.ct.note(se.idx, d)
	if se.span != nil {
		se.span.End(kv...)
	}
	return d
}

// task starts one fan-out child span under a stage (maint.task,
// maint.recompute). Returns nil when tracing is off; callers guard.
func (ct *commitTrace) task(parent obs.SpanContext, name string, kv ...obs.KV) obs.Span {
	if ct == nil || ct.tr == nil {
		return nil
	}
	sp, _ := obs.StartChild(ct.tr, parent, name, kv...)
	return sp
}

// close folds the run's stage times into the engine's cumulative
// attribution and ends the owned root span, if any.
func (ct *commitTrace) close(err error) {
	if ct == nil {
		return
	}
	for i, d := range ct.crit {
		if d != 0 {
			ct.e.crit.nanos[i].Add(int64(d))
		}
	}
	ct.e.crit.batches.Add(1)
	if ct.rootSpan != nil {
		ct.rootSpan.End(obs.KV{K: "err", V: err != nil})
	}
}

// maintRecord captures the actual timings of a view's most recent
// maintenance — the numbers ExplainAnalyze annotates the plan with.
// Recorded unconditionally (no registry or tracer required) on every
// immediate install and deferred refresh.
type maintRecord struct {
	At           time.Time
	Decision     string // metrics decision label, or "deferred_refresh" variants
	Wait         time.Duration
	Compute      time.Duration
	Install      time.Duration
	ShardTasks   int
	ShardsPruned int
	Inserts      int
	Deletes      int
	Trace        uint64 // trace id of the carrying commit/refresh, 0 when untraced
}

const stalenessHelp = "Age in seconds of the view's oldest unapplied change (0 = fresh; deferred views go stale between refreshes). Refreshed when Staleness() is called — the HTTP /metrics and /debug/stats handlers do so on every scrape."

// Staleness reports each view's staleness: the age of its oldest
// unapplied (pending) change, 0 for a fresh view. Immediate views are
// always fresh; a deferred view goes stale the moment a commit stages
// backlog for it and snaps back to 0 when refreshed. As a side effect
// the per-view mview_view_staleness_seconds gauges are brought up to
// date, so metric scrape paths call this before exposition.
func (e *Engine) Staleness() map[string]float64 {
	s := e.currentSnapshot()
	out := make(map[string]float64, len(s.viewOrder))
	o := e.o.Load()
	for _, name := range s.viewOrder {
		sv := s.views[name]
		var v float64
		if !sv.pendingSince.IsZero() {
			v = e.now().Sub(sv.pendingSince).Seconds()
		}
		out[name] = v
		if o != nil {
			o.reg.Gauge("mview_view_staleness_seconds", stalenessHelp, obs.Labels{"view": name}).Set(v)
		}
	}
	return out
}

// SnapshotAge reports the age of the published read snapshot — how
// long ago the last commit, refresh, or DDL statement published.
func (e *Engine) SnapshotAge() time.Duration {
	return time.Since(e.snap.Load().created)
}

// ExplainAnalyze is Explain plus an "analyze" section with actual
// numbers: lifetime maintenance counters, current staleness, and the
// stage timings of the view's most recent maintenance (queue wait,
// compute, install, shard fan-out, delta size, and the trace id to
// look the commit up in the flight recorder).
func (e *Engine) ExplainAnalyze(name string) (string, error) {
	base, err := e.Explain(name)
	if err != nil {
		return "", err
	}
	sv := e.currentSnapshot().views[name]
	if sv == nil {
		return base, nil // raced with a concurrent drop; the plan stands
	}
	var sb strings.Builder
	sb.WriteString(base)
	sb.WriteString("  analyze:\n")
	st := sv.away.addTo(sv.stats)
	fmt.Fprintf(&sb, "    counters: transactions=%d refreshes=%d recomputes=%d pending_tx=%d\n",
		st.Transactions, st.Refreshes, st.Recomputes, st.PendingTx)
	if sv.pendingSince.IsZero() {
		sb.WriteString("    staleness: fresh (no unapplied changes)\n")
	} else {
		fmt.Fprintf(&sb, "    staleness: %s behind (oldest unapplied change)\n",
			time.Since(sv.pendingSince).Round(time.Millisecond))
	}
	lm := sv.lastMaint
	if lm.At.IsZero() {
		sb.WriteString("    last maintenance: none recorded\n")
		return sb.String(), nil
	}
	fmt.Fprintf(&sb, "    last maintenance: %s ago, decision=%s\n",
		time.Since(lm.At).Round(time.Millisecond), lm.Decision)
	fmt.Fprintf(&sb, "      queue_wait=%s compute=%s install=%s",
		lm.Wait.Round(time.Microsecond), lm.Compute.Round(time.Microsecond),
		lm.Install.Round(time.Microsecond))
	if lm.ShardTasks > 0 || lm.ShardsPruned > 0 {
		fmt.Fprintf(&sb, " shard_tasks=%d shards_pruned=%d", lm.ShardTasks, lm.ShardsPruned)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "      delta: +%d/-%d tuples", lm.Inserts, lm.Deletes)
	if lm.Trace != 0 {
		fmt.Fprintf(&sb, " trace=%d", lm.Trace)
	}
	sb.WriteByte('\n')
	return sb.String(), nil
}
