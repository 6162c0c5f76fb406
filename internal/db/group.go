// Group commit: concurrent Execute callers enqueue their transactions
// and a single scheduler goroutine drains the queue in batches. Each
// batch pays ONE log fsync (wal.Log.AppendBatch via the logBatch
// callback), ONE composed 3-phase maintenance pass (§6 composition
// cancels insert/delete churn before it reaches the views), and ONE
// snapshot publish, then fans the per-transaction results back out to
// the waiting callers.
//
// The serial path is the same pipeline (pipeline.go) with a batch of
// one: executeLocked wraps executeBatchLocked, so group-on and group-off
// share every invariant (atomicity, log-before-visible, COW discipline,
// §4 filtering).
package db

import (
	"context"
	"sync"
	"time"

	"mview/internal/delta"
	"mview/internal/diffeval"
)

// DefaultGroupMaxBatch bounds a group when EnableGroupCommit is given
// a non-positive size.
const DefaultGroupMaxBatch = 64

// groupReq is one caller's transaction riding a group.
type groupReq struct {
	tx       *delta.Tx
	payload  []byte    // pre-encoded commit-log record; nil when not durable
	enqueued time.Time // when submit queued the request (queue_wait stage)

	// Filled by the pipeline.
	touched    map[string]bool                // relations in this tx's net effect
	viewDeltas map[string]*diffeval.ViewDelta // per-tx deltas for subscribed views
	res        TxResult
	err        error
	done       chan struct{} // closed when res/err are final
}

// group is the scheduler state. One goroutine (loop) owns batching;
// callers only append to the queue and wait.
type group struct {
	e        *Engine
	maxBatch int
	window   time.Duration
	logBatch func(payloads [][]byte) error // one fsync per call; nil when not durable

	mu       sync.Mutex
	queue    []*groupReq
	lastSize int  // size of the last batch: evidence of concurrency
	closing  bool // reject new submissions; drain what is queued

	wake    chan struct{} // cap 1: queue went non-empty
	full    chan struct{} // cap 1: queue reached maxBatch, cut the window short
	stop    chan struct{}
	stopped chan struct{}
}

// EnableGroupCommit starts the group-commit scheduler: Execute calls
// enqueue and a leader goroutine commits batches of up to maxBatch
// transactions (non-positive: DefaultGroupMaxBatch), waiting up to
// window for stragglers only when there is evidence of concurrency — a
// solo writer never pays the window. logBatch, when non-nil, must
// persist all payloads with a single fsync (wal.Log.AppendBatch);
// it is called before the batch becomes visible.
func (e *Engine) EnableGroupCommit(maxBatch int, window time.Duration, logBatch func([][]byte) error) {
	e.DisableGroupCommit()
	if maxBatch <= 0 {
		maxBatch = DefaultGroupMaxBatch
	}
	if window < 0 {
		window = 0
	}
	g := &group{
		e:        e,
		maxBatch: maxBatch,
		window:   window,
		logBatch: logBatch,
		wake:     make(chan struct{}, 1),
		full:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		stopped:  make(chan struct{}),
	}
	e.group.Store(g)
	go g.loop()
}

// DisableGroupCommit stops the scheduler after draining queued
// transactions; later Execute calls take the serial path. No-op when
// group commit is off.
func (e *Engine) DisableGroupCommit() {
	g := e.group.Swap(nil)
	if g == nil {
		return
	}
	g.mu.Lock()
	g.closing = true
	g.mu.Unlock()
	close(g.stop)
	<-g.stopped
}

// GroupCommitEnabled reports whether the scheduler is running.
func (e *Engine) GroupCommitEnabled() bool { return e.group.Load() != nil }

// submitCtx enqueues a transaction and blocks until its group commits.
// ok=false means the scheduler is shutting down and the caller must
// take the serial path. If ctx ends before a leader claims the request,
// the transaction is withdrawn and ctx's error returned. Once a leader
// has popped the request the commit is in flight and its outcome
// stands — cancellation can skip the wait for a batch, never tear a
// committed member back out.
func (g *group) submitCtx(ctx context.Context, tx *delta.Tx, payload []byte) (TxResult, error, bool) {
	req := &groupReq{tx: tx, payload: payload, enqueued: time.Now(), done: make(chan struct{})}
	g.mu.Lock()
	if g.closing {
		g.mu.Unlock()
		return TxResult{}, nil, false
	}
	g.queue = append(g.queue, req)
	n := len(g.queue)
	target := g.lastSize
	g.mu.Unlock()
	if n == 1 {
		select {
		case g.wake <- struct{}{}:
		default:
		}
	}
	// Cut the leader's window short once the expected cohort is in:
	// writers released by one group re-enqueue together, so the last
	// batch size predicts how many are coming. Without the cut every
	// group would pay the full window; with it the steady-state wait is
	// just the cohort's re-arrival time (microseconds).
	if n >= g.maxBatch || (target > 1 && n >= target) {
		select {
		case g.full <- struct{}{}:
		default:
		}
	}
	if done := ctx.Done(); done != nil {
		select {
		case <-req.done:
		case <-done:
			if g.tryRemove(req) {
				return TxResult{}, ctx.Err(), true
			}
			// A leader already claimed the request: await its verdict.
			<-req.done
		}
	} else {
		<-req.done
	}
	return req.res, req.err, true
}

// tryRemove withdraws a still-queued request; false means a leader has
// already taken it.
func (g *group) tryRemove(req *groupReq) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, r := range g.queue {
		if r == req {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			return true
		}
	}
	return false
}

func (g *group) loop() {
	defer close(g.stopped)
	for {
		select {
		case <-g.wake:
			g.drainAdaptive()
		case <-g.stop:
			g.drain()
			return
		}
	}
}

// drainAdaptive processes batches until the queue is empty. The window
// wait runs only with evidence of concurrency (more than one queued,
// or the previous batch had more than one member): a lone writer
// commits immediately, a burst accumulates into one fsync.
func (g *group) drainAdaptive() {
	for {
		g.mu.Lock()
		n, last := len(g.queue), g.lastSize
		g.mu.Unlock()
		if n == 0 {
			return
		}
		// Wait only with evidence that more members are coming: either
		// the previous batch was concurrent and its cohort has not fully
		// re-arrived (n < last), or concurrency just appeared (n > 1
		// after a serial batch). A lone writer never waits, and once the
		// expected cohort is in, neither does anyone else — submit's
		// early-wake on g.full ends the window immediately, so the
		// window is a straggler ceiling, not a tax.
		var waited time.Duration
		if g.window > 0 && n < g.maxBatch && ((last > 1 && n < last) || (last <= 1 && n > 1)) {
			t := time.NewTimer(g.window)
			start := time.Now()
			select {
			case <-g.full:
			case <-t.C:
			case <-g.stop:
				// Shutting down: commit what is queued without waiting.
			}
			t.Stop()
			waited = time.Since(start)
		}
		batch := g.pop()
		if len(batch) == 0 {
			continue
		}
		if o := g.e.o.Load(); o != nil && o.groupSize != nil {
			o.groupSize.Observe(float64(len(batch)))
			o.groupWait.ObserveDuration(waited)
		}
		g.run(batch, waited)
	}
}

// drain commits everything queued with no window waits (shutdown).
func (g *group) drain() {
	for {
		batch := g.pop()
		if len(batch) == 0 {
			return
		}
		g.run(batch, 0)
	}
}

// pop takes up to maxBatch requests off the queue.
func (g *group) pop() []*groupReq {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := len(g.queue)
	if n > g.maxBatch {
		n = g.maxBatch
	}
	batch := g.queue[:n:n]
	g.queue = append([]*groupReq(nil), g.queue[n:]...)
	g.lastSize = n
	select {
	case <-g.full: // consume a stale early-wake from the served burst
	default:
	}
	return batch
}

// run commits one batch and releases its callers. window is how long
// the leader held the batch open waiting for stragglers.
func (g *group) run(batch []*groupReq, window time.Duration) {
	g.runOnce(batch, window)
	for _, r := range batch {
		close(r.done)
	}
}

// runOnce runs the batch pipeline under its own commit trace
// (db.commit_group). A shared-phase failure in a batch of several
// transactions cannot be attributed to one member, so each remaining
// member retries solo — per-transaction atomicity holds and one
// poisoned transaction never takes the group down with it; each retry
// is its own pipeline run with its own trace. A solo run's shared
// failure IS attributable and lands on the request.
func (g *group) runOnce(batch []*groupReq, window time.Duration) {
	var queueWait time.Duration
	now := time.Now()
	for _, r := range batch {
		if r.enqueued.IsZero() {
			continue
		}
		if w := now.Sub(r.enqueued); w > queueWait {
			queueWait = w
		}
	}
	ct := g.e.newGroupTrace(len(batch), queueWait, window)
	ns, err := g.e.executeBatchLocked(batch, g.logBatch, ct)
	ct.close(err)
	if err != nil {
		if len(batch) == 1 {
			if batch[0].err == nil {
				batch[0].err = err
			}
			return
		}
		for _, r := range batch {
			if r.err != nil {
				continue // per-tx failure already attributed in the failed run
			}
			r.res, r.viewDeltas, r.touched = TxResult{}, nil, nil
			g.runOnce([]*groupReq{r}, 0)
		}
		return
	}
	fire(ns)
}
