package harness

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"
)

// window is the slice of a phase one sample is taken over. The
// open-loop phase reports the trimmed mean of its windows: on a shared
// two-core sandbox a single 100 ms hiccup otherwise decides a
// ten-second p99. The closed-loop phase reports totals; its windows
// are logged, and show the throughput modes a run passed through.
const window = time.Second

// loadPlan is the timing of one measured run.
type loadPlan struct {
	spec   WorkloadSpec
	warmup time.Duration // every lane closed-loop, unrecorded, at the end of set-up
	open   time.Duration // open-loop phase
	closed time.Duration // closed-loop phase
}

func newLoadPlan(spec WorkloadSpec, seconds float64) loadPlan {
	half := time.Duration(seconds / 2 * float64(time.Second))
	return loadPlan{spec: spec, warmup: half / 10, open: half, closed: half}
}

// streamLen is how many transactions one writer may need: the open
// loop at the frozen rate, and warm-up and closed loop at up to twice
// the closed-loop capacity the rate was frozen from.
func (p loadPlan) streamLen(writers int) int {
	total := p.spec.OpenLoopRate*p.open.Seconds() + 2*p.spec.ClosedLoopCapacity*(p.closed+p.warmup).Seconds()
	return int(total/float64(writers)) + 64
}

// load is the client side of one deployment: the lanes and what they
// measured.
type load struct {
	sc      *Scenario
	plan    loadPlan
	writers []*lane
	reader  *lane // nil without a read view

	// Open-loop results: latencies with the due time (from the phase
	// start) of the operation each belongs to.
	openCommit timed // due→response
	openRead   timed
	visible    timed // writer's due time of seq s → first read holding s
	schedLag   []int64
	backlog    string // non-empty when the backlog was still growing

	// Closed-loop results.
	windows          []closedWindow
	commits, reads   int
	closedSecs       float64
	cpu              procSample // delta over the phase
	hwmKB            float64
	walBytes         float64
	attempted, fails int64
	firstErr         error
}

// timed is a set of latencies, each with the time (from the phase
// start) it is attributed to.
type timed struct{ lat, at []int64 }

func (t *timed) add(lat, at []int64) {
	t.lat = append(t.lat, lat...)
	t.at = append(t.at, at...)
}

// perWindowMS returns the trimmed mean over the phase's windows of f of
// each window's sorted latencies, in milliseconds.
func (t timed) perWindowMS(f func(sorted []int64) float64) float64 {
	byWindow := make(map[int64][]int64)
	for i, at := range t.at {
		w := at / int64(window)
		byWindow[w] = append(byWindow[w], t.lat[i])
	}
	per := make([]float64, 0, len(byWindow))
	for _, lat := range byWindow {
		sortInt64(lat)
		per = append(per, f(lat))
	}
	return trimmedMean(per)
}

// quantileMS is the windows' q-quantile.
func (t timed) quantileMS(q float64) float64 {
	return t.perWindowMS(func(sorted []int64) float64 { return quantileMS(sorted, q) })
}

// meanMS is the windows' mean latency.
func (t timed) meanMS() float64 {
	return t.perWindowMS(func(lat []int64) float64 {
		var sum int64
		for _, x := range lat {
			sum += x
		}
		return float64(sum) / float64(len(lat)) / 1e6
	})
}

// phaseQuantileMS is the q-quantile over the whole phase, hiccups,
// checkpoint stall and all.
func (t timed) phaseQuantileMS(q float64) float64 {
	all := append([]int64(nil), t.lat...)
	sortInt64(all)
	return quantileMS(all, q)
}

// closedWindow is one window of the closed-loop phase.
type closedWindow struct {
	secs           float64
	commits, reads float64
	cpuTicks       float64
}

func newLoad(dep Deployment, sc *Scenario, plan loadPlan, streams []*Stream) (*load, error) {
	ld := &load{sc: sc, plan: plan}
	for _, st := range streams {
		c, err := newConn(dep.Leader())
		if err != nil {
			ld.close()
			return nil, err
		}
		ld.writers = append(ld.writers, &lane{c: c, stream: st, checkpointAt: -1, inflight: -1})
	}
	if sc.ReadView != "" {
		c, err := newConn(dep.Follower())
		if err != nil {
			ld.close()
			return nil, err
		}
		ld.reader = &lane{c: c, get: appendRequest(nil, "GET", "/v1/views/"+sc.ReadView, nil), checkpointAt: -1, inflight: -1}
	}
	return ld, nil
}

func (ld *load) lanes() []*lane {
	ls := append([]*lane(nil), ld.writers...)
	if ld.reader != nil {
		ls = append(ls, ld.reader)
	}
	return ls
}

func (ld *load) close() {
	for _, l := range ld.lanes() {
		l.c.close()
	}
}

// each runs f on every lane, one goroutine per lane, and waits.
func (ld *load) each(f func(i int, l *lane)) {
	var wg sync.WaitGroup
	for i, l := range ld.lanes() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i, l)
		}()
	}
	wg.Wait()
}

// account folds the lanes' attempts and failures of the last phase
// into the run's totals.
func (ld *load) account() {
	for _, l := range ld.lanes() {
		ld.attempted += int64(l.sent)
		ld.fails += int64(l.failed)
		if l.err != nil && ld.firstErr == nil {
			ld.firstErr = l.err
		}
	}
}

func (ld *load) warmUp() error {
	deadline := time.Now().Add(ld.plan.warmup)
	ld.each(func(_ int, l *lane) { l.closedLoop(deadline, false) })
	for _, l := range ld.lanes() {
		if l.err != nil {
			return fmt.Errorf("warm-up: %w", l.err)
		}
	}
	return nil
}

// maxSeq finds the largest SEQ in a GET /v1/views/recent body. Rows
// are sorted by their values and SEQ is the first column, so it is the
// first number of the last row; scanning from the end avoids decoding
// 500 rows on every read.
func maxSeq(body []byte) (int64, bool) {
	const marker = `{"Values":[`
	i := bytes.LastIndex(body, []byte(marker))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(marker):]
	j := bytes.IndexAny(rest, ",]")
	if j <= 0 {
		return 0, false
	}
	v, err := strconv.ParseInt(string(rest[:j]), 10, 64)
	return v, err == nil
}

// openLoop runs the open-loop phase: every writer sends at its share
// of the frozen rate, the reader at the frozen read rate.
func (ld *load) openLoop() {
	w := len(ld.writers)
	interval := time.Duration(float64(w) / ld.plan.spec.OpenLoopRate * float64(time.Second))
	n := int(ld.plan.open / interval)
	start := time.Now().Add(5 * time.Millisecond)
	if ld.sc.Checkpoint {
		ld.writers[0].checkpointAt = n / 2
	}
	var readInterval time.Duration
	var readN int
	if ld.reader != nil {
		readInterval = time.Duration(float64(time.Second) / ld.plan.spec.ReadRate)
		readN = int(ld.plan.open / readInterval)
		// Transaction i of the writer's stream inserts SEQ firstSeq+i and
		// was due at start + (i-first)·interval.
		first, seen := ld.writers[0].next, int64(-1)
		base := ld.sc.firstSeq()
		ld.reader.onRead = func(body []byte, done time.Time) {
			top, ok := maxSeq(body)
			if !ok {
				return
			}
			idx := top - base // stream index of the newest visible transaction
			if seen < int64(first)-1 {
				seen = int64(first) - 1
			}
			for i := seen + 1; i <= idx && i < int64(first+n); i++ {
				at := time.Duration(i-int64(first)) * interval
				ld.visible.lat = append(ld.visible.lat, int64(done.Sub(start.Add(at))))
				ld.visible.at = append(ld.visible.at, int64(at))
			}
			if idx > seen {
				seen = idx
			}
		}
	}
	ld.each(func(i int, l *lane) {
		if l == ld.reader {
			l.openLoop(start, readInterval, readN)
			return
		}
		// Stagger the writers so arrivals are evenly spaced overall.
		l.openLoop(start.Add(time.Duration(i)*interval/time.Duration(w)), interval, n)
	})
	ld.account()
	ld.writers[0].checkpointAt = -1
	for _, l := range ld.writers {
		ld.openCommit.add(l.lat, l.dueAt)
		ld.schedLag = append(ld.schedLag, l.schedLag...)
		// The backlog is growing when the sends of the last tenth of the
		// phase typically left later than the latency limit allows, and
		// later than those of the tenth before the three-quarter mark.
		// (Typically: one hiccup at the very end is not a backlog.)
		if m := len(l.behind); m >= 20 {
			last := medianMS(l.behind[m*9/10:])
			earlier := medianMS(l.behind[m*65/100 : m*75/100])
			if last > ld.plan.spec.LatencyLimitMS && last > earlier {
				ld.backlog = fmt.Sprintf("the last tenth of the sends left %.1f ms behind schedule (%.1f ms before the 3/4 mark, limit %g ms)",
					last, earlier, ld.plan.spec.LatencyLimitMS)
			}
		}
	}
	if ld.reader != nil {
		ld.openRead.add(ld.reader.lat, ld.reader.dueAt)
		ld.schedLag = append(ld.schedLag, ld.reader.schedLag...)
		ld.reader.onRead = nil
	}
	sortInt64(ld.schedLag)
}

// closedLoop runs the closed-loop phase, sampling acknowledged
// operations and the daemons' CPU time once per window. With crash
// set, the writers keep sending past the end of the phase and the
// leader is killed under them after killAfter, so that the durability
// check has transactions in flight; crashedAt is when SIGKILL was sent.
// atDeadline runs when the phase ends, while the daemons are alive.
func (ld *load) closedLoop(ctx context.Context, dep Deployment, crash bool, killAfter time.Duration, atDeadline func()) (crashedAt time.Time) {
	before := dep.Proc()
	walBefore := dirBytes(dep.DataDir(), "commit.log")
	begin := time.Now()
	deadline := begin.Add(ld.plan.closed)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ld.each(func(_ int, l *lane) { l.closedLoop(deadline, crash && l != ld.reader) })
	}()
	acked := func() (commits, reads float64) {
		for _, l := range ld.writers {
			commits += float64(l.acked.Load())
		}
		if ld.reader != nil {
			reads = float64(ld.reader.acked.Load())
		}
		return commits, reads
	}
	last, lastCPU := begin, before
	var lastCommits, lastReads float64
	after := before
	win := min(window, ld.plan.closed)
	for end := begin.Add(win); !end.After(deadline) && ctx.Err() == nil; end = end.Add(win) {
		time.Sleep(time.Until(end))
		now := time.Now()
		commits, reads := acked()
		after = dep.Proc()
		ld.windows = append(ld.windows, closedWindow{
			secs:     now.Sub(last).Seconds(),
			commits:  commits - lastCommits,
			reads:    reads - lastReads,
			cpuTicks: after.userTicks + after.sysTicks - lastCPU.userTicks - lastCPU.sysTicks,
		})
		last, lastCPU, lastCommits, lastReads = now, after, commits, reads
	}
	time.Sleep(time.Until(deadline))
	ld.walBytes = dirBytes(dep.DataDir(), "commit.log") - walBefore
	atDeadline()
	if crash {
		time.Sleep(killAfter)
		crashedAt = time.Now()
		dep.Crash()
	}
	<-done
	ld.account()
	ld.cpu = procSample{
		userTicks:   after.userTicks - before.userTicks,
		sysTicks:    after.sysTicks - before.sysTicks,
		ctxSwitches: after.ctxSwitches - before.ctxSwitches,
	}
	ld.hwmKB = after.hwmKB
	ld.commits, ld.reads = int(lastCommits), int(lastReads)
	ld.closedSecs = last.Sub(begin).Seconds()
	return crashedAt
}

// cpuMSPerKop is the daemons' CPU milliseconds per thousand client
// operations over the whole closed-loop phase. A ratio of sums, not a
// mean of per-window ratios: a window's CPU time hardly changes while
// its operation count swings with the commit-group mode.
func (ld *load) cpuMSPerKop() float64 {
	var ticks, ops float64
	for _, w := range ld.windows {
		ticks += w.cpuTicks
		ops += w.commits + w.reads
	}
	return ratio(ticks*1000/ticksPerSecond, ops/1000)
}
