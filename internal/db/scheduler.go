package db

// The refresh scheduler: one timer wheel per engine driving every
// scheduled when-policy (scheduler.go is the "when", db.go's refresh
// machinery the "how").
//
//   - RefreshEvery views refresh on their interval.
//   - RefreshMaxStaleness views are refreshed proactively before the
//     age of their oldest unapplied change (viewState.pendingSince,
//     the same clock Staleness reads) reaches the SLO bound.
//   - RefreshAdaptive views have their write/read balance re-evaluated
//     periodically and their commit-time Mode flipped between
//     Immediate and Deferred — extending chooseAdaptive's cost model
//     from "how to refresh" to "when to refresh".
//   - RefreshPeriodically registrations ride the same wheel, so a
//     hundred callers cost one goroutine, not a hundred tickers.
//
// The wheel goroutine starts lazily on the first scheduled view or
// periodic registration and sleeps until the earliest deadline; commit
// installs that dirty a deferred view poke it so a fresh MaxStaleness
// deadline is planned immediately. Policy state is read from the
// published snapshot (lock-free); only the engine's own refresh entry
// points take the engine lock, exactly as a user-driven refresh would.
//
// Followers never run policy-driven work: they replay the leader's
// policy DDL so the catalog matches, but maintenance arrives composed
// from the stream (DisablePolicyRefresh). Explicit RefreshPeriodically
// registrations still fire — they are a local, caller-owned contract.

import (
	"sync"
	"time"

	"mview/internal/obs"
)

// schedClock is the scheduler's time source; tests substitute a fake
// so interval firing and SLO deadlines are deterministic.
type schedClock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
}

// realClock backs production engines. Now goes through Engine.now so
// the staleness stamps commits write and the deadlines the scheduler
// plans against come from one clock, fake or real.
type realClock struct{ e *Engine }

func (c realClock) Now() time.Time                         { return c.e.now() }
func (c realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// sloHeadroom is the fraction of a MaxStaleness bound at which the
// scheduler refreshes: firing at 80% leaves the refresh itself room to
// complete before the SLO would be breached.
const (
	sloHeadroomNum = 4
	sloHeadroomDen = 5
)

// adaptiveEvalEvery is how often an adaptive view's write/read balance
// is re-evaluated.
const adaptiveEvalEvery = time.Second

// adaptiveWriteFactor is the flip hysteresis: a view goes deferred
// only once writes outnumber reads by this factor over an evaluation
// window, and returns to on-commit as soon as reads catch back up —
// asymmetric on purpose, since serving a stale read is the costlier
// mistake.
const adaptiveWriteFactor = 2

// periodicEntry is one RefreshPeriodically registration. view,
// interval, and onErr are immutable after creation; next is owned by
// the wheel goroutine under the scheduler lock.
type periodicEntry struct {
	view     string
	interval time.Duration
	onErr    func(error)
	next     time.Time
}

// everyState is the wheel position of one RefreshEvery view. The
// interval is recorded so a SetViewPolicy that changes the period
// restarts the cycle.
type everyState struct {
	next     time.Time
	interval time.Duration
}

// adaptState is the per-view bookkeeping of the adaptive when-policy:
// the counter values at the last evaluation, so each window compares
// traffic deltas rather than lifetime totals.
type adaptState struct {
	next       time.Time
	lastWrites int64
	lastReads  int64
	primed     bool
}

type scheduler struct {
	e     *Engine
	clock schedClock
	// wake (capacity 1) coalesces pokes; the wheel replans against
	// fresh engine state after each wake.
	wake chan struct{}

	// mu guards lifecycle and the periodic registry. The policy maps
	// (every, adapt) are owned by the wheel goroutine and need no lock.
	mu       sync.Mutex
	running  bool
	stopped  bool
	disabled bool
	done     chan struct{}
	exited   chan struct{}
	periodic map[int]*periodicEntry
	nextID   int

	every map[string]everyState
	adapt map[string]*adaptState
}

func newScheduler(e *Engine) *scheduler {
	return &scheduler{
		e:        e,
		clock:    realClock{e},
		wake:     make(chan struct{}, 1),
		periodic: make(map[int]*periodicEntry),
		every:    make(map[string]everyState),
		adapt:    make(map[string]*adaptState),
	}
}

// ensure starts the wheel goroutine on first need; later calls are
// cheap no-ops.
func (s *scheduler) ensure() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureLocked()
}

func (s *scheduler) ensureLocked() {
	if s.running || s.stopped {
		return
	}
	s.running = true
	s.done = make(chan struct{})
	s.exited = make(chan struct{})
	go s.run(s.done, s.exited)
}

// poke wakes the wheel so it replans against fresh engine state (a
// commit staged backlog on a MaxStaleness view, a policy changed).
// Nonblocking and lock-free: safe from the commit pipeline.
func (s *scheduler) poke() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// stop terminates the wheel and waits for it to exit; the scheduler
// stays stopped (a closing engine never restarts it). Idempotent.
func (s *scheduler) stop() {
	s.mu.Lock()
	wasStopped := s.stopped
	s.stopped = true
	running := s.running
	done, exited := s.done, s.exited
	s.mu.Unlock()
	if !running {
		return
	}
	if !wasStopped {
		close(done)
	}
	<-exited
}

// disablePolicies turns off policy-driven refreshes (followers: the
// catalog replays the leader's policy DDL, but maintenance arrives
// composed from the stream). Periodic registrations still fire.
func (s *scheduler) disablePolicies() {
	s.mu.Lock()
	s.disabled = true
	s.mu.Unlock()
	s.poke()
}

// addPeriodic registers one RefreshPeriodically caller on the wheel
// and returns its idempotent stop function.
func (s *scheduler) addPeriodic(view string, interval time.Duration, onErr func(error)) (stop func()) {
	s.mu.Lock()
	id := s.nextID
	s.nextID++
	s.periodic[id] = &periodicEntry{
		view:     view,
		interval: interval,
		onErr:    onErr,
		next:     s.clock.Now().Add(interval),
	}
	s.ensureLocked()
	s.mu.Unlock()
	s.poke()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			delete(s.periodic, id)
			s.mu.Unlock()
			s.poke()
		})
	}
}

func (s *scheduler) run(done, exited chan struct{}) {
	defer close(exited)
	for {
		next, ok := s.fireDue()
		var timer <-chan time.Time
		if ok {
			d := next.Sub(s.clock.Now())
			if d < 0 {
				d = 0
			}
			timer = s.clock.After(d)
		}
		select {
		case <-done:
			return
		case <-s.wake:
		case <-timer:
		}
	}
}

// schedAction is one due refresh, gathered first and executed with no
// scheduler lock held (refreshes take the engine lock and fire
// subscriber callbacks, which must be free to call back in).
type schedAction struct {
	view   string
	reason string // metric label: interval | slo | periodic
	onErr  func(error)
}

// fireDue executes everything due now and returns the earliest future
// deadline (ok=false when the wheel has nothing planned and sleeps
// until the next poke).
func (s *scheduler) fireDue() (time.Time, bool) {
	now := s.clock.Now()
	var next time.Time
	earlier := func(t time.Time) {
		if next.IsZero() || t.Before(next) {
			next = t
		}
	}
	var due []schedAction
	var flips []string

	s.mu.Lock()
	disabled := s.disabled
	for _, p := range s.periodic {
		if !p.next.After(now) {
			due = append(due, schedAction{view: p.view, reason: "periodic", onErr: p.onErr})
			p.next = now.Add(p.interval)
		}
		earlier(p.next)
	}
	s.mu.Unlock()

	if !disabled {
		snap := s.e.currentSnapshot()
		seen := make(map[string]bool)
		for name, sv := range snap.views {
			spec := sv.cfg.When
			if spec.scheduled() {
				seen[name] = true
			}
			switch spec.Kind {
			case RefreshEvery:
				if spec.Interval <= 0 {
					continue
				}
				st, ok := s.every[name]
				if !ok || st.interval != spec.Interval {
					st = everyState{next: now.Add(spec.Interval), interval: spec.Interval}
				}
				if !st.next.After(now) {
					due = append(due, schedAction{view: name, reason: "interval"})
					st.next = now.Add(spec.Interval)
				}
				s.every[name] = st
				earlier(st.next)
			case RefreshMaxStaleness:
				if spec.Bound <= 0 || sv.pendingSince.IsZero() {
					continue
				}
				deadline := sv.pendingSince.Add(spec.Bound * sloHeadroomNum / sloHeadroomDen)
				if !deadline.After(now) {
					due = append(due, schedAction{view: name, reason: "slo"})
					// Recheck shortly in case the refresh fails and the
					// backlog survives; a successful refresh clears
					// pendingSince and the recheck is a no-op.
					retry := spec.Bound / 5
					if retry <= 0 {
						retry = time.Millisecond
					}
					earlier(now.Add(retry))
				} else {
					earlier(deadline)
				}
			case RefreshAdaptive:
				ast := s.adapt[name]
				if ast == nil {
					ast = &adaptState{next: now.Add(adaptiveEvalEvery)}
					s.adapt[name] = ast
				}
				if !ast.next.After(now) {
					flips = append(flips, name)
					ast.next = now.Add(adaptiveEvalEvery)
				}
				earlier(ast.next)
			}
		}
		for name := range s.every {
			if !seen[name] {
				delete(s.every, name)
			}
		}
		for name := range s.adapt {
			if !seen[name] {
				delete(s.adapt, name)
			}
		}
	}

	for _, a := range due {
		err := s.e.RefreshView(a.view)
		if o := s.e.o.Load(); o != nil {
			o.reg.Counter("mview_policy_refreshes_total",
				"Scheduler-driven view refreshes by reason.",
				obs.Labels{"reason": a.reason}).Add(1)
		}
		if err != nil && a.onErr != nil {
			a.onErr(err)
		}
	}
	for _, name := range flips {
		s.evalAdaptive(name, s.adapt[name])
	}
	return next, !next.IsZero()
}

// evalAdaptive compares one adaptive view's write and read traffic
// over the window since the last evaluation and flips its commit-time
// Mode when the balance crossed. Flipping back to Immediate drains the
// accumulated backlog under the same lock hold, so a commit can never
// observe an immediate view with stale data.
func (s *scheduler) evalAdaptive(name string, ast *adaptState) {
	e := s.e
	e.mu.Lock()
	st, ok := e.views[name]
	if !ok || st.cfg.When.Kind != RefreshAdaptive {
		e.mu.Unlock()
		return
	}
	w, r := int64(st.stats.Transactions)+st.away.transactions.Load(), st.reads.Load()
	dw, dr := w-ast.lastWrites, r-ast.lastReads
	ast.lastWrites, ast.lastReads = w, r
	if !ast.primed {
		// First window: counters just baselined, no traffic observed yet.
		ast.primed = true
		e.mu.Unlock()
		return
	}
	var ns []notification
	switch {
	case st.cfg.Mode == Immediate && dw > adaptiveWriteFactor*dr:
		st.cfg.Mode = Deferred
		st.snapDirty = true
		e.publishLocked()
	case st.cfg.Mode == Deferred && dr >= dw && dr > 0:
		j, err := e.buildRefreshJob(st)
		if err == nil && j != nil {
			j.run()
			ns, err = e.installRefreshJob(j)
		}
		if err != nil {
			e.mu.Unlock() // stay deferred; retried next window
			return
		}
		st.cfg.Mode = Immediate
		st.snapDirty = true
		e.publishLocked()
	default:
		e.mu.Unlock()
		return
	}
	if o := e.o.Load(); o != nil {
		mode := "immediate"
		if st.cfg.Mode == Deferred {
			mode = "deferred"
		}
		o.reg.Counter("mview_policy_adaptive_flips_total",
			"Adaptive when-policy mode flips, labeled by the mode flipped to.",
			obs.Labels{"view": name, "to": mode}).Add(1)
	}
	e.mu.Unlock()
	fire(ns)
}
