package mview

// Refresh policies and staleness SLOs (the unified policy API).
//
// Every view carries a refresh policy — WHEN its contents are brought
// up to date — chosen at creation from the ViewOption family below and
// changeable at runtime with SetPolicy:
//
//	OnCommit()       maintained inside every commit; always fresh
//	Every(d)         deferred; the engine refreshes it every d
//	OnDemand()       deferred; refreshed only by Refresh/RefreshAll
//	MaxStaleness(d)  deferred under an SLO: the engine refreshes it
//	                 before the oldest unapplied change turns d old
//	AdaptivePolicy() the engine flips the view between on-commit and
//	                 deferred from the measured write/read ratio
//
// Policies are orthogonal to HOW a refresh runs (differential vs full
// recomputation — WithRecompute, WithAdaptiveMaint) and persist like
// every other view option: durable databases log them, replicas replay
// them. The scheduled kinds are driven by one timer wheel inside the
// engine (internal/db/scheduler.go); followers replay policy DDL but
// never self-refresh.
//
// Reads state their own freshness contract with QueryOptions:
// View(name, MaxStale(d)) refreshes synchronously only when the view
// is more than d stale, and Consistent() is MaxStale(0).

import (
	"fmt"
	"strings"
	"time"

	"mview/internal/db"
)

// OnCommit keeps the view maintained inside every commit (§5): reads
// are always fresh and the full maintenance cost rides the write path.
// This is the default policy.
func OnCommit() ViewOption {
	return policyOption(db.RefreshSpec{Kind: db.RefreshOnCommit})
}

// OnDemand defers all maintenance: commits only queue backlog, and the
// view is refreshed by Refresh, RefreshAll, or a bounded read
// (MaxStale). This is the §6 snapshot regime with no schedule at all —
// the cheapest write path and no freshness guarantee.
func OnDemand() ViewOption {
	return policyOption(db.RefreshSpec{Kind: db.RefreshOnDemand})
}

// Every defers maintenance and refreshes the view on a fixed interval,
// driven by the engine's scheduler. d must be positive.
func Every(d time.Duration) ViewOption {
	if d <= 0 {
		return ViewOption{err: fmt.Errorf("mview: Every interval must be positive (got %s)", d)}
	}
	return policyOption(db.RefreshSpec{Kind: db.RefreshEvery, Interval: d})
}

// MaxStaleness defers maintenance under a staleness SLO: the engine
// refreshes the view proactively before the age of its oldest
// unapplied change reaches d, so reads never observe contents more
// than d behind (mview_view_staleness_seconds stays under the bound).
// d must be positive; for an exact-freshness read use the query-side
// Consistent() instead.
func MaxStaleness(d time.Duration) ViewOption {
	if d <= 0 {
		return ViewOption{err: fmt.Errorf("mview: MaxStaleness bound must be positive (got %s)", d)}
	}
	return policyOption(db.RefreshSpec{Kind: db.RefreshMaxStaleness, Bound: d})
}

// AdaptivePolicy lets the engine choose WHEN to refresh from the
// measured workload: a read-heavy view is maintained on commit (fresh
// reads), a write-heavy one is flipped to deferred so maintenance
// leaves the write path (its backlog is drained when it flips back).
// The current direction is visible in Policy and Explain.
func AdaptivePolicy() ViewOption {
	return policyOption(db.RefreshSpec{Kind: db.RefreshAdaptive})
}

// policyOption builds the ViewOption carrying a when-spec; the stable
// name is the spec's round-trippable string form.
func policyOption(spec db.RefreshSpec) ViewOption {
	s := spec
	return ViewOption{
		name:  s.String(),
		when:  &s,
		apply: func(c *db.ViewConfig) { c.When = s },
	}
}

// ParseViewOption reconstructs a ViewOption from its stable name — the
// form CreateView logs, the catalog persists, and the HTTP/CLI
// surfaces accept: oncommit, ondemand, every=<duration>,
// maxstale=<duration>, autopolicy, recompute, adaptive, filtered,
// rowbyrow.
func ParseViewOption(name string) (ViewOption, error) {
	if arg, ok := strings.CutPrefix(name, "every="); ok {
		d, err := time.ParseDuration(arg)
		if err != nil {
			return ViewOption{}, fmt.Errorf("mview: bad interval in view option %q: %w", name, err)
		}
		o := Every(d)
		if o.err != nil {
			return ViewOption{}, o.err
		}
		return o, nil
	}
	if arg, ok := strings.CutPrefix(name, "maxstale="); ok {
		d, err := time.ParseDuration(arg)
		if err != nil {
			return ViewOption{}, fmt.Errorf("mview: bad bound in view option %q: %w", name, err)
		}
		o := MaxStaleness(d)
		if o.err != nil {
			return ViewOption{}, o.err
		}
		return o, nil
	}
	switch name {
	case "oncommit":
		return OnCommit(), nil
	case "ondemand", "deferred":
		// deferred is parse-only: logs written before the policy options
		// existed can still name it.
		return OnDemand(), nil
	case "autopolicy":
		return AdaptivePolicy(), nil
	case "recompute":
		return WithRecompute(), nil
	case "adaptive":
		return WithAdaptiveMaint(), nil
	case "filtered":
		return WithFilter(), nil
	case "rowbyrow":
		// rowbyrow is parse-only: it chose a row strategy of an
		// evaluator since retired, and logs may still name it.
		return ViewOption{name: name, apply: func(*db.ViewConfig) {}}, nil
	default:
		return ViewOption{}, fmt.Errorf("mview: unknown view option %q (known: oncommit, ondemand, every=<dur>, maxstale=<dur>, autopolicy, recompute, adaptive, filtered)", name)
	}
}

// checkOptions surfaces the deferred construction error of any invalid
// option (e.g. Every(0)) before it is applied or logged.
func checkOptions(opts []ViewOption) error {
	for _, o := range opts {
		if o.err != nil {
			return o.err
		}
	}
	return nil
}

// SetPolicy changes a view's refresh policy at runtime. p must be one
// of the when-policy options (OnCommit, Every, OnDemand, MaxStaleness,
// AdaptivePolicy). Tightening is immediate: a view moving to OnCommit
// (or to AdaptivePolicy, which starts there) has its backlog drained
// before the change commits, so the next read is fresh. Durable
// databases log the change and replicas replay it, like any other DDL.
func (d *DB) SetPolicy(view string, p ViewOption) error {
	if d.readonly {
		return ErrReadOnlyReplica
	}
	if p.err != nil {
		return p.err
	}
	if p.when == nil {
		return fmt.Errorf("mview: option %q is not a refresh policy (want oncommit, ondemand, every=<dur>, maxstale=<dur>, or autopolicy)", p.name)
	}
	defer d.lockIfDurable()()
	if err := d.engine().SetViewPolicy(view, *p.when); err != nil {
		return err
	}
	return d.logStmt(walStmt{Kind: stmtPolicy, Name: view, Options: []string{p.name}})
}

// PolicyInfo describes a view's refresh policy and freshness state.
type PolicyInfo struct {
	// Spec is the policy in its stable round-trippable form: oncommit,
	// ondemand, every=<duration>, maxstale=<duration>, or autopolicy.
	Spec string
	// Interval is the Every period (0 for other policies).
	Interval time.Duration
	// Bound is the MaxStaleness SLO bound (0 for other policies).
	Bound time.Duration
	// Immediate reports the effective commit-time mode right now; it
	// differs from what Spec implies only under autopolicy, where it
	// shows the direction the adaptive controller currently holds.
	Immediate bool
	// Staleness is the age of the view's oldest unapplied change
	// (0 = fresh).
	Staleness time.Duration
}

// Policy reports a view's refresh policy and current staleness.
func (d *DB) Policy(view string) (PolicyInfo, error) {
	v, err := d.engine().ReadView(view)
	if err != nil {
		return PolicyInfo{}, err
	}
	return policyInfo(v), nil
}

func policyInfo(v db.ViewVersion) PolicyInfo {
	spec, deferred := v.Policy()
	return PolicyInfo{
		Spec:      spec.String(),
		Interval:  spec.Interval,
		Bound:     spec.Bound,
		Immediate: !deferred,
		Staleness: v.Staleness(),
	}
}

// QueryOption states a read's freshness contract (see View).
type QueryOption struct {
	bound   time.Duration
	bounded bool
}

// MaxStale bounds a read's tolerated staleness: the view is refreshed
// synchronously before serving only if its oldest unapplied change is
// older than d, so fresh-enough snapshots stay on the lock-free read
// path. Negative bounds are treated as 0.
func MaxStale(d time.Duration) QueryOption {
	if d < 0 {
		d = 0
	}
	return QueryOption{bound: d, bounded: true}
}

// Consistent demands exact freshness: every unapplied change is folded
// in before the read returns. Equivalent to MaxStale(0).
func Consistent() QueryOption { return MaxStale(0) }

// queryBound folds a read's options into a single tolerated-staleness
// bound; the tightest wins. ok is false when the read is unbounded
// (plain snapshot semantics).
func queryBound(opts []QueryOption) (bound time.Duration, ok bool) {
	for _, o := range opts {
		if !o.bounded {
			continue
		}
		if !ok || o.bound < bound {
			bound = o.bound
			ok = true
		}
	}
	return bound, ok
}
