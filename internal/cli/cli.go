// Package cli implements the interactive command interpreter behind
// cmd/mviewcli. It is a thin, line-oriented shell over the public
// mview API, factored out of the command so it can be tested.
package cli

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"mview"
	"mview/internal/obs"
)

// Session interprets commands against one database.
type Session struct {
	db *mview.DB
	// opts are the construction options the database was opened with,
	// WithObs(reg, fr) included; "load" opens the restored one alike.
	opts []mview.Option
	// reg collects engine metrics for the bare "stats" command.
	reg *obs.Registry
	// fr records every commit's span tree for the "trace" command.
	fr *obs.FlightRecorder
	// pending batches operations between "begin" and "commit".
	pending []mview.Op
	inTx    bool
}

// NewSession returns a session over a fresh in-memory database.
// Construction options (mview.WithGroupCommit, mview.WithObs, ...) are
// forwarded to mview.Open.
func NewSession(opts ...mview.Option) *Session {
	s := newSession(opts)
	s.db = mview.Open(s.opts...)
	return s
}

// NewDurableSession returns a session over a durable database rooted
// at dir (created or recovered via its commit log and checkpoints).
// Construction options are forwarded to mview.OpenDurable.
func NewDurableSession(dir string, opts ...mview.Option) (*Session, error) {
	s := newSession(opts)
	db, err := mview.OpenDurable(dir, s.opts...)
	if err != nil {
		return nil, err
	}
	s.db = db
	return s, nil
}

// newSession builds a session without its database, appending the
// WithObs option that feeds "stats" and "trace" to opts.
func newSession(opts []mview.Option) *Session {
	// Threshold 0: the shell is single-user, so nothing needs pinning —
	// the ring alone holds the last 64 commits.
	s := &Session{reg: obs.NewRegistry(), fr: obs.NewFlightRecorder(64, 0)}
	s.opts = append(append([]mview.Option(nil), opts...), mview.WithObs(s.reg, s.fr))
	return s
}

// Close releases the database (flushes and closes a durable commit
// log; no-op for in-memory sessions).
func (s *Session) Close() error { return s.db.Close() }

// Help describes the command language.
const Help = `commands:
  create relation <name>(<attr>, ...)      define a base relation
  create view <name> from <rel>[ <alias>], ...
       [where <condition>] [select <attr>, ...] [options <opt>,...]
                                            define a materialized SPJ view
       options: oncommit | ondemand | every=<dur> | maxstale=<dur> | autopolicy
                | recompute | adaptive | filtered
  create join view <name> from <rel>, ...  natural-join view (§5.3)
  insert <rel> (<v>, ...)                  insert a tuple (auto-commits unless in a tx)
  delete <rel> (<v>, ...)                  delete a tuple
  update <rel> (<old>, ...) to (<new>, ...)  modify a tuple in place
  begin | commit | abort                   group updates into one transaction
  show <name>                              print a relation or view
  select <attrs|*> from <rel>, ... [where <condition>]
                                           one-shot query over the current snapshot
  schema <view>                            print a view's output attributes
  stats [<view>]                           maintenance statistics (bare: all engine metrics)
  explain <view>                           describe definition and maintenance plan
  explain analyze <view>                   the plan plus measured timings of the last maintenance
  trace [<id>]                             flight recorder: list recent commit traces, or show
                                           one trace's span tree and critical path
  refresh <view> | refresh all             bring deferred views up to date (§6)
  policy <view> [<spec>]                   show or change a view's refresh policy
                                           (oncommit | ondemand | every=<dur> | maxstale=<dur> | autopolicy)
  relevant <view> <rel> (<v>, ...)         §4 irrelevance test for an update
  save <file> | load <file>                snapshot the database / restore one
  checkpoint                               durable mode: snapshot + truncate the commit log
  relations | views                        list catalog entries
  help                                     this text
  quit | exit                              leave`

// Exec interprets one command line and returns its output. The second
// result is true when the session should terminate.
func (s *Session) Exec(line string) (string, bool) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "--") {
		return "", false
	}
	fields := strings.Fields(line)
	cmd := strings.ToLower(fields[0])
	rest := strings.TrimSpace(line[len(fields[0]):])
	var out string
	var err error
	switch cmd {
	case "quit", "exit":
		return "bye", true
	case "help":
		return Help, false
	case "create":
		out, err = s.create(rest)
	case "insert":
		err = s.update(rest, false)
	case "delete":
		err = s.update(rest, true)
	case "update":
		err = s.updateInPlace(rest)
	case "begin":
		err = s.begin()
	case "commit":
		out, err = s.commit()
	case "abort":
		err = s.abort()
	case "show":
		out, err = s.show(rest)
	case "select":
		out, err = s.query(rest)
	case "schema":
		out, err = s.schema(rest)
	case "stats":
		out, err = s.stats(rest)
	case "explain":
		out, err = s.explain(rest)
	case "trace":
		out, err = s.trace(rest)
	case "refresh":
		out, err = s.refresh(rest)
	case "policy":
		out, err = s.policy(rest)
	case "relevant":
		out, err = s.relevant(rest)
	case "save":
		out, err = s.save(rest)
	case "load":
		out, err = s.load(rest)
	case "checkpoint":
		if err = s.db.Checkpoint(); err == nil {
			out = "checkpointed (snapshot written, commit log truncated)"
		}
	case "relations":
		out = strings.Join(s.db.Relations(), "\n")
	case "views":
		out = strings.Join(s.db.Views(), "\n")
	default:
		err = fmt.Errorf("unknown command %q (try help)", cmd)
	}
	if err != nil {
		return "error: " + err.Error(), false
	}
	return out, false
}

func (s *Session) create(rest string) (string, error) {
	lower := strings.ToLower(rest)
	switch {
	case strings.HasPrefix(lower, "relation "):
		return s.createRelation(strings.TrimSpace(rest[len("relation "):]))
	case strings.HasPrefix(lower, "join view "):
		return s.createJoinView(strings.TrimSpace(rest[len("join view "):]))
	case strings.HasPrefix(lower, "view "):
		return s.createView(strings.TrimSpace(rest[len("view "):]))
	default:
		return "", fmt.Errorf("expected 'create relation', 'create view', or 'create join view'")
	}
}

// createRelation parses "<name>(<attr>, ...)".
func (s *Session) createRelation(spec string) (string, error) {
	open := strings.Index(spec, "(")
	if open < 0 || !strings.HasSuffix(spec, ")") {
		return "", fmt.Errorf("expected <name>(<attr>, ...)")
	}
	name := strings.TrimSpace(spec[:open])
	attrs := splitList(spec[open+1 : len(spec)-1])
	if name == "" || len(attrs) == 0 {
		return "", fmt.Errorf("expected <name>(<attr>, ...)")
	}
	if err := s.db.CreateRelation(name, attrs...); err != nil {
		return "", err
	}
	return fmt.Sprintf("created relation %s(%s)", name, strings.Join(attrs, ", ")), nil
}

// viewClauses splits "<name> from ... [where ...] [select ...]
// [options ...]" on its keywords.
func viewClauses(spec string) (name string, clauses map[string]string, err error) {
	fields := strings.Fields(spec)
	if len(fields) < 3 || !strings.EqualFold(fields[1], "from") {
		return "", nil, fmt.Errorf("expected <name> from <relations> ...")
	}
	name = fields[0]
	rest := strings.TrimSpace(spec[len(fields[0]):])
	// rest begins with "from".
	clauses = make(map[string]string)
	order := []string{"from", "where", "select", "options"}
	lowerRest := strings.ToLower(rest)
	pos := make(map[string]int)
	for _, kw := range order {
		pos[kw] = indexWord(lowerRest, kw)
	}
	for i, kw := range order {
		start := pos[kw]
		if start < 0 {
			continue
		}
		end := len(rest)
		for _, kw2 := range order[i+1:] {
			if pos[kw2] > start && pos[kw2] < end {
				end = pos[kw2]
			}
		}
		clauses[kw] = strings.TrimSpace(rest[start+len(kw) : end])
	}
	if clauses["from"] == "" {
		return "", nil, fmt.Errorf("empty from clause")
	}
	return name, clauses, nil
}

// indexWord finds kw as a whole word in lower-cased s.
func indexWord(s, kw string) int {
	from := 0
	for {
		i := strings.Index(s[from:], kw)
		if i < 0 {
			return -1
		}
		i += from
		before := i == 0 || s[i-1] == ' '
		after := i+len(kw) >= len(s) || s[i+len(kw)] == ' '
		if before && after {
			return i
		}
		from = i + len(kw)
	}
}

func parseOptions(spec string) ([]mview.ViewOption, error) {
	var opts []mview.ViewOption
	for _, o := range splitList(spec) {
		if o == "" {
			continue
		}
		// ParseViewOption is the single source of truth for option
		// names, shared with the WAL and the HTTP API — refresh
		// policies (oncommit, every=250ms, maxstale=1s, ...) included.
		opt, err := mview.ParseViewOption(strings.ToLower(o))
		if err != nil {
			return nil, err
		}
		opts = append(opts, opt)
	}
	return opts, nil
}

func (s *Session) createView(spec string) (string, error) {
	name, clauses, err := viewClauses(spec)
	if err != nil {
		return "", err
	}
	opts, err := parseOptions(clauses["options"])
	if err != nil {
		return "", err
	}
	vs := mview.ViewSpec{
		From:   splitList(clauses["from"]),
		Where:  clauses["where"],
		Select: splitList(clauses["select"]),
	}
	if err := s.db.CreateView(name, vs, opts...); err != nil {
		return "", err
	}
	return "created view " + name, nil
}

func (s *Session) createJoinView(spec string) (string, error) {
	name, clauses, err := viewClauses(spec)
	if err != nil {
		return "", err
	}
	opts, err := parseOptions(clauses["options"])
	if err != nil {
		return "", err
	}
	if err := s.db.CreateJoinView(name, splitList(clauses["from"]), opts...); err != nil {
		return "", err
	}
	return "created join view " + name, nil
}

// update parses "<rel> (<v>, ...)" and queues or executes it.
func (s *Session) update(rest string, del bool) error {
	open := strings.Index(rest, "(")
	if open < 0 || !strings.HasSuffix(rest, ")") {
		return fmt.Errorf("expected <rel> (<v>, ...)")
	}
	rel := strings.TrimSpace(rest[:open])
	vals, err := parseValues(rest[open+1 : len(rest)-1])
	if err != nil {
		return err
	}
	op := mview.Insert(rel, vals...)
	if del {
		op = mview.Delete(rel, vals...)
	}
	if s.inTx {
		s.pending = append(s.pending, op)
		return nil
	}
	_, err = s.db.Exec(op)
	return err
}

// updateInPlace parses "<rel> (<old>, ...) to (<new>, ...)".
func (s *Session) updateInPlace(rest string) error {
	open := strings.Index(rest, "(")
	if open < 0 {
		return fmt.Errorf("expected <rel> (<old>, ...) to (<new>, ...)")
	}
	rel := strings.TrimSpace(rest[:open])
	closeOld := strings.Index(rest, ")")
	if closeOld < 0 {
		return fmt.Errorf("unterminated old tuple")
	}
	oldVals, err := parseValues(rest[open+1 : closeOld])
	if err != nil {
		return err
	}
	tail := strings.TrimSpace(rest[closeOld+1:])
	lower := strings.ToLower(tail)
	if !strings.HasPrefix(lower, "to ") && !strings.HasPrefix(lower, "to(") {
		return fmt.Errorf("expected 'to (<new>, ...)' after old tuple")
	}
	tail = strings.TrimSpace(tail[2:])
	if !strings.HasPrefix(tail, "(") || !strings.HasSuffix(tail, ")") {
		return fmt.Errorf("expected (<new>, ...)")
	}
	newVals, err := parseValues(tail[1 : len(tail)-1])
	if err != nil {
		return err
	}
	ops := mview.Update(rel, oldVals, newVals)
	if s.inTx {
		s.pending = append(s.pending, ops...)
		return nil
	}
	_, err = s.db.Exec(ops...)
	return err
}

func (s *Session) begin() error {
	if s.inTx {
		return fmt.Errorf("already in a transaction")
	}
	s.inTx = true
	s.pending = nil
	return nil
}

func (s *Session) commit() (string, error) {
	if !s.inTx {
		return "", fmt.Errorf("no transaction in progress")
	}
	ops := s.pending
	s.inTx, s.pending = false, nil
	info, err := s.db.Exec(ops...)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("committed: %+v", info), nil
}

func (s *Session) abort() error {
	if !s.inTx {
		return fmt.Errorf("no transaction in progress")
	}
	s.inTx, s.pending = false, nil
	return nil
}

func (s *Session) show(name string) (string, error) {
	name = strings.TrimSpace(name)
	for _, v := range s.db.Views() {
		if v == name {
			rows, err := s.db.View(name)
			if err != nil {
				return "", err
			}
			attrs, err := s.db.ViewSchema(name)
			if err != nil {
				return "", err
			}
			var sb strings.Builder
			fmt.Fprintf(&sb, "%s (%s):\n", name, strings.Join(attrs, ", "))
			for _, r := range rows {
				fmt.Fprintf(&sb, "  %v ×%d\n", r.Values, r.Count)
			}
			fmt.Fprintf(&sb, "%d row(s)", len(rows))
			return sb.String(), nil
		}
	}
	rows, err := s.db.Rows(name)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s:\n", name)
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %v\n", r)
	}
	fmt.Fprintf(&sb, "%d row(s)", len(rows))
	return sb.String(), nil
}

// query runs a one-shot ad-hoc query against the current read
// snapshot: "select <attrs|*> from <rel>, ... [where <condition>]".
// Nothing is materialized or registered in the catalog.
func (s *Session) query(rest string) (string, error) {
	lower := strings.ToLower(rest)
	fromPos := indexWord(lower, "from")
	if fromPos < 0 {
		return "", fmt.Errorf("expected <attrs|*> from <relations> [where <condition>]")
	}
	attrs := strings.TrimSpace(rest[:fromPos])
	tail := rest[fromPos+len("from"):]
	wherePos := indexWord(strings.ToLower(tail), "where")
	from := tail
	var where string
	if wherePos >= 0 {
		where = strings.TrimSpace(tail[wherePos+len("where"):])
		from = tail[:wherePos]
	}
	spec := mview.ViewSpec{From: splitList(from), Where: where}
	if attrs != "" && attrs != "*" {
		spec.Select = splitList(attrs)
	}
	rows, err := s.db.Query(spec)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %v ×%d\n", r.Values, r.Count)
	}
	fmt.Fprintf(&sb, "%d row(s)", len(rows))
	return sb.String(), nil
}

func (s *Session) schema(name string) (string, error) {
	attrs, err := s.db.ViewSchema(strings.TrimSpace(name))
	if err != nil {
		return "", err
	}
	return strings.Join(attrs, ", "), nil
}

func (s *Session) stats(name string) (string, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return strings.TrimRight(s.reg.Dump(), "\n"), nil
	}
	st, err := s.db.Stats(name)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%+v", st), nil
}

// explain handles "explain <view>" and "explain analyze <view>".
func (s *Session) explain(rest string) (string, error) {
	rest = strings.TrimSpace(rest)
	if strings.HasPrefix(strings.ToLower(rest), "analyze ") {
		return s.db.ExplainAnalyze(strings.TrimSpace(rest[len("analyze "):]))
	}
	return s.db.Explain(rest)
}

// trace lists the flight recorder's contents ("trace") or renders one
// recorded commit ("trace <id>"): the hierarchical span tree with
// per-stage offsets and durations, then the computed critical path.
func (s *Session) trace(rest string) (string, error) {
	rest = strings.TrimSpace(rest)
	if rest == "" {
		sums := s.fr.Summaries()
		if len(sums) == 0 {
			return "no traces recorded yet (commit something first)", nil
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "%d trace(s) retained, newest first (%d completed since open):\n",
			len(sums), s.fr.Total())
		for _, t := range sums {
			pin := ""
			if t.Pinned {
				pin = "  [pinned: slow]"
			}
			fmt.Fprintf(&sb, "  %6d  %-16s %10s  %d span(s)%s\n",
				t.ID, t.Name, fdur(t.Seconds), t.Spans, pin)
		}
		sb.WriteString("trace <id> shows one span tree")
		return sb.String(), nil
	}
	id, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return "", fmt.Errorf("trace wants a numeric id, got %q", rest)
	}
	t, ok := s.fr.Get(id)
	if !ok {
		return "", fmt.Errorf("trace %d not in the recorder (evicted or never completed)", id)
	}
	return renderTrace(t), nil
}

// renderTrace pretty-prints one trace: the span tree (children
// indented under their parents, in start order) and the critical path.
func renderTrace(t *obs.Trace) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %d  %s  %s  (%s ago)\n",
		t.ID, t.Name, fdur(t.Seconds), time.Since(t.Start).Round(time.Millisecond))
	kids := make(map[uint64][]obs.RecordedSpan)
	var root *obs.RecordedSpan
	for i := range t.Spans {
		sp := t.Spans[i]
		if sp.Parent == 0 {
			root = &t.Spans[i]
			continue
		}
		kids[sp.Parent] = append(kids[sp.Parent], sp)
	}
	var walk func(sp obs.RecordedSpan, depth int)
	walk = func(sp obs.RecordedSpan, depth int) {
		fmt.Fprintf(&sb, "  %s%s  +%s %s%s\n", strings.Repeat("  ", depth),
			sp.Name, fdur(sp.Offset), fdur(sp.Seconds), fattrs(sp.Attrs))
		for _, c := range kids[sp.ID] {
			walk(c, depth+1)
		}
	}
	if root != nil {
		walk(*root, 0)
	}
	if len(t.Critical) > 0 {
		sb.WriteString("critical path:\n")
		for _, c := range t.Critical {
			var share float64
			if t.Seconds > 0 {
				share = c.Seconds / t.Seconds * 100
			}
			fmt.Fprintf(&sb, "  %-18s %10s  %5.1f%%\n", c.Name, fdur(c.Seconds), share)
		}
	}
	if t.Dropped > 0 {
		fmt.Fprintf(&sb, "(%d span(s) dropped past the per-trace cap)\n", t.Dropped)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// fdur renders a span duration in seconds at microsecond precision.
func fdur(seconds float64) string {
	return time.Duration(seconds * float64(time.Second)).Round(time.Microsecond).String()
}

// fattrs renders span attributes as sorted " k=v" pairs.
func fattrs(attrs map[string]any) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%v", k, attrs[k])
	}
	return sb.String()
}

func (s *Session) refresh(rest string) (string, error) {
	rest = strings.TrimSpace(rest)
	if strings.EqualFold(rest, "all") {
		if err := s.db.RefreshAll(); err != nil {
			return "", err
		}
		return "refreshed all views", nil
	}
	if err := s.db.Refresh(rest); err != nil {
		return "", err
	}
	return "refreshed " + rest, nil
}

// policy shows ("policy <view>") or changes ("policy <view> <spec>") a
// view's refresh policy at runtime.
func (s *Session) policy(rest string) (string, error) {
	fields := strings.Fields(rest)
	switch len(fields) {
	case 1:
		// Show only.
	case 2:
		opt, err := mview.ParseViewOption(strings.ToLower(fields[1]))
		if err != nil {
			return "", err
		}
		if err := s.db.SetPolicy(fields[0], opt); err != nil {
			return "", err
		}
	default:
		return "", fmt.Errorf("usage: policy <view> [oncommit | ondemand | every=<dur> | maxstale=<dur> | autopolicy]")
	}
	p, err := s.db.Policy(fields[0])
	if err != nil {
		return "", err
	}
	mode := "deferred"
	if p.Immediate {
		mode = "immediate"
	}
	return fmt.Sprintf("%s: policy=%s mode=%s staleness=%s",
		fields[0], p.Spec, mode, p.Staleness.Round(time.Millisecond)), nil
}

// relevant parses "<view> <rel> (<v>, ...)".
func (s *Session) relevant(rest string) (string, error) {
	fields := strings.Fields(rest)
	if len(fields) < 3 {
		return "", fmt.Errorf("expected <view> <rel> (<v>, ...)")
	}
	view, rel := fields[0], fields[1]
	open := strings.Index(rest, "(")
	if open < 0 || !strings.HasSuffix(rest, ")") {
		return "", fmt.Errorf("expected <view> <rel> (<v>, ...)")
	}
	vals, err := parseValues(rest[open+1 : len(rest)-1])
	if err != nil {
		return "", err
	}
	ok, err := s.db.Relevant(view, rel, vals...)
	if err != nil {
		return "", err
	}
	if ok {
		return "relevant: the update may affect the view", nil
	}
	return "irrelevant: provably cannot affect the view in any database state (Thm 4.1)", nil
}

func (s *Session) save(rest string) (string, error) {
	path := strings.TrimSpace(rest)
	if path == "" {
		return "", fmt.Errorf("expected a file path")
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := s.db.Save(f); err != nil {
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return "saved to " + path, nil
}

func (s *Session) load(rest string) (string, error) {
	path := strings.TrimSpace(rest)
	if path == "" {
		return "", fmt.Errorf("expected a file path")
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	db, err := mview.Load(f, s.opts...)
	if err != nil {
		return "", err
	}
	if s.inTx {
		return "", fmt.Errorf("cannot load inside a transaction")
	}
	s.db = db
	return "loaded " + path, nil
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}

func parseValues(s string) ([]int64, error) {
	parts := splitList(s)
	if len(parts) == 0 {
		return nil, fmt.Errorf("empty tuple")
	}
	out := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}

// Catalog returns a sorted summary of the database for the prompt.
func (s *Session) Catalog() string {
	names := append(s.db.Relations(), s.db.Views()...)
	sort.Strings(names)
	return strings.Join(names, " ")
}
