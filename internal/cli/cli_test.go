package cli

import (
	"strings"
	"testing"
)

// run executes commands in sequence, failing the test on any "error:"
// output unless the command is expected to fail.
func run(t *testing.T, s *Session, cmds ...string) string {
	t.Helper()
	var last string
	for _, c := range cmds {
		out, done := s.Exec(c)
		if done {
			t.Fatalf("unexpected termination on %q", c)
		}
		if strings.HasPrefix(out, "error:") {
			t.Fatalf("command %q failed: %s", c, out)
		}
		last = out
	}
	return last
}

func expectErr(t *testing.T, s *Session, cmd string) string {
	t.Helper()
	out, _ := s.Exec(cmd)
	if !strings.HasPrefix(out, "error:") {
		t.Fatalf("command %q should fail, got %q", cmd, out)
	}
	return out
}

func TestEndToEndFlow(t *testing.T) {
	s := NewSession()
	out := run(t, s,
		"create relation r(A, B)",
		"create relation s(C, D)",
		"create view v from r, s where A < 10 && C > 5 && B = C select A, D options filtered",
		"insert r (9, 10)",
		"insert s (10, 20)",
		"show v",
	)
	if !strings.Contains(out, "[9 20]") || !strings.Contains(out, "1 row(s)") {
		t.Errorf("show v = %q", out)
	}
	out = run(t, s, "relevant v r (11, 10)")
	if !strings.Contains(out, "irrelevant") {
		t.Errorf("relevant = %q", out)
	}
	out = run(t, s, "relevant v r (9, 9)")
	if !strings.Contains(out, "relevant: ") {
		t.Errorf("relevant = %q", out)
	}
	out = run(t, s, "stats v")
	if !strings.Contains(out, "Refreshes:") {
		t.Errorf("stats = %q", out)
	}
	out = run(t, s, "schema v")
	if out != "r.A, s.D" {
		t.Errorf("schema = %q", out)
	}
}

func TestTransactions(t *testing.T) {
	s := NewSession()
	run(t, s,
		"create relation r(A)",
		"create view v from r where A > 0",
		"begin",
		"insert r (1)",
		"insert r (2)",
		"delete r (1)",
	)
	// Nothing visible before commit.
	out := run(t, s, "show v")
	if !strings.Contains(out, "0 row(s)") {
		t.Errorf("pre-commit view = %q", out)
	}
	out = run(t, s, "commit")
	if !strings.Contains(out, "committed") {
		t.Errorf("commit = %q", out)
	}
	out = run(t, s, "show v")
	if !strings.Contains(out, "[2]") || !strings.Contains(out, "1 row(s)") {
		t.Errorf("post-commit view = %q", out)
	}
	expectErr(t, s, "commit")
	run(t, s, "begin", "insert r (9)")
	run(t, s, "abort")
	out = run(t, s, "show r")
	if strings.Contains(out, "[9]") {
		t.Errorf("aborted insert visible: %q", out)
	}
	expectErr(t, s, "abort")
	run(t, s, "begin")
	expectErr(t, s, "begin")
	run(t, s, "abort")
}

func TestJoinViewAndDeferred(t *testing.T) {
	s := NewSession()
	run(t, s,
		"create relation r(A, B)",
		"create relation s(B, C)",
		"create join view j from r, s options ondemand",
		"insert r (1, 2)",
		"insert s (2, 3)",
	)
	out := run(t, s, "show j")
	if !strings.Contains(out, "0 row(s)") {
		t.Errorf("deferred view refreshed early: %q", out)
	}
	run(t, s, "refresh j")
	out = run(t, s, "show j")
	if !strings.Contains(out, "[1 2 3]") {
		t.Errorf("after refresh: %q", out)
	}
	run(t, s, "refresh all")
}

func TestShowBaseRelationAndLists(t *testing.T) {
	s := NewSession()
	run(t, s, "create relation r(A)", "insert r (5)")
	out := run(t, s, "show r")
	if !strings.Contains(out, "[5]") {
		t.Errorf("show r = %q", out)
	}
	if got := run(t, s, "relations"); got != "r" {
		t.Errorf("relations = %q", got)
	}
	run(t, s, "create view v from r")
	if got := run(t, s, "views"); got != "v" {
		t.Errorf("views = %q", got)
	}
	if got := s.Catalog(); got != "r v" {
		t.Errorf("Catalog = %q", got)
	}
}

func TestErrorsAndNoise(t *testing.T) {
	s := NewSession()
	for _, cmd := range []string{
		"bogus",
		"create table x(A)",
		"create relation r",
		"create relation (A)",
		"insert r 1, 2",
		"insert r (x)",
		"insert r ()",
		"show zzz",
		"stats zzz",
		"schema zzz",
		"refresh zzz",
		"relevant v",
		"relevant v r 1",
		"create view v from",
		"create view v where A < 1",
		"create view v from r options bogus",
	} {
		expectErr(t, s, cmd)
	}
	// Blank lines and comments are silent.
	for _, cmd := range []string{"", "   ", "# comment", "-- comment"} {
		if out, done := s.Exec(cmd); out != "" || done {
			t.Errorf("noise %q produced %q", cmd, out)
		}
	}
}

func TestQuitAndHelp(t *testing.T) {
	s := NewSession()
	out, done := s.Exec("help")
	if done || !strings.Contains(out, "create relation") {
		t.Errorf("help = %q", out)
	}
	out, done = s.Exec("quit")
	if !done || out != "bye" {
		t.Errorf("quit = %q, %v", out, done)
	}
	_, done = s.Exec("exit")
	if !done {
		t.Error("exit should terminate")
	}
}

func TestUpdateCommand(t *testing.T) {
	s := NewSession()
	run(t, s,
		"create relation r(A, B)",
		"create view v from r where A < 10",
		"insert r (1, 2)",
		"update r (1, 2) to (1, 3)",
	)
	out := run(t, s, "show v")
	if !strings.Contains(out, "[1 3]") || strings.Contains(out, "[1 2]") {
		t.Errorf("after update: %q", out)
	}
	// Inside a transaction the pair stays atomic.
	run(t, s, "begin", "update r (1, 3) to (5, 5)")
	out = run(t, s, "show r")
	if !strings.Contains(out, "[1 3]") {
		t.Errorf("update applied before commit: %q", out)
	}
	run(t, s, "commit")
	out = run(t, s, "show r")
	if !strings.Contains(out, "[5 5]") {
		t.Errorf("after commit: %q", out)
	}
	for _, bad := range []string{
		"update r 1 to (2)",
		"update r (1",
		"update r (1, 2) (3, 4)",
		"update r (1, 2) to 3, 4",
		"update r (1, 2) to (x)",
		"update r (x) to (1)",
	} {
		expectErr(t, s, bad)
	}
}

func TestExplainCommand(t *testing.T) {
	s := NewSession()
	run(t, s,
		"create relation r(A, B)",
		"create view v from r where A < 10 options adaptive",
	)
	out := run(t, s, "explain v")
	if !strings.Contains(out, "view v") || !strings.Contains(out, "adaptive") {
		t.Errorf("explain = %q", out)
	}
	expectErr(t, s, "explain zzz")
}

func TestDurableSession(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDurableSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	run(t, s,
		"create relation r(A)",
		"insert r (42)",
	)
	out := run(t, s, "checkpoint")
	if !strings.Contains(out, "checkpointed") {
		t.Errorf("checkpoint = %q", out)
	}
	run(t, s, "insert r (43)")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewDurableSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	out = run(t, s2, "show r")
	if !strings.Contains(out, "[42]") || !strings.Contains(out, "[43]") {
		t.Errorf("recovered r = %q", out)
	}
	// In-memory sessions refuse checkpoint.
	s3 := NewSession()
	expectErr(t, s3, "checkpoint")
	if err := s3.Close(); err != nil {
		t.Errorf("in-memory Close: %v", err)
	}
	// Bad directory.
	if _, err := NewDurableSession("/dev/null/impossible"); err == nil {
		t.Error("bad dir must fail")
	}
}

func TestSaveLoadCommands(t *testing.T) {
	path := t.TempDir() + "/snap.mview"
	s := NewSession()
	run(t, s,
		"create relation r(A, B)",
		"create view v from r where A < 10 select B options filtered",
		"insert r (1, 7)",
		"save "+path,
	)
	s2 := NewSession()
	run(t, s2, "load "+path)
	out := run(t, s2, "show v")
	if !strings.Contains(out, "[7]") {
		t.Errorf("restored view = %q", out)
	}
	// Errors.
	expectErr(t, s2, "save ")
	expectErr(t, s2, "load ")
	expectErr(t, s2, "load /nonexistent/zzz")
	expectErr(t, s2, "save /nonexistent-dir/zzz/file")
	run(t, s2, "begin")
	expectErr(t, s2, "load "+path)
	run(t, s2, "abort")
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	s := NewSession()
	run(t, s,
		"CREATE RELATION r(A, B)",
		"CREATE VIEW v FROM r WHERE A < 5 SELECT B",
		"INSERT r (1, 7)",
	)
	out := run(t, s, "show v")
	if !strings.Contains(out, "[7]") {
		t.Errorf("show = %q", out)
	}
}

func TestSelectCommand(t *testing.T) {
	s := NewSession()
	run(t, s,
		"create relation r(A, B)",
		"create relation s(C, D)",
		"insert r (1, 5)",
		"insert r (9, 5)",
		"insert s (5, 20)",
	)
	out := run(t, s, "select A, D from r, s where B = C && A < 5")
	if !strings.Contains(out, "[1 20]") || !strings.Contains(out, "1 row(s)") {
		t.Errorf("select = %q", out)
	}
	// "*" keeps every attribute of the join.
	out = run(t, s, "select * from r where A > 5")
	if !strings.Contains(out, "[9 5]") || !strings.Contains(out, "1 row(s)") {
		t.Errorf("select * = %q", out)
	}
	// A query registers nothing in the catalog.
	if out := run(t, s, "views"); strings.TrimSpace(out) != "" {
		t.Errorf("ad-hoc select leaked a view: %q", out)
	}
	expectErr(t, s, "select A, B")
	expectErr(t, s, "select A from nosuch")
}

func TestTraceCommand(t *testing.T) {
	s := NewSession()
	if out := run(t, s, "trace"); !strings.Contains(out, "no traces recorded yet") {
		t.Errorf("empty recorder listing = %q", out)
	}
	run(t, s,
		"create relation r(A, B)",
		"create relation s(B, C)",
		"create join view v from r, s",
		"insert r (1, 2)",
	)
	list := run(t, s, "trace")
	if !strings.Contains(list, "db.commit") {
		t.Fatalf("trace listing missing db.commit:\n%s", list)
	}
	// Pull the newest trace's id off the first listing row and render it.
	var id string
	for _, line := range strings.Split(list, "\n") {
		fields := strings.Fields(line)
		if len(fields) > 1 && fields[1] == "db.commit" {
			id = fields[0]
			break
		}
	}
	if id == "" {
		t.Fatalf("no trace id in listing:\n%s", list)
	}
	tree := run(t, s, "trace "+id)
	for _, want := range []string{"trace " + id, "db.commit", "commit.install", "critical path:"} {
		if !strings.Contains(tree, want) {
			t.Errorf("trace tree missing %q:\n%s", want, tree)
		}
	}
	expectErr(t, s, "trace bogus")
	expectErr(t, s, "trace 999999999")
}

func TestExplainAnalyzeCommand(t *testing.T) {
	s := NewSession()
	run(t, s,
		"create relation r(A, B)",
		"create relation s(B, C)",
		"create join view v from r, s",
		"insert r (1, 2)",
		"insert s (2, 5)",
	)
	out := run(t, s, "explain analyze v")
	for _, want := range []string{"analyze:", "counters:", "last maintenance", "trace="} {
		if !strings.Contains(out, want) {
			t.Errorf("explain analyze missing %q:\n%s", want, out)
		}
	}
	// Plain explain still works and stays un-annotated.
	if out := run(t, s, "explain v"); strings.Contains(out, "analyze:") {
		t.Errorf("plain explain grew an analyze section:\n%s", out)
	}
	expectErr(t, s, "explain analyze nope")
}
