package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestEveryExperimentRunsQuick smoke-tests the whole registry: every
// experiment must run without error in quick mode and produce output.
func TestEveryExperimentRunsQuick(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, true); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("P-4.1"); !ok {
		t.Error("P-4.1 missing")
	}
	if _, ok := Find("nope"); ok {
		t.Error("bogus id found")
	}
}

func TestRunOneBanner(t *testing.T) {
	e, _ := Find("P-5.4")
	var buf bytes.Buffer
	if err := RunOne(&buf, e, true); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "== P-5.4") {
		t.Errorf("banner missing: %q", buf.String()[:40])
	}
}

// TestP41Verdicts pins the textual verdicts of the paper's example.
func TestP41Verdicts(t *testing.T) {
	var buf bytes.Buffer
	e, _ := Find("P-4.1")
	if err := e.Run(&buf, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "insert (9, 10)") || !strings.Contains(out, "insert (11, 10)") {
		t.Fatalf("missing rows:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "(11, 10)") && !strings.Contains(line, "IRRELEVANT") {
			t.Errorf("(11,10) should be irrelevant: %q", line)
		}
		if strings.Contains(line, "insert (9, 10)") && !strings.Contains(line, "relevant") {
			t.Errorf("(9,10) should be relevant: %q", line)
		}
	}
}

// TestTT3RowCount pins the §5.3 row accounting.
func TestTT3RowCount(t *testing.T) {
	var buf bytes.Buffer
	e, _ := Find("P-TT3")
	if err := e.Run(&buf, true); err != nil {
		t.Fatal(err)
	}
	// The engine evaluates all 2^2 − 1 = 3 rows; two go empty midway
	// (i2's C = 30 finds no r3 partner) and are pruned, so one completes.
	if !strings.Contains(buf.String(), "ModifiedOperands=2 RowsEvaluated=1 (≤ 2^2−1 = 3") {
		t.Errorf("expected ModifiedOperands=2 RowsEvaluated=1 (≤ 2^2−1 = 3 …):\n%s", buf.String())
	}
}

func TestRunAllQuickToDiscard(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := RunAll(io.Discard, true); err != nil {
		t.Fatal(err)
	}
}
