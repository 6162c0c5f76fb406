// Package bench implements the experiment harness behind
// cmd/mviewbench: one runnable experiment per paper artifact (P-*) and
// per quantitative claim (C-*) indexed in DESIGN.md §4. Each
// experiment prints a table; EXPERIMENTS.md records a captured run.
package bench

import (
	"fmt"
	"io"
	"time"
)

// Experiment is one reproducible table from the paper index.
type Experiment struct {
	ID    string
	Title string
	Run   func(w io.Writer, quick bool) error
}

// Experiments returns the registry in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "P-4.1", Title: "Example 4.1: relevant vs irrelevant updates", Run: runP41},
		{ID: "P-RH", Title: "§4 Rosenkrantz–Hunt satisfiability procedure", Run: runPRH},
		{ID: "P-5.1", Title: "Example 5.1: project view needs multiplicity counters", Run: runP51},
		{ID: "P-5.2", Title: "Example 5.2: join view, insert-only maintenance", Run: runP52},
		{ID: "P-5.3", Title: "Example 5.3: join view, delete-only maintenance", Run: runP53},
		{ID: "P-5.4", Title: "Example 5.4 / §5.3 tag tables", Run: runP54},
		{ID: "P-5.5", Title: "Example 5.5: SPJ view maintenance (Algorithm 5.1)", Run: runP55},
		{ID: "P-TT3", Title: "§5.3 truth table, p=3, r1 and r2 modified", Run: runPTT3},
		{ID: "C-SAT-N3", Title: "satisfiability cost vs #variables (Floyd O(n³) vs Bellman–Ford)", Run: runCSat},
		{ID: "C-ALG41", Title: "Algorithm 4.1: invariant-graph reuse vs rebuild per tuple", Run: runCAlg41},
		{ID: "C-FILT", Title: "irrelevance filtering vs relevant-update fraction", Run: runCFilt},
		{ID: "C-SEL", Title: "select view: differential vs recompute (delta sweep)", Run: runCSel},
		{ID: "C-PROJ", Title: "project view with counters under deletes", Run: runCProj},
		{ID: "C-JOIN", Title: "join view: indexed differential vs scan vs recompute", Run: runCJoin},
		{ID: "C-ROWS", Title: "2^k−1 truth-table rows vs modified relations k", Run: runCRows},
		{ID: "C-SPJ", Title: "realistic SPJ view end-to-end (orders ⋈ items)", Run: runCSPJ},
		{ID: "C-T42", Title: "Theorem 4.2: multi-tuple (cross-relation) irrelevance", Run: runCT42},
		{ID: "C-SNAP", Title: "deferred snapshot refresh amortization (§6)", Run: runCSnap},
		{ID: "C-ADAPT", Title: "adaptive policy: differential vs recompute crossover (§6 outlook)", Run: runCAdapt},
		{ID: "C-NE", Title: "≠ handling: exact DNF expansion cost", Run: runCNe},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll runs every experiment in order.
func RunAll(w io.Writer, quick bool) error {
	for _, e := range Experiments() {
		if err := RunOne(w, e, quick); err != nil {
			return err
		}
	}
	return nil
}

// RunOne runs a single experiment with its banner.
func RunOne(w io.Writer, e Experiment, quick bool) error {
	if _, err := fmt.Fprintf(w, "== %s — %s\n", e.ID, e.Title); err != nil {
		return err
	}
	if err := e.Run(w, quick); err != nil {
		return fmt.Errorf("experiment %s: %w", e.ID, err)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// timeOp measures the per-operation wall time of f, running it until
// minDur has elapsed (at least once; at least 3 times unless quick).
func timeOp(f func() error, quick bool) (time.Duration, error) {
	minDur := 200 * time.Millisecond
	minIters := 3
	if quick {
		minDur = 10 * time.Millisecond
		minIters = 1
	}
	var iters int
	start := time.Now()
	for {
		if err := f(); err != nil {
			return 0, err
		}
		iters++
		if elapsed := time.Since(start); elapsed >= minDur && iters >= minIters {
			return elapsed / time.Duration(iters), nil
		}
	}
}
