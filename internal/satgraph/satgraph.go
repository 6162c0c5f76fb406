// Package satgraph decides satisfiability of conjunctions of
// difference constraints, following §4 of Blakeley, Larson & Tompa and
// Rosenkrantz & Hunt (VLDB 1980).
//
// A conjunction of atoms x op y + c, x op c (op without ≠) is
// normalized into constraints x ≤ y + c (package pred). Each
// constraint becomes a weighted edge of a digraph over the variables
// plus the distinguished node '0'; the conjunction is satisfiable over
// the integers iff the graph has no negative-weight cycle. The paper
// uses Floyd's algorithm (O(n³)); a Bellman–Ford detector (O(n·e)) is
// provided as well for comparison benches.
//
// Prepared implements the incremental core of Algorithm 4.1: the
// invariant portion of the graph is built and closed once, after which
// each tuple's variant constraints — which all touch the '0' node,
// because substitution reduces them to var-vs-constant bounds — are
// tested in O(k²) against the precomputed closure instead of O(n³)
// from scratch.
package satgraph

import (
	"fmt"
	"math"

	"mview/internal/pred"
)

// Inf is the "no edge" distance. It is far enough from the int64
// boundary that saturating arithmetic cannot wrap.
const Inf int64 = math.MaxInt64 / 4

// sadd adds two path weights, saturating at ±Inf so that user-supplied
// constants near the int64 boundary cannot overflow.
func sadd(a, b int64) int64 {
	if a >= Inf || b >= Inf {
		return Inf
	}
	s := a + b
	switch {
	case s > Inf:
		return Inf
	case s < -Inf:
		return -Inf
	default:
		return s
	}
}

// Graph is a weighted digraph over predicate variables. An edge u→v of
// weight w encodes the constraint v ≤ u + w (dist(v) ≤ dist(u) + w).
type Graph struct {
	index map[pred.Var]int
	names []pred.Var
	edges []edge
}

type edge struct {
	from, to int
	w        int64
}

// NewGraph returns an empty graph with the '0' node pre-interned.
func NewGraph() *Graph {
	g := &Graph{index: make(map[pred.Var]int)}
	g.node(pred.ZeroVar)
	return g
}

// node interns a variable, returning its dense id.
func (g *Graph) node(v pred.Var) int {
	if id, ok := g.index[v]; ok {
		return id
	}
	id := len(g.names)
	g.index[v] = id
	g.names = append(g.names, v)
	return id
}

// AddVar ensures v is a node even if no constraint mentions it yet.
func (g *Graph) AddVar(v pred.Var) { g.node(v) }

// AddConstraint adds the edge for constraint c.X ≤ c.Y + c.C:
// an edge from Y to X with weight C. Weights are clamped to ±Inf, so
// verdicts are exact for constants up to |c| ≤ 2^61 and conservative
// beyond (a clamped bound can only loosen toward "satisfiable").
func (g *Graph) AddConstraint(c pred.Constraint) {
	from, to := g.node(c.Y), g.node(c.X)
	w := c.C
	if w > Inf {
		w = Inf
	} else if w < -Inf {
		w = -Inf
	}
	g.edges = append(g.edges, edge{from: from, to: to, w: w})
}

// AddConjunction normalizes the conjunction and adds all its
// constraints. It returns pred.ErrOutsideClass for ≠ atoms.
func (g *Graph) AddConjunction(c pred.Conjunction) error {
	cons, err := pred.NormalizeConjunction(c)
	if err != nil {
		return err
	}
	for _, cc := range cons {
		g.AddConstraint(cc)
	}
	return nil
}

// Len returns the number of nodes (variables plus '0').
func (g *Graph) Len() int { return len(g.names) }

// Edges returns the number of edges.
func (g *Graph) Edges() int { return len(g.edges) }

// FloydWarshall computes all-pairs shortest paths and reports whether
// the graph contains a negative cycle (some dist[i][i] < 0). This is
// the O(n³) procedure the paper adopts from Floyd (CACM 1962).
func (g *Graph) FloydWarshall() (dist [][]int64, negCycle bool) {
	n := len(g.names)
	dist = make([][]int64, n)
	backing := make([]int64, n*n)
	for i := range backing {
		backing[i] = Inf
	}
	for i := 0; i < n; i++ {
		dist[i] = backing[i*n : (i+1)*n]
		dist[i][i] = 0
	}
	for _, e := range g.edges {
		if e.w < dist[e.from][e.to] {
			dist[e.from][e.to] = e.w
		}
	}
	for k := 0; k < n; k++ {
		dk := dist[k]
		for i := 0; i < n; i++ {
			dik := dist[i][k]
			if dik >= Inf {
				continue
			}
			di := dist[i]
			for j := 0; j < n; j++ {
				if alt := sadd(dik, dk[j]); alt < di[j] {
					di[j] = alt
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if dist[i][i] < 0 {
			return dist, true
		}
	}
	return dist, false
}

// BellmanFord reports whether the graph contains a negative cycle,
// in O(n·e) time. Because the graph need not be connected, relaxation
// starts from an implicit super-source at distance 0 to every node.
func (g *Graph) BellmanFord() (negCycle bool) {
	n := len(g.names)
	dist := make([]int64, n) // all zero: super-source initialization
	for pass := 0; pass < n-1; pass++ {
		changed := false
		for _, e := range g.edges {
			if alt := sadd(dist[e.from], e.w); alt < dist[e.to] {
				dist[e.to] = alt
				changed = true
			}
		}
		if !changed {
			return false
		}
	}
	for _, e := range g.edges {
		if sadd(dist[e.from], e.w) < dist[e.to] {
			return true
		}
	}
	return false
}

// Method selects the negative-cycle detector.
type Method uint8

// Detector choices.
const (
	MethodFloyd Method = iota // the paper's choice
	MethodBellmanFord
	// MethodAdaptive keeps the paper's Floyd for small conjunctions and
	// cuts over to Bellman–Ford once the variable count crosses
	// AdaptiveSatThreshold. Floyd's tight O(n³) loop wins on the dense
	// little graphs typical view predicates produce; Bellman–Ford's
	// O(n·e) with early exit wins decisively on wide conjunctions
	// (C-SAT-N3: 7.2× at n=64).
	MethodAdaptive
)

// AdaptiveSatThreshold is the node count (variables plus '0') at and
// above which MethodAdaptive switches from Floyd to Bellman–Ford.
// BenchmarkSatCrossover shows Bellman–Ford's early exit keeps it
// competitive even on small sparse graphs, but below the threshold
// the absolute cost of either detector is negligible (≤ ~8µs), so
// small conjunctions keep the paper's Floyd; above it the n³ term is
// decisive (3–6× on e ≈ 2n graphs, 7.2× in C-SAT-N3 at n=64).
const AdaptiveSatThreshold = 24

// String names the method for Explain output and logs.
func (m Method) String() string {
	switch m {
	case MethodFloyd:
		return "floyd"
	case MethodBellmanFord:
		return "bellman-ford"
	case MethodAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("method(%d)", uint8(m))
	}
}

// Resolve maps MethodAdaptive to the concrete detector for a graph of
// the given node count; concrete methods resolve to themselves.
func (m Method) Resolve(nodes int) Method {
	if m != MethodAdaptive {
		return m
	}
	if nodes >= AdaptiveSatThreshold {
		return MethodBellmanFord
	}
	return MethodFloyd
}

// Satisfiable reports whether the conjunction of the graph's
// constraints has an integer solution.
func (g *Graph) Satisfiable(m Method) bool {
	switch m.Resolve(g.Len()) {
	case MethodBellmanFord:
		return !g.BellmanFord()
	default:
		_, neg := g.FloydWarshall()
		return !neg
	}
}

// SatisfiableConjunction decides satisfiability of one conjunction.
// The empty conjunction is satisfiable. ≠ atoms yield
// pred.ErrOutsideClass.
func SatisfiableConjunction(c pred.Conjunction, m Method) (bool, error) {
	if len(c.Atoms) == 0 {
		return true, nil
	}
	g := NewGraph()
	if err := g.AddConjunction(c); err != nil {
		return false, err
	}
	return g.Satisfiable(m), nil
}

// SatisfiableDNF decides satisfiability of C = C1 ∨ … ∨ Cm: the
// expression is satisfiable iff at least one conjunct is (§4, O(m·n³)).
func SatisfiableDNF(d pred.DNF, m Method) (bool, error) {
	for _, c := range d.Conjuncts {
		ok, err := SatisfiableConjunction(c, m)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// Prepared holds the Floyd–Warshall closure of a conjunction's
// invariant constraints, ready to absorb per-tuple variant constraints
// (Algorithm 4.1 steps 1–3).
type Prepared struct {
	index map[pred.Var]int
	dist  [][]int64
	zero  int
	// unsat marks an invariant part that is itself unsatisfiable: the
	// view condition can never hold, so every update is irrelevant.
	unsat bool
}

// Prepare builds the invariant portion of the graph from the given
// constraints and closes it. vars must list every variable that can
// appear in later variant constraints (Y2 is always enough); unknown
// variables in SatisfiableWith are an error.
func Prepare(invariant []pred.Constraint, vars []pred.Var) (*Prepared, error) {
	g := NewGraph()
	for _, v := range vars {
		g.AddVar(v)
	}
	for _, c := range invariant {
		g.AddConstraint(c)
	}
	dist, neg := g.FloydWarshall()
	return &Prepared{index: g.index, dist: dist, zero: g.index[pred.ZeroVar], unsat: neg}, nil
}

// InvariantUnsatisfiable reports whether the invariant part alone is
// already unsatisfiable (so every update is irrelevant to the view).
func (p *Prepared) InvariantUnsatisfiable() bool { return p.unsat }

// Bounds returns the tightest constant interval lo ≤ v ≤ hi the
// prepared constraints imply for v, read off the closure's paths
// through the '0' node. hasLo/hasHi are false for a side the
// constraints leave open (both for a variable Prepare never saw).
func (p *Prepared) Bounds(v pred.Var) (lo, hi int64, hasLo, hasHi bool) {
	i, ok := p.index[v]
	if !ok {
		return 0, 0, false, false
	}
	if d := p.dist[i][p.zero]; d < Inf { // 0 ≤ v + d
		lo, hasLo = -d, true
	}
	if d := p.dist[p.zero][i]; d < Inf { // v ≤ 0 + d
		hi, hasHi = d, true
	}
	return lo, hi, hasLo, hasHi
}

// SatisfiableWith decides whether the invariant constraints together
// with the per-tuple variant constraints are satisfiable.
//
// Substitution reduces every variant non-evaluable atom to a
// var-vs-constant bound, so every variant edge is incident to the '0'
// node. A simple cycle can pass through '0' at most once, hence uses
// at most one new out-edge and one new in-edge; checking all such
// combinations against the invariant closure costs O(k²) for k variant
// constraints instead of O(n³).
func (p *Prepared) SatisfiableWith(variant []pred.Constraint) (bool, error) {
	if p.unsat {
		return false, nil
	}
	if len(variant) == 0 {
		return true, nil
	}
	// outs: new edges 0→a (weight w); ins: new edges b→0 (weight w).
	type half struct {
		node int
		w    int64
	}
	// Variants are tiny (one constraint per variant-non-evaluable atom
	// of a conjunct); stack buffers keep the hot Relevant path
	// allocation-free.
	var outsBuf, insBuf [8]half
	outs, ins := outsBuf[:0], insBuf[:0]
	for _, c := range variant {
		from, to, w := c.Y, c.X, c.C
		fi, ok := p.index[from]
		if !ok {
			return false, fmt.Errorf("satgraph: variant constraint %s mentions unknown variable %q", c, from)
		}
		ti, ok := p.index[to]
		if !ok {
			return false, fmt.Errorf("satgraph: variant constraint %s mentions unknown variable %q", c, to)
		}
		switch {
		case fi == p.zero && ti == p.zero:
			// Ground constraint 0 ≤ 0 + w.
			if w < 0 {
				return false, nil
			}
		case fi == p.zero:
			outs = append(outs, half{node: ti, w: w})
		case ti == p.zero:
			ins = append(ins, half{node: fi, w: w})
		default:
			return false, fmt.Errorf("satgraph: variant constraint %s does not touch the '0' node", c)
		}
	}
	// One new out-edge closed by an invariant path back to '0'.
	for _, o := range outs {
		if sadd(o.w, p.dist[o.node][p.zero]) < 0 {
			return false, nil
		}
	}
	// An invariant path from '0' closed by one new in-edge.
	for _, i := range ins {
		if sadd(p.dist[p.zero][i.node], i.w) < 0 {
			return false, nil
		}
	}
	// One new out-edge, an invariant path, and one new in-edge.
	for _, o := range outs {
		for _, i := range ins {
			if sadd(sadd(o.w, p.dist[o.node][i.node]), i.w) < 0 {
				return false, nil
			}
		}
	}
	return true, nil
}
