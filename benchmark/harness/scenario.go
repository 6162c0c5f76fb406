package harness

import (
	"fmt"
	"slices"
	"strconv"

	"mview/internal/tuple"
	"mview/internal/workload"
)

// Op is one insert or delete of a generated transaction. Every
// relation the workloads use has arity 2 or 3.
type Op struct {
	Rel int8 // index into Scenario.Rels
	Del bool
	V   [3]int64
}

// RelDef is a base relation the harness creates.
type RelDef struct {
	Name  string
	Attrs []string
}

// ViewDef is a view the harness creates, as POST /v1/views takes it.
type ViewDef struct {
	Name    string   `json:"name"`
	From    []string `json:"from"`
	Where   string   `json:"where,omitempty"`
	Select  []string `json:"select,omitempty"`
	Options []string `json:"options,omitempty"`

	// relevant is the generator's own §4 oracle for filtered views: it
	// reports whether a tuple of relation rel can affect the view in
	// some database state. nil on unfiltered views.
	relevant func(rel int8, v [3]int64) bool
}

func (v ViewDef) filtered() bool { return v.relevant != nil }

// Scenario is one workload's data, views and transaction generator.
// Writers own disjoint keys, so the final base relations — and with
// them every view — do not depend on how the writers' transactions
// interleave at the server.
type Scenario struct {
	Name    string
	Rels    []RelDef
	Views   []ViewDef
	Preload [][][3]int64 // rows per relation
	Writers int
	// ReadView is the view the reader polls on the follower ("" = the
	// workload has no reader and no follower).
	ReadView string
	Durable  bool // leader runs with -data
	Group    bool // leader runs with -group-commit
	// Checkpoint asks for one in-line POST /v1/checkpoint at the
	// open-loop midpoint (and at the midpoint of the traced pass).
	Checkpoint bool

	// nextTx appends writer w's next transaction to ops. Generators
	// keep per-writer state, so calls for one writer must be in order.
	nextTx func(w int, ops []Op) []Op
}

// Size scales a scenario's row counts: 1 is the benchmark, the
// self-test uses a small fraction.
type Size float64

func (s Size) of(n int) int {
	m := int(float64(n) * float64(s))
	if m < 8 {
		m = 8
	}
	return m
}

// WorkloadNames lists the workloads in ledger order.
var WorkloadNames = []string{"durable-oltp", "join-maint", "filter-fanout", "read-replica"}

// NewScenario builds the named workload from the seed. clients caps
// the client goroutines: the two-writer workloads drop to one writer
// on a one-CPU host. (read-replica needs its writer and its reader.)
func NewScenario(name string, seed int64, size Size, clients int) (*Scenario, error) {
	writers := max(1, min(2, clients))
	switch name {
	case "durable-oltp":
		return durableOLTP(seed, size, writers), nil
	case "join-maint":
		return joinMaint(seed, size, writers), nil
	case "filter-fanout":
		return filterFanout(seed, size, writers), nil
	case "read-replica":
		return readReplica(seed, size), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, WorkloadNames)
}

// writerGens gives each writer its own generator so one writer's
// stream does not depend on how many transactions another drew.
func writerGens(seed int64, n int) []*workload.Gen {
	gs := make([]*workload.Gen, n)
	for w := range gs {
		gs[w] = workload.New(seed*1009 + int64(w) + 1)
	}
	return gs
}

// ownKey draws a key in [0, n) that is congruent to w modulo writers.
func ownKey(g *workload.Gen, n, w, writers int) int {
	per := n / writers
	return int(g.Int(int64(per)))*writers + w
}

// distinct redraws until the value is not among seen: a transaction
// touches each row once, so its operations are its net effect and the
// generator's count of filter tests matches the server's.
func distinct(seen []int, draw func() int) int {
	for {
		if k := draw(); !slices.Contains(seen, k) {
			return k
		}
	}
}

// other draws a value in [0, domain) different from cur.
func other(g *workload.Gen, domain, cur int64) int64 {
	v := g.Int(domain - 1)
	if v >= cur {
		v++
	}
	return v
}

// durableOLTP: acct(ID, BAL, BR) with one select view keeping ~10%.
// A transaction replaces one row, so commit cost is HTTP + group
// queue + WAL append/fsync and maintenance is close to nothing.
func durableOLTP(seed int64, size Size, writers int) *Scenario {
	n := size.of(20000) &^ 1
	g := workload.New(seed)
	acct := make([][3]int64, n)
	for id := range acct {
		acct[id] = [3]int64{int64(id), g.Int(1000), g.Int(100)}
	}
	s := &Scenario{
		Name:       "durable-oltp",
		Rels:       []RelDef{{"acct", []string{"ID", "BAL", "BR"}}},
		Views:      []ViewDef{{Name: "rich", From: []string{"acct"}, Where: "BAL >= 900"}},
		Preload:    [][][3]int64{append([][3]int64(nil), acct...)},
		Writers:    writers,
		Durable:    true,
		Group:      true,
		Checkpoint: true,
	}
	gens := writerGens(seed, s.Writers)
	s.nextTx = func(w int, ops []Op) []Op {
		id := ownKey(gens[w], n, w, s.Writers)
		old := acct[id]
		acct[id][1] = other(gens[w], 1000, old[1])
		return append(ops, Op{Rel: 0, Del: true, V: old}, Op{Rel: 0, V: acct[id]})
	}
	return s
}

// joinMaint: big(K, A, B) referencing mid(A, C) and small(B, D); a
// three-way join, a two-way join with a selection, and a projection of
// the three-way join onto (C, D) whose rows carry large §5.2 counters.
// The filtered views have no single-relation atom, so the §4 filter
// tests every tuple and can discard none.
func joinMaint(seed int64, size Size, writers int) *Scenario {
	nb, nm, ns := size.of(50000)&^1, size.of(5000)&^1, size.of(2000)&^1
	g := workload.New(seed)
	big := make([][3]int64, nb)
	for k := range big {
		big[k] = [3]int64{int64(k), g.Int(int64(nm)), g.Int(int64(ns))}
	}
	mid := make([][3]int64, nm)
	for a := range mid {
		mid[a] = [3]int64{int64(a), g.Int(100)}
	}
	small := make([][3]int64, ns)
	for b := range small {
		small[b] = [3]int64{int64(b), g.Int(50)}
	}
	all := func(int8, [3]int64) bool { return true }
	s := &Scenario{
		Name: "join-maint",
		Rels: []RelDef{
			{"big", []string{"K", "A", "B"}},
			{"mid", []string{"MA", "C"}},
			{"small", []string{"SB", "D"}},
		},
		Views: []ViewDef{
			{Name: "j3", From: []string{"big", "mid", "small"}, Where: "A = MA && B = SB",
				Select: []string{"K", "A", "B", "C", "D"}, Options: []string{"filtered"}, relevant: all},
			{Name: "j2sel", From: []string{"big", "mid"}, Where: "A = MA && C < 50",
				Select: []string{"K", "A", "C"}},
			{Name: "jproj", From: []string{"big", "mid", "small"}, Where: "A = MA && B = SB",
				Select: []string{"C", "D"}, Options: []string{"filtered"}, relevant: all},
		},
		Preload: [][][3]int64{
			append([][3]int64(nil), big...),
			append([][3]int64(nil), mid...),
			append([][3]int64(nil), small...),
		},
		Writers: writers,
	}
	gens := writerGens(seed, s.Writers)
	count := make([]int, s.Writers)
	s.nextTx = func(w int, ops []Op) []Op {
		g := gens[w]
		var keys [4]int
		for i := range keys {
			k := distinct(keys[:i], func() int { return ownKey(g, nb, w, s.Writers) })
			keys[i] = k
			old := big[k]
			big[k][1] = other(g, int64(nm), old[1])
			big[k][2] = other(g, int64(ns), old[2])
			ops = append(ops, Op{Rel: 0, Del: true, V: old}, Op{Rel: 0, V: big[k]})
		}
		if count[w]%4 == 3 { // a second modified operand: k = 2 truth-table rows
			a := ownKey(g, nm, w, s.Writers)
			old := mid[a]
			mid[a][1] = other(g, 100, old[1])
			ops = append(ops, Op{Rel: 1, Del: true, V: old}, Op{Rel: 1, V: mid[a]})
		}
		count[w]++
		return ops
	}
	return s
}

// filterFanout: ev(K, A, B) under 32 select views over disjoint K
// ranges (each with an A < B + 5 atom) and 4 join views over wider K
// ranges. Only K < 32000 can reach any view, and 95% of the updated
// tuples have K beyond that, so the filter proves them irrelevant 36
// times over and differential maintenance sees the remaining 5%.
func filterFanout(seed int64, size Size, writers int) *Scenario {
	const (
		selViews, joinViews = 32, 4
		selWidth            = 1000
		hotSpan             = selViews * selWidth // keys below this can reach a view
		dims                = 200
	)
	n := size.of(20000) &^ 3
	nHot := n / 20 &^ 1 // 5% of rows, and of updates, are hot
	nCold := n - nHot
	g := workload.New(seed)
	// Row i < nHot is hot, with its key spread evenly over the view
	// ranges; the rest are cold.
	keyOf := func(i int) int64 {
		if i < nHot {
			return int64(i) * hotSpan / int64(nHot)
		}
		return hotSpan + int64(i-nHot)
	}
	ev := make([][3]int64, n)
	for i := range ev {
		ev[i] = [3]int64{keyOf(i), g.Int(dims + 10), g.Int(dims)}
	}
	dim := make([][3]int64, dims)
	for b := range dim {
		dim[b] = [3]int64{int64(b), g.Int(1000)}
	}
	s := &Scenario{
		Name: "filter-fanout",
		Rels: []RelDef{
			{"ev", []string{"K", "A", "B"}},
			{"dim", []string{"DB", "W"}},
		},
		Preload: [][][3]int64{append([][3]int64(nil), ev...), append([][3]int64(nil), dim...)},
		Writers: writers,
	}
	for i := 0; i < selViews; i++ {
		lo, hi := int64(i*selWidth), int64((i+1)*selWidth)
		s.Views = append(s.Views, ViewDef{
			Name:    "sel" + strconv.Itoa(i),
			From:    []string{"ev"},
			Where:   fmt.Sprintf("K >= %d && K < %d && A < B + 5", lo, hi),
			Options: []string{"filtered"},
			relevant: func(_ int8, v [3]int64) bool {
				return v[0] >= lo && v[0] < hi && v[1] < v[2]+5
			},
		})
	}
	joinWidth := int64(hotSpan / joinViews)
	for j := 0; j < joinViews; j++ {
		lo, hi := int64(j)*joinWidth, int64(j+1)*joinWidth
		s.Views = append(s.Views, ViewDef{
			Name:    "join" + strconv.Itoa(j),
			From:    []string{"ev", "dim"},
			Where:   fmt.Sprintf("B = DB && K >= %d && K < %d", lo, hi),
			Select:  []string{"K", "A", "W"},
			Options: []string{"filtered"},
			relevant: func(rel int8, v [3]int64) bool {
				return rel != 0 || (v[0] >= lo && v[0] < hi)
			},
		})
	}
	gens := writerGens(seed, s.Writers)
	s.nextTx = func(w int, ops []Op) []Op {
		g := gens[w]
		var rows [8]int
		for i := range rows {
			r := distinct(rows[:i], func() int {
				if g.Int(20) == 0 {
					return ownKey(g, nHot, w, s.Writers)
				}
				return nHot + ownKey(g, nCold, w, s.Writers)
			})
			rows[i] = r
			old := ev[r]
			ev[r][1] = other(g, dims+10, old[1])
			ev[r][2] = other(g, dims, old[2])
			ops = append(ops, Op{Rel: 0, Del: true, V: old}, Op{Rel: 0, V: ev[r]})
		}
		return ops
	}
	return s
}

// readReplica: win(SEQ, SRC) is a sliding window of the last `window`
// sequence numbers joined to a 16-row src(SID, TAG); the view `recent`
// therefore holds a constant number of rows whose largest SEQ says how
// far the follower has applied.
func readReplica(seed int64, size Size) *Scenario {
	window := size.of(500)
	const sources = 16
	g := workload.New(seed)
	win := make([][3]int64, window)
	for i := range win {
		win[i] = [3]int64{int64(i), int64(i % sources)}
	}
	src := make([][3]int64, sources)
	for i := range src {
		src[i] = [3]int64{int64(i), 100 + g.Int(900)}
	}
	s := &Scenario{
		Name: "read-replica",
		Rels: []RelDef{
			{"win", []string{"SEQ", "SRC"}},
			{"src", []string{"SID", "TAG"}},
		},
		Views: []ViewDef{{Name: "recent", From: []string{"win", "src"}, Where: "SRC = SID",
			Select: []string{"SEQ", "SRC", "TAG"}}},
		Preload:  [][][3]int64{win, src},
		Writers:  1,
		ReadView: "recent",
		Durable:  true,
		Group:    true,
	}
	next := int64(window)
	s.nextTx = func(_ int, ops []Op) []Op {
		n := next
		next++
		return append(ops,
			Op{Rel: 0, V: [3]int64{n, n % sources}},
			Op{Rel: 0, Del: true, V: [3]int64{n - int64(window), (n - int64(window)) % sources}})
	}
	return s
}

// firstSeq is the sequence number read-replica's first transaction
// inserts: transaction i of the stream inserts firstSeq()+i.
func (s *Scenario) firstSeq() int64 { return int64(len(s.Preload[0])) }

func (s *Scenario) arity(rel int8) int { return len(s.Rels[rel].Attrs) }

func (s *Scenario) tupleOf(o Op) tuple.Tuple {
	return tuple.Tuple(o.V[:s.arity(o.Rel)]).Clone()
}

// Stream is one writer's pre-generated transactions: the operations
// (for the model) and the complete HTTP requests (for the wire), both
// stored flat so a long stream is a handful of allocations.
type Stream struct {
	ops    []Op
	opOff  []int32 // tx i is ops[opOff[i]:opOff[i+1]]
	req    []byte
	reqOff []int // request i is req[reqOff[i]:reqOff[i+1]]

	bodyBytes int // total JSON body bytes over all requests
}

// Len is the number of transactions generated.
func (st *Stream) Len() int { return len(st.opOff) - 1 }

// Tx returns transaction i's operations.
func (st *Stream) Tx(i int) []Op { return st.ops[st.opOff[i]:st.opOff[i+1]] }

// Request returns transaction i as HTTP/1.1 request bytes.
func (st *Stream) Request(i int) []byte { return st.req[st.reqOff[i]:st.reqOff[i+1]] }

// BodyBytes is the mean JSON body size of the stream's requests.
func (st *Stream) BodyBytes() float64 {
	return ratio(float64(st.bodyBytes), float64(st.Len()))
}

// Generate draws n transactions for writer w.
func (s *Scenario) Generate(w, n int) *Stream {
	st := &Stream{opOff: make([]int32, 1, n+1), reqOff: make([]int, 1, n+1)}
	var body []byte
	for i := 0; i < n; i++ {
		st.ops = s.nextTx(w, st.ops)
		st.opOff = append(st.opOff, int32(len(st.ops)))
		body = appendExecBody(body[:0], s, st.Tx(i))
		st.bodyBytes += len(body)
		st.req = appendRequest(st.req, "POST", "/v1/exec", body)
		st.reqOff = append(st.reqOff, len(st.req))
	}
	return st
}

// appendExecBody encodes ops as the JSON POST /v1/exec takes.
func appendExecBody(dst []byte, s *Scenario, ops []Op) []byte {
	dst = append(dst, `{"ops":[`...)
	for i, o := range ops {
		if i > 0 {
			dst = append(dst, ',')
		}
		if o.Del {
			dst = append(dst, `{"op":"delete","rel":"`...)
		} else {
			dst = append(dst, `{"op":"insert","rel":"`...)
		}
		dst = append(dst, s.Rels[o.Rel].Name...)
		dst = append(dst, `","values":[`...)
		for j := 0; j < s.arity(o.Rel); j++ {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, o.V[j], 10)
		}
		dst = append(dst, `]}`...)
	}
	return append(dst, `]}`...)
}
