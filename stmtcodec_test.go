package mview

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"mview/internal/repl"
	"mview/internal/wal"
)

// randStmtString draws a name-like string, sometimes empty, non-ASCII
// or long.
func randStmtString(rng *rand.Rand) string {
	switch rng.IntN(6) {
	case 0:
		return ""
	case 1:
		return "ſK\x00\xff"
	case 2:
		b := make([]byte, 130+rng.IntN(200))
		for i := range b {
			b[i] = byte(rng.IntN(256))
		}
		return string(b)
	default:
		return []string{"r", "s", "acct", "A < 10 && B = C", "every=250ms"}[rng.IntN(5)]
	}
}

func randStmtStrings(rng *rand.Rand) []string {
	n := rng.IntN(4)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = randStmtString(rng)
	}
	return ss
}

// randStmtOps draws a transaction: runs of one relation and switches
// between a few, arities past the decoder's stack buffer, and values
// at the ends of int64.
func randStmtOps(rng *rand.Rand) []Op {
	ops := make([]Op, rng.IntN(8))
	for i := range ops {
		vals := make([]int64, rng.IntN(12))
		for j := range vals {
			switch rng.IntN(4) {
			case 0:
				vals[j] = []int64{0, 1, -1, math.MinInt64, math.MaxInt64}[rng.IntN(5)]
			default:
				vals[j] = rng.Int64() >> rng.IntN(64)
			}
		}
		rel := []string{"r", "s", "", "ſ"}[rng.IntN(4)]
		if rng.IntN(2) == 0 {
			ops[i] = Insert(rel, vals...)
		} else {
			ops[i] = Delete(rel, vals...)
		}
	}
	return ops
}

// randStmtPayload draws a statement of the given kind and returns its
// encoding with the statement decodeStmt must return for it.
func randStmtPayload(rng *rand.Rand, kind stmtKind) ([]byte, walStmt) {
	if kind == stmtTx {
		ops := randStmtOps(rng)
		tx := buildTx(ops)
		return encodeTxStmt(ops), walStmt{Kind: stmtTx, Tx: &tx}
	}
	st := walStmt{
		Kind:    kind,
		Name:    randStmtString(rng),
		Attrs:   randStmtStrings(rng),
		Spec:    ViewSpec{From: randStmtStrings(rng), Where: randStmtString(rng), Select: randStmtStrings(rng)},
		Options: randStmtStrings(rng),
		Rels:    randStmtStrings(rng),
	}
	return encodeDDLStmt(st), st
}

// allocatedBytes is the heap bytes fn allocates: the least of three
// runs, so allocations by other goroutines cannot inflate it.
func allocatedBytes(fn func()) uint64 {
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzStmtCodec: arbitrary bytes decode to a statement or an error —
// never a panic, never an allocation out of proportion to the input —
// and the input also seeds a random statement of every kind, which
// must round-trip, while every strict prefix of its encoding fails.
func FuzzStmtCodec(f *testing.F) {
	rng := rand.New(rand.NewPCG(1, 2))
	for kind := stmtTx; kind <= stmtPolicy; kind++ {
		p, _ := randStmtPayload(rng, kind)
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(stmtTx), 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{byte(stmtTx), 1, 0xfc, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{byte(stmtTx), 2, 2})
	f.Add([]byte{byte(stmtView), 0x80})
	f.Add([]byte{0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if n := allocatedBytes(func() { _, _ = decodeStmt(walKindStmt, data) }); n > 64*uint64(len(data))+1024 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), n)
		}
		var seed [16]byte
		copy(seed[:], data)
		rng := rand.New(rand.NewPCG(binary.LittleEndian.Uint64(seed[:8]), binary.LittleEndian.Uint64(seed[8:])))
		for kind := stmtTx; kind <= stmtPolicy; kind++ {
			p, want := randStmtPayload(rng, kind)
			got, err := decodeStmt(walKindStmt, p)
			if err != nil {
				t.Fatalf("kind %d: decoding %x: %v", kind, p, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("kind %d: %x decoded to %+v, want %+v", kind, p, got, want)
			}
			for cut := range len(p) {
				if _, err := decodeStmt(walKindStmt, p[:cut]); err == nil {
					t.Fatalf("kind %d: the %d-byte prefix of %x decoded", kind, cut, p)
				}
			}
		}
	})
}

// mixedCodecStmts writes to d the DDL and transactions the codec
// compatibility tests expect, through the public API: every record it
// logs is a walKindStmt one.
func mixedCodecStmts(t *testing.T, d *DB) {
	t.Helper()
	steps := []func() error{
		func() error {
			_, err := d.Exec(Insert("r", 4, 10), Delete("r", 1, 10), Insert("s", 10, 30))
			return err
		},
		func() error { return d.CreateView("vr", ViewSpec{From: []string{"r"}, Where: "A >= 2"}) },
		func() error { return d.SetPolicy("vj", OnDemand()) },
		func() error { _, err := d.Exec(Update("r", []int64{2, 10}, []int64{2, 11})...); return err },
		func() error { return d.DropView("vsel") },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
}

// loggedStmt is one statement the compatibility tests append to a log
// by hand, encoded straight to a walKindStmt payload rather than logged
// through the public API.
type loggedStmt struct {
	Kind    string
	Name    string
	Attrs   []string
	Spec    ViewSpec
	Options []string
	Rels    []string
	Ops     []loggedOp
}

type loggedOp struct {
	Del  bool
	Rel  string
	Vals []int64
}

// payload returns the statement's walKindStmt record payload.
func (g loggedStmt) payload(t *testing.T) []byte {
	t.Helper()
	if g.Kind == "tx" {
		ops := make([]Op, len(g.Ops))
		for i, o := range g.Ops {
			ops[i] = Op{del: o.Del, rel: o.Rel, vals: o.Vals}
		}
		return encodeTxStmt(ops)
	}
	kinds := map[string]stmtKind{"relation": stmtRelation, "view": stmtView, "joinview": stmtJoinView, "policy": stmtPolicy}
	k, ok := kinds[g.Kind]
	if !ok {
		t.Fatalf("no statement kind %q", g.Kind)
	}
	return encodeDDLStmt(walStmt{Kind: k, Name: g.Name, Attrs: g.Attrs, Spec: g.Spec, Options: g.Options, Rels: g.Rels})
}

// legacyCodecStmts are the statements the compatibility tests log by
// hand. The deferred option is the parse-only alias of ondemand that
// logs written before the policy options can hold.
var legacyCodecStmts = []loggedStmt{
	{Kind: "relation", Name: "r", Attrs: []string{"A", "B"}},
	{Kind: "relation", Name: "s", Attrs: []string{"B", "C"}},
	{Kind: "joinview", Name: "vj", Rels: []string{"r", "s"}},
	{Kind: "view", Name: "vsel", Spec: ViewSpec{From: []string{"r"}, Where: "A < 3"}, Options: []string{"filtered"}},
	{Kind: "view", Name: "vdef", Spec: ViewSpec{From: []string{"s"}}, Options: []string{"deferred"}},
	{Kind: "tx", Ops: []loggedOp{{Rel: "r", Vals: []int64{1, 10}}, {Rel: "r", Vals: []int64{2, 10}}, {Rel: "s", Vals: []int64{10, 20}}}},
	{Kind: "policy", Name: "vsel", Options: []string{"maxstale=1h"}},
	{Kind: "tx", Ops: []loggedOp{{Rel: "r", Vals: []int64{3, 10}}, {Del: true, Rel: "s", Vals: []int64{10, 20}}, {Rel: "s", Vals: []int64{10, 21}}}},
}

// codecTwin is an in-memory database that executed the hand-logged and
// the API-logged statements through the public API, with no codec
// involved.
func codecTwin(t *testing.T) *DB {
	t.Helper()
	d := Open()
	options := func(names []string) []ViewOption {
		opts, err := optionsByName(names)
		if err != nil {
			t.Fatal(err)
		}
		return opts
	}
	for _, g := range legacyCodecStmts {
		var err error
		switch g.Kind {
		case "relation":
			err = d.CreateRelation(g.Name, g.Attrs...)
		case "view":
			err = d.CreateView(g.Name, g.Spec, options(g.Options)...)
		case "joinview":
			err = d.CreateJoinView(g.Name, g.Rels, options(g.Options)...)
		case "policy":
			err = d.SetPolicy(g.Name, options(g.Options)[0])
		case "tx":
			ops := make([]Op, len(g.Ops))
			for i, o := range g.Ops {
				if ops[i] = Insert(o.Rel, o.Vals...); o.Del {
					ops[i] = Delete(o.Rel, o.Vals...)
				}
			}
			_, err = d.Exec(ops...)
		default:
			t.Fatalf("no API call for legacy statement kind %q", g.Kind)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	mixedCodecStmts(t, d)
	return d
}

// recordKinds counts the records of each kind in a durable directory's
// log.
func recordKinds(t *testing.T, dir string) map[uint8]int {
	t.Helper()
	kinds := make(map[uint8]int)
	if err := wal.Replay(filepath.Join(dir, logFile), 0, func(r wal.Record) error {
		kinds[r.Kind]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return kinds
}

func mustSamePolicies(t *testing.T, label string, a, b *DB) {
	t.Helper()
	if !slices.Equal(a.Views(), b.Views()) {
		t.Fatalf("%s: views %v vs %v", label, a.Views(), b.Views())
	}
	for _, v := range a.Views() {
		pa, _ := a.Policy(v)
		pb, _ := b.Policy(v)
		if pa.Spec != pb.Spec {
			t.Fatalf("%s: view %s policy %q vs %q", label, v, pa.Spec, pb.Spec)
		}
	}
}

// TestMixedCodecLogRecovery: a log whose older records were encoded
// by hand, as a previous build wrote them, and whose newer ones were
// logged through the public API recovers to the state that executing
// the same statements directly reaches.
func TestMixedCodecLogRecovery(t *testing.T) {
	dir := t.TempDir()
	lg, err := wal.Open(filepath.Join(dir, logFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range legacyCodecStmts {
		if _, err := lg.Append(walKindStmt, g.payload(t)); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	d := openDur(t, dir)
	mixedCodecStmts(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if kinds := recordKinds(t, dir); len(kinds) != 1 || kinds[walKindStmt] <= len(legacyCodecStmts) {
		t.Fatalf("log record kinds = %v, want only walKindStmt, more than the %d hand-logged", kinds, len(legacyCodecStmts))
	}

	d = openDur(t, dir)
	defer d.Close()
	twin := codecTwin(t)
	mustEqualDB(t, "recovered vs twin", twin, d)
	mustSamePolicies(t, "recovered vs twin", twin, d)
}

// TestFollowerAppliesMixedCodecStream: a follower on the in-process
// transport applies a stream that holds both hand-encoded records (as a
// leader running the previous build ships them) and API-logged ones.
func TestFollowerAppliesMixedCodecStream(t *testing.T) {
	leader := openDur(t, t.TempDir())
	defer leader.Close()
	srv, err := leader.ReplicationServer()
	if err != nil {
		t.Fatal(err)
	}
	follower, err := openFollowerTransport(repl.LocalTransport{S: srv}, "mixed")
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	// Wait out the bootstrap: one that read a later leader snapshot
	// would re-materialize the deferred view fresh, which the twin's
	// never is.
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, _ := follower.FollowerStatus(); st.State == "streaming" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never finished its bootstrap")
		}
	}

	// Log each hand-encoded statement as a leader does: applied, then
	// appended, under the statement lock.
	for _, g := range legacyCodecStmts {
		p := g.payload(t)
		st, err := decodeStmt(walKindStmt, p)
		if err != nil {
			t.Fatal(err)
		}
		unlock := leader.lockIfDurable()
		err = leader.applyStmt(st)
		if err == nil {
			_, err = leader.wal.Append(walKindStmt, p)
		}
		unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	mixedCodecStmts(t, leader)
	waitReplicated(t, follower, srv.LeaderLSN())

	twin := codecTwin(t)
	mustEqualDB(t, "leader vs twin", twin, leader)
	mustEqualDB(t, "follower vs twin", twin, follower)
	mustSamePolicies(t, "follower vs twin", twin, follower)
}
