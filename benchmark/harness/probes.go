package harness

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"mview"
	"mview/internal/delta"
	"mview/internal/diffeval"
	"mview/internal/eval"
	"mview/internal/expr"
	"mview/internal/httpapi"
	"mview/internal/irrelevance"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/satgraph"
	"mview/internal/schema"
	"mview/internal/tuple"
	"mview/internal/wal"
)

// The layer probes time each package's exported functions directly,
// in this process, on inputs sampled from the same generated workload:
// the scenario's preloaded relations and the first transactions of
// writer 0's stream. They say what a layer costs in isolation; the
// traced pass says how much of a commit it is.

// probeTx is how many transactions the probes replay.
const probeTx = 300

// sink keeps results alive so the compiler cannot drop a timed call.
var sink any

// timeN runs f n times and returns the total time.
func timeN(n int, f func(i int)) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return time.Since(t0)
}

func (r *Runner) runProbes(o Options, ms *metricSet) error {
	sc, err := NewScenario(o.Workload, o.Seed, o.Size, r.Clients)
	if err != nil {
		return err
	}
	model, err := NewModel(sc)
	if err != nil {
		return err
	}
	st := sc.Generate(0, probeTx)
	tmp, err := os.MkdirTemp(o.Scratch, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	if err := probeTuples(sc, st, ms); err != nil {
		return err
	}
	if err := probeRelation(sc, model, st, ms); err != nil {
		return err
	}
	if err := probeFilter(sc, model, st, ms); err != nil {
		return err
	}
	if err := probeDelta(sc, model, st, ms); err != nil {
		return err
	}
	if err := probeMaintenance(sc, model, st, ms); err != nil {
		return err
	}
	return probeEngine(sc, st, tmp, ms)
}

// sampleTuples returns the tuples of the stream's operations on
// relation rel.
func sampleTuples(sc *Scenario, st *Stream, rel int8) []tuple.Tuple {
	var out []tuple.Tuple
	for i := 0; i < st.Len(); i++ {
		for _, o := range st.Tx(i) {
			if o.Rel == rel {
				out = append(out, sc.tupleOf(o))
			}
		}
	}
	return out
}

// probeTuples: the key codec every relation and index is built on.
func probeTuples(sc *Scenario, st *Stream, ms *metricSet) error {
	ts := sampleTuples(sc, st, 0)
	const rounds = 50
	var buf []byte
	keys := make([]string, len(ts))
	for i, t := range ts {
		keys[i] = t.Key()
	}
	enc := timeN(rounds, func(int) {
		for _, t := range ts {
			buf = tuple.AppendKey(buf[:0], t)
		}
	})
	sink = buf
	arity := sc.arity(0)
	var derr error
	dec := timeN(rounds, func(int) {
		for _, k := range keys {
			t, err := tuple.FromKey(k, arity)
			if err != nil {
				derr = err
			}
			sink = t
		}
	})
	if derr != nil {
		return derr
	}
	ms.set("tuple.key_encode_ns", nsPer(enc, rounds*len(ts)), rounds*len(ts))
	ms.set("tuple.key_decode_ns", nsPer(dec, rounds*len(ts)), rounds*len(ts))
	return nil
}

// probeRelation: insert into, clone and probe the workload's first
// (largest) relation.
func probeRelation(sc *Scenario, model *Model, st *Stream, ms *metricSet) error {
	base := model.Rels[0]
	var fresh []tuple.Tuple
	for _, t := range sampleTuples(sc, st, 0) {
		if !base.Has(t) {
			fresh = append(fresh, t)
		}
	}
	const rounds = 20
	var ins time.Duration
	var ierr error
	for r := 0; r < rounds; r++ {
		c := base.Clone()
		ins += timeN(len(fresh), func(i int) {
			if err := c.Insert(fresh[i]); err != nil {
				ierr = err
			}
		})
	}
	if ierr != nil {
		return ierr
	}
	ms.set("relation.insert_ns", nsPer(ins, rounds*len(fresh)), rounds*len(fresh))

	// A clone is O(shards); what it costs shows up at the first write
	// after it, so time clone + one insert + one delete, the pattern of
	// a commit against a published snapshot.
	const clones = 2000
	cl := timeN(clones, func(i int) {
		c := base.Clone()
		t := fresh[i%len(fresh)]
		_ = c.Insert(t)
		c.Delete(t)
		sink = c
	})
	ms.set("relation.clone_ns", nsPer(cl, clones), clones)

	pos := sc.arity(0) - 1
	ix, err := relation.BuildIndex(base, pos)
	if err != nil {
		return err
	}
	ts := sampleTuples(sc, st, 0)
	const probeRounds = 50
	var hits int
	pr := timeN(probeRounds, func(int) {
		for _, t := range ts {
			ix.EachMatch(t[pos], func(tuple.Tuple) { hits++ })
		}
	})
	sink = hits
	ms.set("relation.index_probe_ns", nsPer(pr, probeRounds*len(ts)), probeRounds*len(ts))
	return nil
}

// probeFilter: §4 on the workload's first view — building a checker,
// checking sampled tuples, the satisfiability test under it, and the
// compiled program that evaluates the tuple-only atoms.
func probeFilter(sc *Scenario, model *Model, st *Stream, ms *metricSet) error {
	b := model.Bounds[0]
	opts := irrelevance.Options{Method: satgraph.MethodAdaptive}
	const builds = 200
	var chk *irrelevance.Checker
	var cerr error
	nc := timeN(builds, func(int) {
		chk, cerr = irrelevance.NewChecker(b, 0, opts)
	})
	if cerr != nil {
		return cerr
	}
	ms.set("irrelevance.new_checker_us", usPer(nc, builds), builds)

	rel := relIndex(sc, b.Operands[0].Rel)
	ts := sampleTuples(sc, st, rel)
	const rounds = 50
	var rerr error
	ck := timeN(rounds, func(int) {
		for _, t := range ts {
			if _, err := chk.Relevant(t); err != nil {
				rerr = err
			}
		}
	})
	if rerr != nil {
		return rerr
	}
	ms.set("irrelevance.check_ns", nsPer(ck, rounds*len(ts)), rounds*len(ts))

	conj := pred.True()
	if len(b.Where.Conjuncts) > 0 {
		conj = b.Where.Conjuncts[0]
	}
	const sats = 2000
	var serr error
	sat := timeN(sats, func(int) {
		if _, err := satgraph.SatisfiableConjunction(conj, satgraph.MethodAdaptive); err != nil {
			serr = err
		}
	})
	if serr != nil {
		return serr
	}
	ms.set("satgraph.sat_ns", nsPer(sat, sats), sats)

	qs := b.Operands[0].QScheme
	_, tupleOnly, _ := conj.Split(func(v pred.Var) bool { return qs.Has(schema.Attribute(v)) })
	prog, err := pred.CompileAtoms(tupleOnly, qs)
	if err != nil {
		return err
	}
	var pass int
	ev := timeN(rounds, func(int) {
		for _, t := range ts {
			if prog.Eval(t) {
				pass++
			}
		}
	})
	sink = pass
	ms.set("pred.program_eval_ns", nsPer(ev, rounds*len(ts)), rounds*len(ts))
	return nil
}

func relIndex(sc *Scenario, name string) int8 {
	for i, rd := range sc.Rels {
		if rd.Name == name {
			return int8(i)
		}
	}
	return 0
}

// buildTx records a generated transaction as the engine does.
func buildTx(sc *Scenario, ops []Op) *delta.Tx {
	var tx delta.Tx
	tx.Reserve(len(ops), 3*len(ops))
	for _, o := range ops {
		if o.Del {
			tx.Delete(sc.Rels[o.Rel].Name, sc.tupleOf(o))
		} else {
			tx.Insert(sc.Rels[o.Rel].Name, sc.tupleOf(o))
		}
	}
	return &tx
}

// replay walks the stream over private copies of the model's
// relations: for each transaction it computes the net effect, hands it
// to visit with the pre-transaction state, then applies it.
func replay(sc *Scenario, model *Model, st *Stream, visit func(i int, tx *delta.Tx, lookup func(string) (*relation.Relation, bool), net []delta.Update) error) error {
	rels := make(map[string]*relation.Relation, len(sc.Rels))
	for i, rd := range sc.Rels {
		rels[rd.Name] = model.Rels[i].Clone()
	}
	lookup := func(name string) (*relation.Relation, bool) {
		r, ok := rels[name]
		return r, ok
	}
	for i := 0; i < st.Len(); i++ {
		tx := buildTx(sc, st.Tx(i))
		net, err := tx.Net(lookup)
		if err != nil {
			return err
		}
		if err := visit(i, tx, lookup, net); err != nil {
			return err
		}
		for _, u := range net {
			if err := u.Apply(rels[u.Rel]); err != nil {
				return err
			}
		}
	}
	return nil
}

// probeDelta: net effect of one transaction, and §6 composition of
// four consecutive ones (a commit group).
func probeDelta(sc *Scenario, model *Model, st *Stream, ms *metricSet) error {
	var netTime, composeTime time.Duration
	var ops, composed int
	var group [][]delta.Update
	err := replay(sc, model, st, func(i int, tx *delta.Tx, lookup func(string) (*relation.Relation, bool), net []delta.Update) error {
		const rounds = 5
		var nerr error
		netTime += timeN(rounds, func(int) {
			if _, err := tx.Net(lookup); err != nil {
				nerr = err
			}
		})
		ops += rounds * tx.Len()
		group = append(group, net)
		if len(group) == 4 {
			composeTime += timeN(rounds, func(int) {
				out, err := delta.ComposeTxs(group)
				if err != nil {
					nerr = err
				}
				sink = out
			})
			composed += rounds * len(group)
			group = group[:0]
		}
		return nerr
	})
	if err != nil {
		return err
	}
	ms.set("delta.net_ns_per_op", nsPer(netTime, ops), ops)
	ms.set("delta.compose_ns_per_tx", nsPer(composeTime, composed), composed)
	return nil
}

// indexes are persistent equi-join indexes over the replayed
// relations, kept the way the engine keeps them (db.ensureIndexes).
type indexes map[string]map[int]*relation.Index

func (ix indexes) Index(rel string, pos int) *relation.Index { return ix[rel][pos] }

func (ix indexes) ensure(b *expr.Bound, lookup func(string) (*relation.Relation, bool)) error {
	for _, conj := range b.Where.Conjuncts {
		for _, a := range conj.Atoms {
			if a.Op != pred.OpEQ || !a.HasRightVar() || a.C != 0 {
				continue
			}
			for _, v := range []pred.Var{a.Left, a.Right} {
				ops := b.OperandsOf(v)
				if len(ops) != 1 {
					continue
				}
				op := b.Operands[ops[0]]
				pos, ok := op.QScheme.Pos(schema.Attribute(v))
				if !ok || ix[op.Rel][pos] != nil {
					continue
				}
				r, _ := lookup(op.Rel)
				built, err := relation.BuildIndex(r, pos)
				if err != nil {
					return err
				}
				if ix[op.Rel] == nil {
					ix[op.Rel] = make(map[int]*relation.Index)
				}
				ix[op.Rel][pos] = built
			}
		}
	}
	return nil
}

func (ix indexes) apply(u delta.Update) {
	for _, one := range ix[u.Rel] {
		if u.Deletes != nil {
			u.Deletes.Each(one.Remove)
		}
		if u.Inserts != nil {
			u.Inserts.Each(one.Add)
		}
	}
}

// probeMaintenance: §5 differential maintenance of every view of the
// workload per transaction, against recomputing the same views.
func probeMaintenance(sc *Scenario, model *Model, st *Stream, ms *metricSet) error {
	type maintained struct {
		b    *expr.Bound
		m    *diffeval.Maintainer
		view *relation.Counted
	}
	var views []maintained
	var materialize time.Duration
	for i, b := range model.Bounds {
		m, err := diffeval.NewMaintainer(b, diffeval.Options{
			Filter:        sc.Views[i].filtered(),
			FilterOptions: irrelevance.Options{Method: satgraph.MethodAdaptive},
		})
		if err != nil {
			return err
		}
		t0 := time.Now()
		v, err := eval.Materialize(b, model.Operands(b), eval.Options{Greedy: true})
		materialize += time.Since(t0)
		if err != nil {
			return err
		}
		views = append(views, maintained{b, m, v})
	}
	ix := make(indexes)
	var compute, apply time.Duration
	err := replay(sc, model, st, func(i int, _ *delta.Tx, lookup func(string) (*relation.Relation, bool), net []delta.Update) error {
		if i == 0 {
			for _, v := range views {
				if err := ix.ensure(v.b, lookup); err != nil {
					return err
				}
			}
		}
		for _, v := range views {
			insts := make([]*relation.Relation, len(v.b.Operands))
			for j, op := range v.b.Operands {
				insts[j], _ = lookup(op.Rel)
			}
			t0 := time.Now()
			d, err := v.m.ComputeDeltaWith(insts, net, ix)
			t1 := time.Now()
			if err != nil {
				return err
			}
			if err := diffeval.Apply(v.view, d); err != nil {
				return err
			}
			compute += t1.Sub(t0)
			apply += time.Since(t1)
		}
		for _, u := range net {
			ix.apply(u)
		}
		return nil
	})
	if err != nil {
		return err
	}
	n := st.Len()
	ms.set("diffeval.compute_us_per_tx", usPer(compute, n), n)
	ms.set("diffeval.apply_us_per_tx", usPer(apply, n), n)
	ms.set("eval.materialize_ms", float64(materialize.Nanoseconds())/1e6, len(views))
	ms.set("diffeval.vs_recompute", ratio(float64(materialize.Nanoseconds()), float64((compute+apply).Nanoseconds())/float64(n)), n)
	return nil
}

// twin is an in-process database loaded like the daemon's.
func twin(sc *Scenario, db *mview.DB) error {
	for _, rd := range sc.Rels {
		if err := db.CreateRelation(rd.Name, rd.Attrs...); err != nil {
			return err
		}
	}
	for rel, rows := range sc.Preload {
		for len(rows) > 0 {
			n := min(len(rows), preloadBatch)
			ops := make([]mview.Op, n)
			for i, row := range rows[:n] {
				ops[i] = mview.Insert(sc.Rels[rel].Name, row[:sc.arity(int8(rel))]...)
			}
			rows = rows[n:]
			if _, err := db.Exec(ops...); err != nil {
				return err
			}
		}
	}
	for _, vd := range sc.Views {
		var opts []mview.ViewOption
		for _, name := range vd.Options {
			o, err := mview.ParseViewOption(name)
			if err != nil {
				return err
			}
			opts = append(opts, o)
		}
		if err := db.CreateView(vd.Name, mview.ViewSpec{From: vd.From, Where: vd.Where, Select: vd.Select}, opts...); err != nil {
			return err
		}
	}
	return nil
}

func mviewOps(sc *Scenario, ops []Op) []mview.Op {
	out := make([]mview.Op, len(ops))
	for i, o := range ops {
		vals := append([]int64(nil), o.V[:sc.arity(o.Rel)]...)
		if o.Del {
			out[i] = mview.Delete(sc.Rels[o.Rel].Name, vals...)
		} else {
			out[i] = mview.Insert(sc.Rels[o.Rel].Name, vals...)
		}
	}
	return out
}

// probeEngine: three twins of the daemon's database commit the same
// transactions — through DB.Exec in memory, through the HTTP handler,
// and through DB.Exec with an un-synced commit log — so the handler's
// and the log's own cost are differences between otherwise equal runs.
// The twins take turns transaction by transaction, so collector and
// cache state drift hits all three alike.
func probeEngine(sc *Scenario, st *Stream, tmp string, ms *metricSet) error {
	n := st.Len()
	mem, served := mview.Open(), mview.Open()
	dir := filepath.Join(tmp, "wal")
	logged, err := mview.OpenDurable(dir)
	if err != nil {
		return err
	}
	defer logged.Close()
	logged.SetLogSync(false)
	for _, db := range []*mview.DB{mem, served, logged} {
		if err := twin(sc, db); err != nil {
			return err
		}
	}
	h := httpapi.NewWith(served, httpapi.WithoutObs())
	var direct, viaHTTP, durable time.Duration
	for i := 0; i < n; i++ {
		ops := mviewOps(sc, st.Tx(i))
		req := st.Request(i)
		body := req[bytes.Index(req, []byte("\r\n\r\n"))+4:]

		t0 := time.Now()
		_, err := mem.Exec(ops...)
		t1 := time.Now()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/exec", bytes.NewReader(body)))
		t2 := time.Now()
		_, lerr := logged.Exec(ops...)
		t3 := time.Now()
		if err != nil {
			return err
		}
		if lerr != nil {
			return lerr
		}
		if rec.Code != http.StatusOK {
			return fmt.Errorf("exec through the handler: status %d: %s", rec.Code, rec.Body)
		}
		direct += t1.Sub(t0)
		viaHTTP += t2.Sub(t1)
		durable += t3.Sub(t2)
	}
	ms.set("httpapi.exec_self_us", usPer(viaHTTP-direct, n), n)
	ms.set("httpapi.exec_req_bytes", st.BodyBytes(), n)
	ms.set("wal.append_nosync_us", usPer(durable-direct, n), n)

	view := sc.ReadView
	if view == "" {
		view = sc.Views[0].Name
	}
	const reads = 200
	var rows, respBytes int
	var herr error
	get := timeN(reads, func(int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/views/"+view, nil))
		respBytes = rec.Body.Len()
	})
	snap := timeN(reads, func(int) {
		got, err := served.View(view)
		if err != nil {
			herr = err
		}
		rows = len(got)
	})
	if herr != nil {
		return herr
	}
	ms.set("httpapi.view_get_ns_per_row", nsPer(get, reads*max(rows, 1)), reads)
	ms.set("httpapi.view_resp_bytes", float64(respBytes), reads)
	ms.set("db.snapshot_read_ns", nsPer(snap, reads), reads)

	if err := logged.Close(); err != nil {
		return err
	}
	var records int
	t0 := time.Now()
	err = wal.Replay(filepath.Join(dir, "commit.log"), 0, func(wal.Record) error {
		records++
		return nil
	})
	if err != nil {
		return err
	}
	ms.set("wal.replay_us_per_record", usPer(time.Since(t0), records), records)
	return nil
}
