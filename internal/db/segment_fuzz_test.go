package db

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"mview/internal/diffeval"
	"mview/internal/expr"
	"mview/internal/pred"
	"mview/internal/relation"
	"mview/internal/schema"
	"mview/internal/tuple"
)

// allocatedBytes reports the fewest bytes fn allocated over three runs,
// so a concurrent GC or a background goroutine cannot inflate it.
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

// encode runs fill against a fresh writer and returns the bytes.
func encode(fill func(w *writer)) []byte {
	var b bytes.Buffer
	w := &writer{w: bufio.NewWriter(&b)}
	fill(w)
	w.w.Flush()
	return b.Bytes()
}

// TestCatalogUntrustedCountsAllocateLittle: a catalog segment that
// claims 2^20 of something and then ends must fail without reserving
// room for what it claimed.
func TestCatalogUntrustedCountsAllocateLittle(t *testing.T) {
	const huge = 1 << 20
	view := func(w *writer) { // a catalog with no relations and one view
		w.str(catalogMagic)
		w.u32(0)
		w.u32(1)
		w.str("v")
	}
	cases := map[string]func(w *writer){
		"views": func(w *writer) {
			w.str(catalogMagic)
			w.u32(0)
			w.u32(huge)
		},
		"attributes": func(w *writer) {
			w.str(catalogMagic)
			w.u32(1)
			w.str("R")
			w.u32(huge)
		},
		"operands": func(w *writer) {
			view(w)
			w.u32(huge)
		},
		"conjuncts": func(w *writer) {
			view(w)
			w.u32(0)
			w.u32(huge)
		},
		"atoms": func(w *writer) {
			view(w)
			w.u32(0)
			w.u32(1)
			w.u32(huge)
		},
		"string": func(w *writer) {
			w.str(catalogMagic)
			w.u32(1)
			w.u32(huge)
		},
	}
	for name, fill := range cases {
		t.Run(name, func(t *testing.T) {
			data := encode(fill)
			var err error
			n := allocatedBytes(func() { _, _, err = BeginSegmentedLoad(bytes.NewReader(data)) })
			if err == nil {
				t.Fatal("truncated catalog loaded")
			}
			if n >= 1<<20 {
				t.Errorf("failing on a %d-byte catalog allocated %d bytes", len(data), n)
			}
		})
	}
}

// randCatalog builds an engine with a few relations and views drawn
// from rng: selections and joins with random conditions, projections
// and configurations.
func randCatalog(t testing.TB, rng *rand.Rand) *Engine {
	t.Helper()
	e := New()
	attrs := []schema.Attribute{"A", "B", "C", "D"}
	var rels []string
	for i, n := 0, 1+rng.IntN(3); i < n; i++ {
		name := fmt.Sprintf("R%d", i)
		k := 1 + rng.IntN(len(attrs))
		if err := e.CreateRelation(name, attrs[i%2:i%2+min(k, len(attrs)-i%2)]...); err != nil {
			t.Fatal(err)
		}
		rels = append(rels, name)
	}
	conds := []string{"", "A < 5", "A >= 2 && A != 7", "A < 0 || A > 9", "A = A + 0"}
	for i, n := 0, rng.IntN(4); i < n; i++ {
		rel := rels[rng.IntN(len(rels))]
		v := expr.View{Name: fmt.Sprintf("v%d", i), Operands: []expr.Operand{{Rel: rel, Alias: rel}}}
		if rng.IntN(3) == 0 && len(rels) > 1 {
			var err error
			if v, err = expr.NaturalJoin(v.Name, e.Scheme(), rels[0], rels[1]); err != nil {
				t.Fatal(err)
			}
		}
		rs, _ := e.Scheme().Rel(v.Operands[0].Rel)
		if c := conds[rng.IntN(len(conds))]; c != "" && rs.Scheme.Has("A") {
			w, err := pred.Parse(c)
			if err != nil {
				t.Fatal(err)
			}
			v.Where = w
		}
		if rng.IntN(2) == 0 {
			v.Project = []schema.Attribute{rs.Scheme.Attr(0)}
		}
		cfg := ViewConfig{
			Policy: []Policy{PolicyDifferential, PolicyRecompute, PolicyAdaptive}[rng.IntN(3)],
			Maint:  diffeval.Options{Filter: rng.IntN(2) == 0},
			When:   RefreshSpec{Kind: []RefreshKind{RefreshOnCommit, RefreshOnDemand}[rng.IntN(2)]},
		}
		if err := e.CreateView(v, cfg); err != nil {
			t.Fatalf("%+v: %v", v, err)
		}
	}
	return e
}

// FuzzCatalogSegment: arbitrary bytes load as a catalog or fail —
// never a panic, never an allocation out of proportion to the input —
// and the input also seeds a random catalog, which must round-trip
// byte for byte through WriteCatalog and the segmented load.
func FuzzCatalogSegment(f *testing.F) {
	for seed := range uint64(3) {
		var b bytes.Buffer
		if err := randCatalog(f, rand.New(rand.NewPCG(seed, seed))).CurrentSnapshot().WriteCatalog(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add([]byte{})
	f.Add(encode(func(w *writer) { w.str(catalogMagic); w.u32(0); w.u32(1 << 20) }))
	f.Fuzz(func(t *testing.T, data []byte) {
		if n := allocatedBytes(func() { _, _, _ = BeginSegmentedLoad(bytes.NewReader(data)) }); n > 64*uint64(len(data))+64<<10 {
			t.Fatalf("loading a %d-byte catalog allocated %d bytes", len(data), n)
		}
		var seed [16]byte
		copy(seed[:], data)
		src := randCatalog(t, rand.New(rand.NewPCG(binary.LittleEndian.Uint64(seed[:8]), binary.LittleEndian.Uint64(seed[8:]))))
		var want bytes.Buffer
		if err := src.CurrentSnapshot().WriteCatalog(&want); err != nil {
			t.Fatal(err)
		}
		dst, pending, err := BeginSegmentedLoad(bytes.NewReader(want.Bytes()))
		if err != nil {
			t.Fatalf("loading %x: %v", want.Bytes(), err)
		}
		if err := dst.CompleteSegmentedLoad(pending); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := dst.CurrentSnapshot().WriteCatalog(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("catalog %x reloads as %x", want.Bytes(), got.Bytes())
		}
	})
}

// FuzzDataSegment: arbitrary bytes load into R(A, B) as a data segment
// or fail — never a panic, never an allocation out of proportion to
// the input — and the input also seeds a random relation, whose
// segment must load back equal while every strict prefix of it fails.
func FuzzDataSegment(f *testing.F) {
	segmentOf := func(ts []tuple.Tuple) ([]byte, *relation.Relation) {
		e := New()
		if err := e.CreateRelation("R", "A", "B"); err != nil {
			f.Fatal(err)
		}
		r := e.base["R"]
		for _, t := range ts {
			if err := r.Insert(t); err != nil {
				f.Fatal(err)
			}
		}
		e.publishLocked()
		var b bytes.Buffer
		if err := e.CurrentSnapshot().WriteSegment(&b, "R"); err != nil {
			f.Fatal(err)
		}
		return b.Bytes(), r
	}
	seg, _ := segmentOf([]tuple.Tuple{{1, 2}, {-3, math.MaxInt64}})
	f.Add(seg)
	f.Add([]byte{})
	f.Add(encode(func(w *writer) { w.str(segmentMagic); w.str("R"); w.u32(0); w.u32(2); w.u32(1 << 30) }))
	load := func(data []byte) (*relation.Relation, error) {
		e := New()
		if err := e.CreateRelation("R", "A", "B"); err != nil {
			return nil, err
		}
		err := e.LoadSegment(bytes.NewReader(data))
		return e.base["R"], err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if n := allocatedBytes(func() { _, _ = load(data) }); n > 64*uint64(len(data))+64<<10 {
			t.Fatalf("loading a %d-byte segment allocated %d bytes", len(data), n)
		}
		var seed [16]byte
		copy(seed[:], data)
		rng := rand.New(rand.NewPCG(binary.LittleEndian.Uint64(seed[:8]), binary.LittleEndian.Uint64(seed[8:])))
		var ts []tuple.Tuple
		for i, n := 0, rng.IntN(40); i < n; i++ {
			ts = append(ts, tuple.Tuple{rng.Int64N(20) - 10, int64(rng.Uint64())})
		}
		seg, want := segmentOf(ts)
		got, err := load(seg)
		if err != nil {
			t.Fatalf("loading %x: %v", seg, err)
		}
		if !got.Equal(want) {
			t.Fatalf("segment %x loads as %v, want %v", seg, got, want)
		}
		for cut := range len(seg) {
			if _, err := load(seg[:cut]); err == nil {
				t.Fatalf("the %d-byte prefix of %x loaded", cut, seg)
			}
		}
	})
}
