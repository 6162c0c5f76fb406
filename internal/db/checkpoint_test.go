package db

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"

	"mview/internal/delta"
	"mview/internal/diffeval"
	"mview/internal/relation"
	"mview/internal/tuple"
)

// TestCheckpointDirtyTracksTouchedRelations: commits mark exactly the
// relations their net delta touched; Take resets the interval and
// Restore merges a failed checkpoint's flags back.
func TestCheckpointDirtyTracksTouchedRelations(t *testing.T) {
	e := New()
	for _, rel := range []string{"R", "S", "T"} {
		if err := e.CreateRelation(rel, "A", "B"); err != nil {
			t.Fatal(err)
		}
	}
	check := func(label string, got map[string]bool, dirty ...string) {
		t.Helper()
		want := map[string]bool{"R": false, "S": false, "T": false}
		for _, rel := range dirty {
			want[rel] = true
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: dirty = %v, want %v", label, got, want)
		}
	}

	// Creation leaves every relation dirty (nothing is checkpointed).
	check("after creation", e.TakeCheckpointDirty(), "R", "S", "T")

	// One insert dirties exactly its relation.
	exec(t, e, new(delta.Tx).Insert("R", tuple.Tuple{42, 1}))
	taken := e.TakeCheckpointDirty()
	check("after insert into R", taken, "R")

	// A failed checkpoint restores its flags on top of newer commits.
	exec(t, e, new(delta.Tx).Insert("S", tuple.Tuple{7, 1}))
	e.RestoreCheckpointDirty(taken)
	check("after restore", e.TakeCheckpointDirty(), "R", "S")

	// Deletes dirty their relation too; a transaction whose net effect
	// cancels dirties nothing.
	exec(t, e, new(delta.Tx).Delete("R", tuple.Tuple{42, 1}))
	exec(t, e, new(delta.Tx).Insert("T", tuple.Tuple{1, 1}).Delete("T", tuple.Tuple{1, 1}))
	check("after delete from R", e.TakeCheckpointDirty(), "R")

	// SetCheckpointClean and MarkAllCheckpointDirty round-trip.
	e.MarkAllCheckpointDirty()
	e.SetCheckpointClean("R")
	check("after SetCheckpointClean", e.TakeCheckpointDirty(), "S", "T")
}

// encodeSegmentParts hand-encodes rel's tuples as n data segments in
// the layout of builds that hash-sharded base relations: tuples routed
// by the splitmix64 finalizer of their first attribute, one segment per
// non-empty shard, the shard index in the header.
func encodeSegmentParts(name string, rel *relation.Relation, n int) [][]byte {
	shardOf := func(v tuple.Value) int {
		x := uint64(v)
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		x ^= x >> 33
		return int(x % uint64(n))
	}
	parts := make([][]tuple.Tuple, n)
	rel.Each(func(t tuple.Tuple) {
		parts[shardOf(t[0])] = append(parts[shardOf(t[0])], t)
	})
	var out [][]byte
	for sh, ts := range parts {
		if len(ts) == 0 {
			continue
		}
		var b bytes.Buffer
		w := &writer{w: bufio.NewWriter(&b)}
		w.str(segmentMagic)
		w.str(name)
		w.u32(uint32(sh))
		w.u32(uint32(rel.Scheme().Arity()))
		w.u32(uint32(len(ts)))
		for _, t := range ts {
			for _, v := range t {
				w.i64(v)
			}
		}
		w.w.Flush()
		out = append(out, b.Bytes())
	}
	return out
}

// TestSegmentedSaveLoadRoundTrip: catalog + data segments restore an
// engine identical to the source, whether each relation comes in the
// one segment WriteSegment writes or split over several the way
// hash-sharded builds wrote them. At one shard the old layout and
// WriteSegment's are byte-identical.
func TestSegmentedSaveLoadRoundTrip(t *testing.T) {
	src := New()
	if err := src.CreateRelation("R", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if err := src.CreateRelation("S", "B", "C"); err != nil {
		t.Fatal(err)
	}
	v := joinViewDef(t, src, "V")
	if err := src.CreateView(v, ViewConfig{Maint: diffeval.Options{Filter: true}}); err != nil {
		t.Fatal(err)
	}
	tx := new(delta.Tx)
	for i := int64(0); i < 50; i++ {
		tx.Insert("R", tuple.Tuple{i, i % 7})
		tx.Insert("S", tuple.Tuple{i % 7, i * 3})
	}
	exec(t, src, tx)

	snap := src.CurrentSnapshot()
	var catalog bytes.Buffer
	if err := snap.WriteCatalog(&catalog); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{4, 2, 1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var segs [][]byte
			for _, rel := range snap.Relations() {
				r, _ := src.Relation(rel)
				parts := encodeSegmentParts(rel, r, shards)
				if shards == 1 {
					var b bytes.Buffer
					if err := snap.WriteSegment(&b, rel); err != nil {
						t.Fatal(err)
					}
					if len(parts) != 1 || !bytes.Equal(parts[0], b.Bytes()) {
						t.Fatalf("WriteSegment(%s) differs from the one-shard layout", rel)
					}
				}
				segs = append(segs, parts...)
			}
			dst, pending, err := BeginSegmentedLoad(bytes.NewReader(catalog.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for i := range segs {
				if err := dst.LoadSegment(bytes.NewReader(segs[i])); err != nil {
					t.Fatal(err)
				}
			}
			if err := dst.CompleteSegmentedLoad(pending); err != nil {
				t.Fatal(err)
			}
			for _, rel := range []string{"R", "S"} {
				a, _ := src.Relation(rel)
				b, _ := dst.Relation(rel)
				if !a.Equal(b) {
					t.Errorf("relation %s diverged after segmented round trip", rel)
				}
			}
			av, err := src.View("V")
			if err != nil {
				t.Fatal(err)
			}
			bv, err := dst.View("V")
			if err != nil {
				t.Fatal(err)
			}
			if !av.Equal(bv) {
				t.Error("view V diverged after segmented round trip")
			}
		})
	}
}

// TestSegmentedLoadRejectsGarbage pins the header validation.
func TestSegmentedLoadRejectsGarbage(t *testing.T) {
	if _, _, err := BeginSegmentedLoad(bytes.NewReader([]byte("junkjunkjunkjunk"))); err == nil {
		t.Error("garbage catalog accepted")
	}
	e := New()
	if err := e.LoadSegment(bytes.NewReader([]byte("junkjunkjunkjunk"))); err == nil {
		t.Error("garbage segment accepted")
	}
	// A valid segment for an unknown relation must fail cleanly.
	src := New()
	if err := src.CreateRelation("R", "A"); err != nil {
		t.Fatal(err)
	}
	exec(t, src, new(delta.Tx).Insert("R", tuple.Tuple{1}))
	var b bytes.Buffer
	if err := src.CurrentSnapshot().WriteSegment(&b, "R"); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadSegment(bytes.NewReader(b.Bytes())); err == nil {
		t.Error("segment for unknown relation accepted")
	}
}
