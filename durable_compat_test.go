package mview

// Compatibility with the on-disk and wire layouts of builds that
// hash-sharded base relations: their checkpoints split each relation
// over one data segment per non-empty shard (the manifest says
// "shards N" and "relation <name> N"), and their follower bootstrap
// streams carry one section per shard. This build writes one segment
// and one section per relation, in exactly the layout those builds
// wrote at one shard, and still reads the split form.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// splitSegment re-encodes one data segment as the n segments a build
// hash-sharding relations n ways wrote for it: tuples routed by the
// splitmix64 finalizer of their first attribute, one segment per
// non-empty shard, the shard index in the header.
func splitSegment(t *testing.T, seg []byte, n int) [][]byte {
	t.Helper()
	rd := bytes.NewReader(seg)
	u32 := func() uint32 {
		var b [4]byte
		if _, err := rd.Read(b[:]); err != nil {
			t.Fatal(err)
		}
		return binary.BigEndian.Uint32(b[:])
	}
	str := func() string {
		b := make([]byte, u32())
		if _, err := rd.Read(b); err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if magic := str(); magic != "MVIEWSEG1" {
		t.Fatalf("segment magic %q", magic)
	}
	rel := str()
	u32() // part index
	arity, count := u32(), u32()
	parts := make([][][]byte, n)
	for i := uint32(0); i < count; i++ {
		row := make([]byte, 8*arity)
		if _, err := rd.Read(row); err != nil {
			t.Fatal(err)
		}
		x := binary.BigEndian.Uint64(row)
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		x ^= x >> 33
		sh := int(x % uint64(n))
		parts[sh] = append(parts[sh], row)
	}
	var out [][]byte
	for sh, rows := range parts {
		if len(rows) == 0 {
			continue
		}
		var b []byte
		for _, s := range []string{"MVIEWSEG1", rel} {
			b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
			b = append(b, s...)
		}
		b = binary.BigEndian.AppendUint32(b, uint32(sh))
		b = binary.BigEndian.AppendUint32(b, arity)
		b = binary.BigEndian.AppendUint32(b, uint32(len(rows)))
		out = append(out, bytes.Join(append([][]byte{b}, rows...), nil))
	}
	return out
}

// compatSetup creates the fixture's scheme: a filtered join, a
// selection, and a projection whose rows carry §5.2 counts above one.
func compatSetup(t *testing.T, d *DB) {
	t.Helper()
	for _, ddl := range []func() error{
		func() error { return d.CreateRelation("r", "A", "B") },
		func() error { return d.CreateRelation("s", "C", "D") },
		func() error { return d.CreateRelation("empty", "E") },
		func() error {
			return d.CreateView("v", ViewSpec{From: []string{"r", "s"}, Where: "A < 40 && C > 5 && B = C"}, WithFilter())
		},
		func() error { return d.CreateView("sel", ViewSpec{From: []string{"r"}, Where: "A < 50"}) },
		func() error { return d.CreateView("proj", ViewSpec{From: []string{"r"}, Select: []string{"B"}}) },
	} {
		if err := ddl(); err != nil {
			t.Fatal(err)
		}
	}
}

// compatChurn applies n random changes to r, and s's rows, to every
// database given.
func compatChurn(t *testing.T, rng *rand.Rand, n int, dbs ...*DB) {
	t.Helper()
	apply := func(op Op) {
		for _, d := range dbs {
			if _, err := d.Exec(op); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < n; i++ {
		a, b := int64(rng.Intn(100)), int64(rng.Intn(30))
		if rows, _ := dbs[0].Rows("r"); len(rows) > 40 && rng.Intn(2) == 0 {
			apply(Delete("r", rows[0][0], rows[0][1]))
			continue
		}
		apply(Insert("r", a, b))
		apply(Insert("s", b, a+100))
	}
}

var compatRels, compatViews = []string{"r", "s", "empty"}, []string{"v", "sel", "proj"}

// TestOpenShardedCheckpoint opens a directory in the layout a
// four-shard build left behind: a checkpoint whose manifest says
// "shards 4", each relation split over one segment per non-empty
// shard, and a commit-log tail past it. Relations and views (counts
// included) must come back identical, and the next checkpoint must
// write one segment per relation and drop the split ones.
func TestOpenShardedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref := Open()
	compatSetup(t, d)
	compatSetup(t, ref)
	rng := rand.New(rand.NewSource(11))
	compatChurn(t, rng, 80, d, ref)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	compatChurn(t, rng, 40, d, ref) // the tail lives only in the log
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the checkpoint four-shard style.
	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	split := &manifest{gen: man.gen, lsn: man.lsn, shards: 4, catalog: man.catalog, relShards: map[string]int{}}
	for rel := range man.relShards {
		split.relShards[rel] = 4
	}
	var old []string
	for _, seg := range man.segs {
		data, err := os.ReadFile(filepath.Join(dir, seg.file))
		if err != nil {
			t.Fatal(err)
		}
		parts := splitSegment(t, data, 4)
		if seg.rel == "r" && len(parts) < 2 {
			t.Fatalf("r split into %d segments, want several", len(parts))
		}
		for i, p := range parts {
			file := fmt.Sprintf("ckpt-%d-%d%d.seg", man.gen, len(split.segs)+1, i)
			if err := os.WriteFile(filepath.Join(dir, file), p, 0o644); err != nil {
				t.Fatal(err)
			}
			sh := int(binary.BigEndian.Uint32(p[4+9+4+len(seg.rel):]))
			split.segs = append(split.segs, manifestSeg{file: file, rel: seg.rel, shard: sh})
			old = append(old, file)
		}
		if err := os.Remove(filepath.Join(dir, seg.file)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFile), split.encode(), 0o644); err != nil {
		t.Fatal(err)
	}

	d, err = OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	compareDBs(t, d, ref, compatRels, compatViews)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := d.LastCheckpointStats(); st.SegmentsReused != 0 || st.SegmentsWritten != 3 {
		t.Errorf("first checkpoint after a split one wrote %d / reused %d segments, want 3 / 0",
			st.SegmentsWritten, st.SegmentsReused)
	}
	man, err = readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.shards != 1 || len(man.segs) != 2 || man.relShards["r"] != 1 || man.relShards["empty"] != 1 {
		t.Errorf("rewritten manifest:\n%s", man.encode())
	}
	for _, f := range old {
		if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
			t.Errorf("split segment %s survived the rewrite (stat: %v)", f, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err = OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	compareDBs(t, d, ref, compatRels, compatViews)
}

// TestFollowerBootstrapFromShardedStream feeds the follower's bootstrap
// decoder a snapshot stream in the form four-shard leaders sent: one
// section per non-empty shard of each relation.
func TestFollowerBootstrapFromShardedStream(t *testing.T) {
	ref := Open()
	compatSetup(t, ref)
	compatChurn(t, rand.New(rand.NewSource(5)), 80, ref)
	var stream bytes.Buffer
	if err := writeReplSnapshot(&stream, ref.engine().CurrentSnapshot(), 42); err != nil {
		t.Fatal(err)
	}

	// Re-frame: same header, catalog as is, every segment split 4 ways.
	in := stream.Bytes()
	hdrLen := len(replSnapMagic) + 8 + 4
	sections := binary.BigEndian.Uint32(in[hdrLen-4:])
	var out []byte
	out = append(out, in[:hdrLen-4]...)
	var secs [][]byte
	rest := in[hdrLen:]
	for i := uint32(0); i < sections; i++ {
		n := binary.BigEndian.Uint32(rest)
		sec := rest[4 : 4+n]
		rest = rest[4+n:]
		if i == 0 {
			secs = append(secs, sec)
			continue
		}
		secs = append(secs, splitSegment(t, sec, 4)...)
	}
	if len(secs) <= int(sections) {
		t.Fatalf("splitting %d sections gave %d", sections, len(secs))
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(secs)))
	for _, sec := range secs {
		out = binary.BigEndian.AppendUint32(out, uint32(len(sec)))
		out = append(out, sec...)
	}

	eng, lsn, err := loadReplSnapshot(bytes.NewReader(out), config{})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 42 {
		t.Errorf("bootstrap LSN %d, want 42", lsn)
	}
	f := &DB{}
	f.eng.Store(eng)
	compareDBs(t, f, ref, compatRels, compatViews)
}

// sortedRows canonicalizes a row set for comparison: iteration order
// is an engine detail that must never leak into the observable
// contents.
func sortedRows(rows [][]int64) [][]int64 {
	out := append([][]int64(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

func viewKeys(t *testing.T, d *DB, name string) []string {
	t.Helper()
	rows, err := d.View(name)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = fmt.Sprint(r.Values, "×", r.Count)
	}
	sort.Strings(keys)
	return keys
}

// compareDBs asserts two databases hold identical relations and views,
// §5.2 counts included.
func compareDBs(t *testing.T, got, want *DB, rels, views []string) {
	t.Helper()
	for _, rel := range rels {
		g, err := got.Rows(rel)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.Rows(rel)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(sortedRows(g)) != fmt.Sprint(sortedRows(w)) {
			t.Errorf("relation %s diverged:\n got:  %v\n want: %v", rel, sortedRows(g), sortedRows(w))
		}
	}
	for _, v := range views {
		g, w := viewKeys(t, got, v), viewKeys(t, want, v)
		if fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("view %s diverged:\n got:  %v\n want: %v", v, g, w)
		}
	}
}

// TestOpenOptionEquivalence pins that the functional options configure
// the machinery they name.
func TestOpenOptionEquivalence(t *testing.T) {
	optDB := Open(WithGroupCommit(8, 0))
	defer optDB.Close()
	if !optDB.GroupCommitEnabled() {
		t.Error("GroupCommitEnabled() = false, want true")
	}
}
