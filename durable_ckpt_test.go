package mview

// Tests for the segmented checkpoint layout: incremental per-relation
// reuse, WAL segment rotation, refusal of the pre-segment layout and
// record formats, and checkpoints running concurrently with commits.

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"mview/internal/wal"
)

// TestIncrementalCheckpointReusesCleanRelations: a checkpoint rewrites
// only the relations dirtied since the previous one and re-references
// the segments of the rest, across restarts too. An empty relation has
// no segment at all.
func TestIncrementalCheckpointReusesCleanRelations(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	rels := []string{"r", "s", "t", "empty"}
	for _, rel := range rels {
		if err := d.CreateRelation(rel, "A", "B"); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 64; i++ {
		for _, rel := range rels[:3] {
			if _, err := d.Exec(Insert(rel, i, i*2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// segFiles maps each relation to the segment file the current
	// manifest lists for it.
	segFiles := func() map[string]string {
		t.Helper()
		man, err := readManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]string)
		for _, s := range man.segs {
			if _, dup := out[s.rel]; dup || s.shard != 0 {
				t.Fatalf("manifest splits %q over several segments: %+v", s.rel, man.segs)
			}
			out[s.rel] = s.file
		}
		return out
	}
	checkpoint := func(label string, written, reused int) {
		t.Helper()
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		st := d.LastCheckpointStats()
		if st.SegmentsWritten != written || st.SegmentsReused != reused {
			t.Errorf("%s: wrote %d / reused %d segments, want %d / %d",
				label, st.SegmentsWritten, st.SegmentsReused, written, reused)
		}
	}
	// rewritten reports which relations' segments changed between two
	// manifests.
	rewritten := func(before, after map[string]string) []string {
		var out []string
		for _, rel := range rels {
			if before[rel] != after[rel] {
				out = append(out, rel)
			}
		}
		return out
	}

	checkpoint("first", 4, 0) // catalog + r, s, t
	first := segFiles()
	if len(first) != 3 || first["empty"] != "" {
		t.Fatalf("first checkpoint segments %v, want one each for r, s, t", first)
	}

	// One insert into r: only r's segment is rewritten.
	if _, err := d.Exec(Insert("r", 5, 999)); err != nil {
		t.Fatal(err)
	}
	checkpoint("after touching r", 2, 2)
	second := segFiles()
	if got := rewritten(first, second); !reflect.DeepEqual(got, []string{"r"}) {
		t.Errorf("after touching r, rewrote %v, want [r]", got)
	}

	// Restart: the manifest's segments are what the engine restored, so
	// the first checkpoint after recovery is still incremental.
	_ = d.Close()
	d, err = OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Exec(Insert("t", 5, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec(Insert("empty", 1, 1)); err != nil {
		t.Fatal(err)
	}
	checkpoint("post-restart", 3, 2)
	third := segFiles()
	if got := rewritten(second, third); !reflect.DeepEqual(got, []string{"t", "empty"}) {
		t.Errorf("post-restart, rewrote %v, want [t empty]", got)
	}
	// s was never touched: its first segment is still the live one.
	if f := third["s"]; f != first["s"] {
		t.Errorf("s's segment moved from %s to %s", first["s"], f)
	} else if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
		t.Errorf("reused segment %s is gone: %v", f, err)
	}
	rows, err := d.Rows("r")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 65 {
		t.Fatalf("recovered r has %d rows, want 65", len(rows))
	}
}

// TestSegmentSizeRotation: a tiny WithSegmentSize makes the log rotate
// under load, recovery reads the whole chain in order, and a
// checkpoint collapses it back to one (empty) active segment.
func TestSegmentSizeRotation(t *testing.T) {
	dir := t.TempDir()
	opts := []Option{WithSegmentSize(256)}
	d, err := OpenDurable(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	seedDurable(t, d)
	for i := int64(0); i < 30; i++ {
		if _, err := d.Exec(Insert("r", 100+i, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if segs := walSegments(t, dir); len(segs) < 3 {
		t.Fatalf("log rotated into %d segments, want >= 3", len(segs))
	}
	_ = d.Close()

	d2, err := OpenDurable(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := d2.Rows("r")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 31 {
		t.Fatalf("recovered %d r rows across segments, want 31", len(rows))
	}
	if err := d2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := d2.LastCheckpointStats().WALSegmentsDropped; got < 3 {
		t.Errorf("checkpoint dropped %d WAL segments, want >= 3", got)
	}
	if segs := walSegments(t, dir); len(segs) != 1 {
		t.Errorf("%d WAL segments after checkpoint, want 1", len(segs))
	}
	_ = d2.Close()
}

// dirState maps every file in dir to its contents.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := make(map[string]string, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		st[e.Name()] = string(b)
	}
	return st
}

// checkRefusedUntouched asserts that open failed with an error naming
// want and that dir is exactly as it was before the attempt.
func checkRefusedUntouched(t *testing.T, dir string, before map[string]string, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatal("legacy input was accepted")
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %q", err, want)
	}
	if after := dirState(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("refused open changed the directory:\nbefore %q\nafter  %q", keys(before), keys(after))
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// writeBareLog writes a valid single-file commit log of n records at
// path: the layout builds before WAL segments wrote.
func writeBareLog(t *testing.T, path string, n int) {
	t.Helper()
	scratch := filepath.Join(t.TempDir(), "x")
	lg, err := wal.Open(scratch)
	if err != nil {
		t.Fatal(err)
	}
	lg.Sync = false
	for i := 0; i < n; i++ {
		if _, err := lg.Append(walKindStmt, encodeTxStmt([]Op{Insert("r", int64(i), 10)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(scratch+".1", path); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyLayoutRefused: a directory in the layout of builds before
// checkpoint manifests and WAL segments — a monolithic snapshot.db with
// no MANIFEST, or a bare commit.log — is refused before anything in it
// is created, renamed or removed, even the crash debris an accepted
// open would sweep.
func TestLegacyLayoutRefused(t *testing.T) {
	debris := func(t *testing.T, dir string) {
		t.Helper()
		for _, f := range []string{manifestFile + ".tmp", "ckpt-9-0.seg"} {
			if err := os.WriteFile(filepath.Join(dir, f), []byte("debris"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Run("snapshot.db without MANIFEST", func(t *testing.T) {
		dir := t.TempDir()
		var snap bytes.Buffer
		seed := Open()
		seedDurable(t, seed)
		if err := seed.Save(&snap); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "snapshot.db"), append([]byte("MVSNAP1\n\x00\x00\x00\x00\x00\x00\x00\x02"), snap.Bytes()...), 0o644); err != nil {
			t.Fatal(err)
		}
		debris(t, dir)
		before := dirState(t, dir)
		_, err := OpenDurable(dir)
		checkRefusedUntouched(t, dir, before, err, "snapshot.db")
	})
	t.Run("bare commit.log", func(t *testing.T) {
		dir := t.TempDir()
		writeBareLog(t, filepath.Join(dir, logFile), 3)
		debris(t, dir)
		before := dirState(t, dir)
		_, err := OpenDurable(dir)
		checkRefusedUntouched(t, dir, before, err, logFile)
	})
	t.Run("bare commit.log beside a checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		d, err := OpenDurable(dir)
		if err != nil {
			t.Fatal(err)
		}
		seedDurable(t, d)
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		writeBareLog(t, filepath.Join(dir, logFile), 1)
		before := dirState(t, dir)
		_, err = OpenDurable(dir)
		checkRefusedUntouched(t, dir, before, err, logFile)
	})
}

// TestGobRecordRefused: a kind-1 (gob) record — what builds before the
// binary statement codec logged — fails recovery replay and follower
// apply with an error naming its kind, and the refused open leaves the
// directory as it was.
func TestGobRecordRefused(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateRelation("r", "A", "B"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.wal.Append(1, []byte("\x0d\xff\x81\x03\x01\x01")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirState(t, dir)
	_, err = OpenDurable(dir)
	checkRefusedUntouched(t, dir, before, err, "kind 1")

	f := Open()
	defer f.Close()
	err = followerApplier{d: f}.Apply([]wal.Record{{LSN: 1, Kind: 1, Payload: []byte{0x0d}}})
	if err == nil || !strings.Contains(err.Error(), "kind 1") {
		t.Errorf("follower apply of a kind-1 record: err = %v, want one naming kind 1", err)
	}
}

// TestLoadRefusesVersion1Stream: a Save stream in the version-1 format
// (MVIEWDB1, which no current build writes) is refused by Load with an
// error naming its magic, and the file it came from is left as it was.
func TestLoadRefusesVersion1Stream(t *testing.T) {
	seed := Open()
	seedDurable(t, seed)
	var buf bytes.Buffer
	if err := seed.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Version 1 differs from version 2 only in the magic and in each
	// view definition's missing when-policy tail.
	v1 := bytes.Replace(buf.Bytes(), []byte("MVIEWDB2"), []byte("MVIEWDB1"), 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.mview")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirState(t, dir)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load(f)
	f.Close()
	checkRefusedUntouched(t, dir, before, err, "MVIEWDB1")
}

// TestConcurrentCheckpointsAndCommits hammers Checkpoint from a
// background goroutine — as cmd/mviewd's ticker does — while the
// foreground commits, then proves recovery sees every acknowledged
// transaction. This is the regime the incremental design exists for:
// segment writes run outside the commit fence.
func TestConcurrentCheckpointsAndCommits(t *testing.T) {
	for _, grouped := range []bool{false, true} {
		name := "serial"
		if grouped {
			name = "grouped"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			opts := []Option{WithSegmentSize(4 << 10)}
			if grouped {
				opts = append(opts, WithGroupCommit(8, 200*time.Microsecond))
			}
			d, err := OpenDurable(dir, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.CreateRelation("r", "A", "B"); err != nil {
				t.Fatal(err)
			}
			if err := d.CreateView("v", ViewSpec{From: []string{"r"}, Where: "A >= 0"}); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := d.Checkpoint(); err != nil {
						t.Errorf("background checkpoint: %v", err)
						return
					}
				}
			}()
			const n = 300
			var cwg sync.WaitGroup
			for w := 0; w < 3; w++ {
				cwg.Add(1)
				go func(w int) {
					defer cwg.Done()
					for i := 0; i < n/3; i++ {
						if _, err := d.Exec(Insert("r", int64(w*n+i), int64(i))); err != nil {
							t.Errorf("writer %d: %v", w, err)
							return
						}
					}
				}(w)
			}
			cwg.Wait()
			close(stop)
			wg.Wait()
			if t.Failed() {
				return
			}
			_ = d.Close()

			d2, err := OpenDurable(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			rows, err := d2.Rows("r")
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != n {
				t.Fatalf("recovered %d rows, want %d", len(rows), n)
			}
			vrows, err := d2.View("v")
			if err != nil {
				t.Fatal(err)
			}
			if len(vrows) != n {
				t.Fatalf("recovered view has %d rows, want %d", len(vrows), n)
			}
		})
	}
}

// TestRandomizedCrashCheckpoints is the randomized property over the
// new layout: random commits with background-style checkpoints killed
// at random hook steps, hard reopens (no Close), always comparing
// against an in-memory shadow oracle.
func TestRandomizedCrashCheckpoints(t *testing.T) {
	steps := []string{"segment-write", "manifest-tmp", "rename", "dirsync", "segment-delete"}
	rng := rand.New(rand.NewSource(31337))
	for trial := 0; trial < 4; trial++ {
		opts := []Option{WithSegmentSize(512)}
		dir := t.TempDir()
		dur, err := OpenDurable(dir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		mem := Open()
		both := func(f func(d *DB) error) {
			t.Helper()
			ed, em := f(dur), f(mem)
			if (ed == nil) != (em == nil) {
				t.Fatalf("trial %d: durable err=%v, memory err=%v", trial, ed, em)
			}
		}
		both(func(d *DB) error { return d.CreateRelation("r", "A", "B") })
		both(func(d *DB) error { return d.CreateRelation("s", "B", "C") })
		both(func(d *DB) error {
			return d.CreateView("v", ViewSpec{From: []string{"r", "s"}, Where: "r.B = s.B"}, WithFilter())
		})

		for step := 0; step < 80; step++ {
			switch rng.Intn(8) {
			case 0: // checkpoint killed at a random step, then a hard reopen
				kill := steps[rng.Intn(len(steps))]
				checkpointHook = func(s string) error {
					if s == kill {
						return errSimulatedCrash
					}
					return nil
				}
				err := dur.Checkpoint()
				checkpointHook = nil
				if err != nil && !errors.Is(err, errSimulatedCrash) {
					t.Fatalf("trial %d: checkpoint killed at %q: %v", trial, kill, err)
				}
				// The process died mid-checkpoint: abandon the handle
				// without Close and recover the directory.
				dur, err = OpenDurable(dir, opts...)
				if err != nil {
					t.Fatalf("trial %d: recovery after kill at %q: %v", trial, kill, err)
				}
			case 1: // clean checkpoint
				if err := dur.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			case 2: // hard crash with no checkpoint
				dur, err = OpenDurable(dir, opts...)
				if err != nil {
					t.Fatalf("trial %d: recovery: %v", trial, err)
				}
			default: // transaction
				var ops []Op
				for j := 0; j < 1+rng.Intn(3); j++ {
					rel := "r"
					if rng.Intn(2) == 0 {
						rel = "s"
					}
					vals := []int64{int64(rng.Intn(6)), int64(rng.Intn(6))}
					if rng.Intn(3) == 0 {
						ops = append(ops, Delete(rel, vals...))
					} else {
						ops = append(ops, Insert(rel, vals...))
					}
				}
				both(func(d *DB) error {
					_, err := d.Exec(ops...)
					return err
				})
			}
		}

		compareDBs(t, dur, mem, mem.Relations(), []string{"v"})
		_ = dur.Close()
	}
}
