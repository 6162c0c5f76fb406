package mview

// Durable databases: a segmented commit log plus incremental
// checkpoints.
//
// OpenDurable gives the engine crash recovery: every DDL statement and
// transaction is appended to an fsynced, checksummed log as part of a
// successful commit, and Checkpoint persists the database state so the
// covered log prefix can be dropped. Reopening the directory loads the
// latest checkpoint and replays the log records past it. Views
// re-materialize from the restored base relations, so a reopened
// database is always internally consistent.
//
// On-disk layout:
//
//	MANIFEST            the checkpoint root: segment list + WAL position
//	ckpt-<gen>-<i>.seg  immutable checkpoint segments (catalog + relations)
//	commit.log.<n>      WAL segments (internal/wal)
//
// A checkpoint writes the catalog segment (scheme + view definitions)
// plus one data segment per dirty, non-empty base relation —
// concurrently, on the maintenance pool, with commits still flowing —
// and re-references the previous checkpoint's segments for clean
// relations. Only the final
// manifest swap (tmp write, rename, dirsync) and the WAL bookkeeping
// (segment seal at capture, covered-prefix drop) run under the commit
// fence, so the fence hold is O(manifest), not O(data).

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mview/internal/db"
	"mview/internal/wal"
)

const (
	logFile      = "commit.log"
	manifestFile = "MANIFEST"
	// walKindStmt tags statements in the binary statement codec
	// (stmtcodec.go), the only kind read or written.
	walKindStmt uint8 = 2
	// manifestMagic heads the checkpoint manifest.
	manifestMagic = "MVMANIFEST1"
	// defaultSegmentBytes is the WAL segment rotation threshold when
	// WithSegmentSize is not given.
	defaultSegmentBytes = 64 << 20
)

// manifestSeg is one data segment referenced by a manifest. shard is
// the part index of a relation split over several segments; this build
// writes one segment per relation, always part 0, but reads manifests
// of builds that hash-sharded relations.
type manifestSeg struct {
	file  string
	rel   string
	shard int
}

// manifest is the checkpoint root: which segment files make up the
// checkpointed state and where in the WAL it was taken.
type manifest struct {
	gen       uint64         // checkpoint generation, monotonically increasing
	lsn       uint64         // WAL position the checkpoint covers
	shards    int            // written as 1; builds that hash-sharded relations wrote their shard count
	catalog   string         // catalog segment file name
	relShards map[string]int // segment parts per relation: 1 when written by this build
	segs      []manifestSeg
}

// files returns every segment file the manifest references.
func (m *manifest) files() map[string]bool {
	out := make(map[string]bool, len(m.segs)+1)
	out[m.catalog] = true
	for _, s := range m.segs {
		out[s.file] = true
	}
	return out
}

// encode renders the manifest in its line-based text format with a
// trailing CRC32 line (debuggable with cat, torn-proof by checksum —
// though the atomic rename means a reader only ever sees a whole
// manifest).
func (m *manifest) encode() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n", manifestMagic)
	fmt.Fprintf(&b, "gen %d\n", m.gen)
	fmt.Fprintf(&b, "lsn %d\n", m.lsn)
	fmt.Fprintf(&b, "shards %d\n", m.shards)
	fmt.Fprintf(&b, "catalog %s\n", m.catalog)
	for _, rel := range sortedRelNames(m.relShards) {
		fmt.Fprintf(&b, "relation %s %d\n", strconv.Quote(rel), m.relShards[rel])
	}
	for _, s := range m.segs {
		fmt.Fprintf(&b, "segment %s %s %d\n", s.file, strconv.Quote(s.rel), s.shard)
	}
	fmt.Fprintf(&b, "crc %d\n", crc32.ChecksumIEEE(b.Bytes()))
	return b.Bytes()
}

func sortedRelNames(m map[string]int) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ { // insertion sort: tiny n, no extra import
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// decodeManifest parses and checksums a manifest file's contents.
func decodeManifest(data []byte) (*manifest, error) {
	crcAt := bytes.LastIndex(data, []byte("crc "))
	if crcAt < 0 {
		return nil, fmt.Errorf("mview: manifest missing crc line")
	}
	var wantCRC uint32
	if _, err := fmt.Sscanf(string(data[crcAt:]), "crc %d", &wantCRC); err != nil {
		return nil, fmt.Errorf("mview: manifest crc line: %w", err)
	}
	if got := crc32.ChecksumIEEE(data[:crcAt]); got != wantCRC {
		return nil, fmt.Errorf("mview: manifest checksum mismatch (got %d, want %d)", got, wantCRC)
	}
	m := &manifest{relShards: make(map[string]int)}
	sc := bufio.NewScanner(bytes.NewReader(data[:crcAt]))
	if !sc.Scan() || sc.Text() != manifestMagic {
		return nil, fmt.Errorf("mview: not a checkpoint manifest")
	}
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		key, rest, _ := strings.Cut(line, " ")
		switch key {
		case "gen":
			if _, err := fmt.Sscanf(rest, "%d", &m.gen); err != nil {
				return nil, fmt.Errorf("mview: manifest gen: %w", err)
			}
		case "lsn":
			if _, err := fmt.Sscanf(rest, "%d", &m.lsn); err != nil {
				return nil, fmt.Errorf("mview: manifest lsn: %w", err)
			}
		case "shards":
			if _, err := fmt.Sscanf(rest, "%d", &m.shards); err != nil {
				return nil, fmt.Errorf("mview: manifest shards: %w", err)
			}
		case "catalog":
			m.catalog = rest
		case "relation":
			quoted, nstr, ok := cutLastField(rest)
			if !ok {
				return nil, fmt.Errorf("mview: manifest relation line %q", line)
			}
			rel, err := strconv.Unquote(quoted)
			if err != nil {
				return nil, fmt.Errorf("mview: manifest relation name %q: %w", quoted, err)
			}
			n, err := strconv.Atoi(nstr)
			if err != nil {
				return nil, fmt.Errorf("mview: manifest relation shards %q: %w", nstr, err)
			}
			m.relShards[rel] = n
		case "segment":
			file, rest2, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("mview: manifest segment line %q", line)
			}
			quoted, shardStr, ok := cutLastField(rest2)
			if !ok {
				return nil, fmt.Errorf("mview: manifest segment line %q", line)
			}
			rel, err := strconv.Unquote(quoted)
			if err != nil {
				return nil, fmt.Errorf("mview: manifest segment relation %q: %w", quoted, err)
			}
			shard, err := strconv.Atoi(shardStr)
			if err != nil {
				return nil, fmt.Errorf("mview: manifest segment shard %q: %w", shardStr, err)
			}
			m.segs = append(m.segs, manifestSeg{file: file, rel: rel, shard: shard})
		default:
			return nil, fmt.Errorf("mview: unknown manifest line %q", line)
		}
	}
	if m.catalog == "" {
		return nil, fmt.Errorf("mview: manifest missing catalog segment")
	}
	return m, nil
}

// cutLastField splits "… <last>" at the final space.
func cutLastField(s string) (head, last string, ok bool) {
	i := strings.LastIndex(s, " ")
	if i < 0 {
		return "", "", false
	}
	return s[:i], s[i+1:], true
}

// readManifest loads and validates dir's MANIFEST; (nil, nil) when the
// directory has none (a fresh database).
func readManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	return decodeManifest(data)
}

// OpenDurable opens (creating if necessary) a durable database rooted
// at dir, configured by the given options. State is recovered from the
// latest checkpoint (manifest + segments) plus the commit log. The
// options (WithGroupCommit, WithObs) are applied after the log is
// attached, so instrumentation covers the log and group commit batches
// its appends from the first transaction.
//
// A directory in the layout of builds that predate checkpoint
// manifests and WAL segments is refused with an error before anything
// in it changes (see refuseLegacyLayout).
func OpenDurable(dir string, opts ...Option) (*DB, error) {
	cfg := buildOpenConfig(opts)
	if err := refuseLegacyLayout(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A crash mid-checkpoint can leave a half-written manifest tmp and
	// orphaned segments behind. None of them are referenced by a durable
	// manifest, so they hold nothing; remove them rather than leak one
	// batch per crash.
	if err := os.Remove(filepath.Join(dir, manifestFile+".tmp")); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if err := removeOrphanSegments(dir, man); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, logFile)

	d := &DB{man: man}
	var snapLSN uint64
	if man == nil {
		d.eng.Store(db.New())
	} else {
		eng, err := loadFromManifest(dir, man, cfg)
		if err != nil {
			return nil, err
		}
		d.eng.Store(eng)
		snapLSN = man.lsn
		// The state the checkpoint restored is exactly what the segments
		// hold, so relations start the first interval clean — unless the
		// manifest split a relation over several segments, which the next
		// checkpoint rewrites as one. WAL replay below re-dirties the
		// relations it touches through the normal commit path.
		for rel, n := range man.relShards {
			if n == 1 {
				d.engine().SetCheckpointClean(rel)
			}
		}
	}

	// Replay committed statements past the checkpoint, timing the pass
	// so WithObs can expose recovery cost (mview_wal_replay_*).
	replayStart := time.Now()
	err = wal.Replay(logPath, snapLSN, func(r wal.Record) error {
		st, err := decodeStmt(r.Kind, r.Payload)
		if err != nil {
			return fmt.Errorf("mview: decoding log record %d: %w", r.LSN, err)
		}
		if err := d.applyStmt(st); err != nil {
			return fmt.Errorf("mview: replaying log record %d: %w", r.LSN, err)
		}
		d.replayRecords++
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.replayDur = time.Since(replayStart)

	log, err := wal.Open(logPath)
	if err != nil {
		return nil, err
	}
	log.EnsureLSN(snapLSN + 1)
	if cfg.segmentBytes > 0 {
		log.SegmentBytes = cfg.segmentBytes
	} else {
		log.SegmentBytes = defaultSegmentBytes
	}
	d.wal = log
	d.dir = dir
	d.engine().SetCommitLog(func(payload []byte) error {
		_, err := log.Append(walKindStmt, payload)
		return err
	})
	d.applyRuntime(cfg)
	return d, nil
}

// refuseLegacyLayout rejects a directory in the layout of builds that
// predate checkpoint manifests and WAL segments — a monolithic
// snapshot.db with no MANIFEST, or a bare (unnumbered) commit.log —
// before anything in it is created, renamed or removed. This build
// does not read that layout, and opening it as a fresh database would
// silently drop its data.
func refuseLegacyLayout(dir string) error {
	if _, err := wal.SegmentFiles(filepath.Join(dir, logFile)); err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.db")); err == nil {
		if _, err := os.Stat(filepath.Join(dir, manifestFile)); os.IsNotExist(err) {
			return fmt.Errorf("mview: %s holds a snapshot.db and no MANIFEST, a layout this build does not read", dir)
		}
	}
	return nil
}

// loadFromManifest restores an engine from a checkpoint's catalog and
// data segments.
func loadFromManifest(dir string, man *manifest, cfg config) (*db.Engine, error) {
	cat, err := os.Open(filepath.Join(dir, man.catalog))
	if err != nil {
		return nil, fmt.Errorf("mview: opening catalog segment: %w", err)
	}
	eng, pending, err := db.BeginSegmentedLoad(cat)
	cat.Close()
	if err != nil {
		return nil, fmt.Errorf("mview: loading catalog segment %s: %w", man.catalog, err)
	}
	for _, seg := range man.segs {
		f, err := os.Open(filepath.Join(dir, seg.file))
		if err != nil {
			return nil, fmt.Errorf("mview: opening segment %s: %w", seg.file, err)
		}
		err = eng.LoadSegment(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("mview: loading segment %s: %w", seg.file, err)
		}
	}
	if err := eng.CompleteSegmentedLoad(pending); err != nil {
		return nil, err
	}
	return eng, nil
}

// removeOrphanSegments deletes ckpt-*.seg files the manifest does not
// reference — the debris of a checkpoint that crashed before its
// manifest swap (or after being superseded).
func removeOrphanSegments(dir string, man *manifest) error {
	matches, err := filepath.Glob(filepath.Join(dir, "ckpt-*.seg"))
	if err != nil {
		return err
	}
	var referenced map[string]bool
	if man != nil {
		referenced = man.files()
	}
	for _, p := range matches {
		if referenced[filepath.Base(p)] {
			continue
		}
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// applyStmt re-executes a logged statement without re-logging it.
func (d *DB) applyStmt(st walStmt) error {
	switch st.Kind {
	case stmtRelation:
		return d.engine().CreateRelation(st.Name, toAttrs(st.Attrs)...)
	case stmtView:
		opts, err := optionsByName(st.Options)
		if err != nil {
			return err
		}
		v, err := st.Spec.build(st.Name)
		if err != nil {
			return err
		}
		return d.engine().CreateView(v, buildConfig(opts))
	case stmtJoinView:
		opts, err := optionsByName(st.Options)
		if err != nil {
			return err
		}
		return d.createJoinViewCore(st.Name, st.Rels, opts)
	case stmtDropView:
		return d.engine().DropView(st.Name)
	case stmtPolicy:
		// SetPolicy logs the spec as a single option name; re-parse and
		// re-apply it. Replicas take this same path (repl.go), which is
		// how policy DDL reaches followers.
		if len(st.Options) != 1 {
			return fmt.Errorf("mview: malformed policy statement for view %q (%d options)", st.Name, len(st.Options))
		}
		o, err := ParseViewOption(st.Options[0])
		if err != nil {
			return err
		}
		if o.when == nil {
			return fmt.Errorf("mview: logged policy %q for view %q is not a refresh policy", st.Options[0], st.Name)
		}
		return d.engine().SetViewPolicy(st.Name, *o.when)
	case stmtTx:
		_, err := d.engine().Execute(st.Tx)
		return err
	default:
		return fmt.Errorf("mview: unknown logged statement kind %d", st.Kind)
	}
}

func optionsByName(names []string) ([]ViewOption, error) {
	opts := make([]ViewOption, 0, len(names))
	for _, n := range names {
		o, err := ParseViewOption(n)
		if err != nil {
			return nil, err
		}
		opts = append(opts, o)
	}
	return opts, nil
}

// logStmt appends a DDL statement to the commit log (no-op for
// in-memory databases). Called after the statement has been applied
// successfully; the append is fsynced before the public method
// returns, so an acknowledged statement can only be lost if the
// process dies between the in-memory apply and the append.
func (d *DB) logStmt(st walStmt) error {
	if d.wal == nil {
		return nil
	}
	_, err := d.wal.Append(walKindStmt, encodeDDLStmt(st))
	return err
}

// logPayloadBatch appends one already-encoded statement per member of
// a commit group, framed at consecutive LSNs and flushed with a single
// fsync. Recovery needs no group framing: each record replays as its
// own transaction, in the order the group applied them.
func (d *DB) logPayloadBatch(payloads [][]byte) error {
	entries := make([]wal.Entry, len(payloads))
	for i, p := range payloads {
		entries[i] = wal.Entry{Kind: walKindStmt, Payload: p}
	}
	_, err := d.wal.AppendBatch(entries)
	return err
}

// checkpointHook, when non-nil, runs between checkpoint steps so tests
// can inject faults. Steps, in order: "segment-write" (catalog + dirty
// relation segments written, fsynced, and their directory entries synced;
// before the manifest tmp), "manifest-tmp" (MANIFEST.tmp written and
// synced; before the rename), "rename" (manifest renamed into place;
// before the directory fsync), "dirsync" (manifest entry durable;
// before old segments and covered WAL segments are deleted), and
// "segment-delete" (obsolete checkpoint and WAL segments removed).
// Returning errSimulatedCrash aborts with no cleanup — the process
// died at that instant — while any other error takes the normal
// cleanup path.
var checkpointHook func(step string) error

// errSimulatedCrash marks a fault-injection abort (see checkpointHook).
var errSimulatedCrash = errors.New("mview: simulated crash")

func hookStep(step string) error {
	if checkpointHook == nil {
		return nil
	}
	return checkpointHook(step)
}

// syncDir fsyncs a directory so a preceding rename's new entry is on
// disk before anything that depends on it.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// CheckpointStats describes the last completed checkpoint.
type CheckpointStats struct {
	// LSN is the WAL position the checkpoint covers.
	LSN uint64
	// Duration is the whole checkpoint, capture to cleanup.
	Duration time.Duration
	// FenceHold is how long the checkpoint held the commit fence —
	// capture plus manifest swap; segment writing runs outside it.
	FenceHold time.Duration
	// SegmentsWritten counts segment files written (catalog included);
	// SegmentsReused counts clean relations' segments re-referenced
	// from the previous checkpoint.
	SegmentsWritten int
	SegmentsReused  int
	// BytesWritten totals the new segment files' sizes.
	BytesWritten int64
	// WALSegmentsDropped counts sealed commit-log segments deleted
	// because this checkpoint covers them.
	WALSegmentsDropped int
}

// LastCheckpointStats reports the most recent successful Checkpoint on
// this handle (zero value before the first one).
func (d *DB) LastCheckpointStats() CheckpointStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ckptStats
}

// segJob is one segment file the checkpoint must write; rel == ""
// means the catalog.
type segJob struct {
	file string
	rel  string
}

// Checkpoint persists the current database state incrementally and
// drops the covered commit-log prefix. It returns an error on
// in-memory databases.
//
// Only relations dirtied since the previous checkpoint are rewritten
// (plus the small catalog segment); clean relations re-reference the
// previous checkpoint's immutable segment files. Segment writing runs
// concurrently on the maintenance pool while commits continue — the
// commit fence is held only to capture a consistent cut (snapshot, WAL
// position, dirty set; O(1)) and to swap the manifest (O(manifest)).
//
// Crash safety: new segments are written to uniquely named files and
// fsynced, the directory entry set is fsynced, then MANIFEST.tmp is
// written, fsynced, renamed over MANIFEST, and the directory is
// fsynced again — only then are superseded checkpoint segments and
// covered WAL segments deleted. A crash at any point leaves either the
// old manifest with the full log (new segments are unreferenced
// debris, removed at next open) or the new manifest (covered log
// content then redundant), so replay always recovers every committed
// transaction.
func (d *DB) Checkpoint() error {
	if d.wal == nil {
		return fmt.Errorf("mview: Checkpoint on an in-memory database (use OpenDurable)")
	}
	// One checkpoint at a time: the background ticker and an operator
	// CLI may race, and generations must be sequential.
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	t0 := time.Now()

	// Phase A — under the commit fence: capture a consistent cut. The
	// published snapshot equals the logged state here (no statement is
	// in flight), the WAL seals its active segment so the covered
	// prefix becomes droppable, and the dirty flags reset to start the
	// next interval.
	d.gmu.Lock()
	d.mu.Lock()
	if d.wal == nil {
		d.mu.Unlock()
		d.gmu.Unlock()
		return fmt.Errorf("mview: Checkpoint on a closed database")
	}
	snap := d.engine().CurrentSnapshot()
	lsn := d.wal.LastLSN()
	rotErr := d.wal.Rotate()
	var dirty map[string]bool
	var prev *manifest
	if rotErr == nil {
		dirty = d.engine().TakeCheckpointDirty()
		prev = d.man
	}
	d.mu.Unlock()
	d.gmu.Unlock()
	if rotErr != nil {
		return rotErr
	}
	fenceHold := time.Since(t0)

	restoreDirty := func() { d.engine().RestoreCheckpointDirty(dirty) }

	// Phase B — no fence: plan the segment set and write the new files
	// concurrently on the maintenance pool. The snapshot is immutable
	// (COW), so commits flowing meanwhile cannot perturb it.
	var gen uint64 = 1
	if prev != nil {
		gen = prev.gen + 1
	}
	man := &manifest{
		gen:       gen,
		lsn:       lsn,
		shards:    1,
		catalog:   fmt.Sprintf("ckpt-%d-0.seg", gen),
		relShards: make(map[string]int),
	}
	prevSegs := make(map[string]manifestSeg)
	if prev != nil {
		for _, s := range prev.segs {
			prevSegs[s.rel] = s
		}
	}
	jobs := []segJob{{file: man.catalog}}
	reused := 0
	for _, rel := range snap.Relations() {
		man.relShards[rel] = 1
		// A clean relation re-references its previous segment, if the
		// previous checkpoint wrote it as one (an empty relation has
		// none). One split over several is rewritten whole.
		if !dirty[rel] && prev != nil && prev.relShards[rel] == 1 {
			if s, ok := prevSegs[rel]; ok {
				man.segs = append(man.segs, s)
				reused++
			}
			continue
		}
		if snap.RelationLen(rel) == 0 {
			continue // absence of a segment means an empty relation
		}
		file := fmt.Sprintf("ckpt-%d-%d.seg", gen, len(jobs))
		jobs = append(jobs, segJob{file: file, rel: rel})
		man.segs = append(man.segs, manifestSeg{file: file, rel: rel})
	}

	var bytesWritten atomic.Int64
	cleanupNew := func() {
		for _, j := range jobs {
			os.Remove(filepath.Join(d.dir, j.file))
		}
	}
	if err := d.writeSegments(snap, jobs, &bytesWritten); err != nil {
		if !errors.Is(err, errSimulatedCrash) {
			cleanupNew()
			restoreDirty()
		}
		return err
	}
	if err := syncDir(d.dir); err != nil {
		cleanupNew()
		restoreDirty()
		return err
	}
	if err := hookStep("segment-write"); err != nil {
		if !errors.Is(err, errSimulatedCrash) {
			cleanupNew()
			restoreDirty()
		}
		return err
	}

	// Phase C — under the commit fence again: swap the manifest and
	// prune. Everything here is O(manifest), independent of data size.
	d.gmu.Lock()
	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.gmu.Unlock()
	fenceStart := time.Now()
	if d.wal == nil {
		cleanupNew()
		restoreDirty()
		return fmt.Errorf("mview: database closed during checkpoint")
	}
	abort := func(err error) error {
		if !errors.Is(err, errSimulatedCrash) {
			os.Remove(filepath.Join(d.dir, manifestFile+".tmp"))
			cleanupNew()
			restoreDirty()
		}
		return err
	}
	tmp := filepath.Join(d.dir, manifestFile+".tmp")
	if err := writeFileSynced(tmp, man.encode()); err != nil {
		return abort(err)
	}
	if err := hookStep("manifest-tmp"); err != nil {
		return abort(err)
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, manifestFile)); err != nil {
		return abort(err)
	}
	// The rename is the commit point: from here the new manifest is the
	// disk truth (fsync pending, but a crash that loses the rename just
	// falls back to the old manifest plus the still-complete WAL).
	d.man = man
	if err := hookStep("rename"); err != nil {
		return err
	}
	if err := syncDir(d.dir); err != nil {
		return err
	}
	if err := hookStep("dirsync"); err != nil {
		return err
	}

	// Prune: checkpoint segments only the old manifest referenced and
	// WAL segments the new manifest covers. All of it is redundant now;
	// failures leave only debris that the next open sweeps.
	if prev != nil {
		cur := man.files()
		for f := range prev.files() {
			if !cur[f] {
				os.Remove(filepath.Join(d.dir, f))
			}
		}
	}
	walDropped, err := d.wal.DropThrough(lsn)
	if err != nil {
		return err
	}
	if err := hookStep("segment-delete"); err != nil {
		return err
	}

	fenceHold += time.Since(fenceStart)
	d.ckptStats = CheckpointStats{
		LSN:                lsn,
		Duration:           time.Since(t0),
		FenceHold:          fenceHold,
		SegmentsWritten:    len(jobs),
		SegmentsReused:     reused,
		BytesWritten:       bytesWritten.Load(),
		WALSegmentsDropped: walDropped,
	}
	if d.reg != nil {
		d.reg.Histogram("mview_checkpoint_seconds",
			"Checkpoint duration: segment writes, manifest swap, pruning.", nil, nil).
			ObserveDuration(d.ckptStats.Duration)
		d.reg.Histogram("mview_checkpoint_fence_seconds",
			"Commit-fence hold time per checkpoint (capture + manifest swap; segment writes run outside the fence).", nil, nil).
			ObserveDuration(fenceHold)
		d.reg.Counter("mview_checkpoint_segments_written_total",
			"Checkpoint segment files written (catalog included).", nil).
			Add(int64(len(jobs)))
		d.reg.Counter("mview_checkpoint_segments_reused_total",
			"Clean relations' segments re-referenced from the previous checkpoint instead of rewritten.", nil).
			Add(int64(reused))
	}
	return nil
}

// writeSegments writes the planned segment files concurrently, one
// goroutine per CPU (GOMAXPROCS), fsyncing each. The first error wins;
// remaining jobs are skipped.
func (d *DB) writeSegments(snap *db.Snapshot, jobs []segJob, bytesWritten *atomic.Int64) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for _, j := range jobs {
			if err := d.writeSegment(snap, j, bytesWritten); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	ch := make(chan segJob)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				if err := d.writeSegment(snap, j, bytesWritten); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, j := range jobs {
		mu.Lock()
		stop := firstErr != nil
		mu.Unlock()
		if stop {
			break
		}
		ch <- j
	}
	close(ch)
	wg.Wait()
	return firstErr
}

// writeSegment writes and fsyncs one segment file.
func (d *DB) writeSegment(snap *db.Snapshot, j segJob, bytesWritten *atomic.Int64) error {
	f, err := os.Create(filepath.Join(d.dir, j.file))
	if err != nil {
		return err
	}
	if j.rel == "" {
		err = snap.WriteCatalog(f)
	} else {
		err = snap.WriteSegment(f, j.rel)
	}
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if info, serr := f.Stat(); serr == nil {
		bytesWritten.Add(info.Size())
	}
	return f.Close()
}

// writeFileSynced writes data to path and fsyncs it.
func writeFileSynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SetLogSync controls whether each logged statement is fsynced before
// the call returns (the default). Disabling it trades durability
// against OS crashes for throughput — process crashes still lose
// nothing the OS has accepted. No-op on in-memory databases.
func (d *DB) SetLogSync(sync bool) {
	if d.wal != nil {
		d.wal.Sync = sync
	}
}

// Close releases the commit log and, on a follower, stops replication
// (waiting for the apply loop to exit). In-memory leaders without
// scheduled refresh policies need no Close; databases with Every,
// MaxStaleness, or AdaptivePolicy views should Close to stop the
// refresh scheduler's timer wheel.
func (d *DB) Close() error {
	if d.follower != nil {
		d.follower.cancel()
		<-d.follower.done
	}
	// Stop the group scheduler first (drains queued transactions and
	// waits out in-flight Exec calls) so no leader can touch the log
	// once it is closed, then the refresh scheduler (its wheel may be
	// mid-refresh; stop waits it out so nothing fires after Close).
	d.gmu.Lock()
	defer d.gmu.Unlock()
	d.engine().DisableGroupCommit()
	d.engine().StopScheduler()
	if d.wal == nil {
		return nil
	}
	err := d.wal.Close()
	d.wal = nil
	return err
}
