package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }
func lit(s string) rdf.Term { return rdf.NewLiteral(s) }

func tr(s, p, o string) rdf.Triple {
	return rdf.NewTriple(iri(s), iri(p), lit(o))
}

func batch(prefix string, n int) []rdf.Triple {
	out := make([]rdf.Triple, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, tr(fmt.Sprintf("%s-s%d", prefix, i), "p", fmt.Sprintf("%s-v%d", prefix, i)))
	}
	return out
}

// dumpStore renders every triple as one N-Triples line in the store's
// term-sorted full-scan order, so stores holding the same triples give
// the same string whatever order they were built in.
func dumpStore(t testing.TB, s *store.Store) string {
	t.Helper()
	var b strings.Builder
	for _, tr := range s.MatchSlice(rdf.Term{}, rdf.Term{}, rdf.Term{}) {
		b.WriteString(tr.String() + "\n")
	}
	return b.String()
}

func mustOpen(t testing.TB, fs FS, opts Options) (*DB, RecoveryInfo) {
	t.Helper()
	opts.FS = fs
	db, info, err := Open("", opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, info
}

func TestDBRoundTrip(t *testing.T) {
	fs := NewMemFS()
	db, info := mustOpen(t, fs, Options{Fsync: FsyncAlways})
	if info.Triples != 0 || info.Generation != 0 {
		t.Fatalf("fresh open recovered %+v", info)
	}
	if err := db.AddAll(batch("bulk", 500)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the second is a duplicate: logged, not added
		if err := db.AddAll([]rdf.Triple{tr("online", "p", "v")}); err != nil {
			t.Fatal(err)
		}
		if n := db.Store().Len(); n != 501 {
			t.Fatalf("Len after one-triple AddAll #%d = %d, want 501", i+1, n)
		}
	}
	want := dumpStore(t, db.Store())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything came back through WAL replay alone.
	db2, info := mustOpen(t, fs, Options{Fsync: FsyncAlways})
	defer db2.Close()
	if info.Triples != 501 || info.WALTriples == 0 {
		t.Fatalf("recovery info %+v, want 501 triples via WAL", info)
	}
	if got := dumpStore(t, db2.Store()); got != want {
		t.Fatal("recovered dump differs from pre-restart dump")
	}
}

func TestDBSnapshotAndReopen(t *testing.T) {
	fs := NewMemFS()
	db, _ := mustOpen(t, fs, Options{Fsync: FsyncAlways})
	if err := db.AddAll(batch("a", 300)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if db.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", db.Generation())
	}
	// Post-snapshot mutations land in the new WAL.
	if err := db.AddAll([]rdf.Triple{tr("after", "p", "v")}); err != nil {
		t.Fatal(err)
	}
	want := dumpStore(t, db.Store())
	wantEpoch := db.Store().Epoch()
	db.Close()

	db2, info := mustOpen(t, fs, Options{Fsync: FsyncAlways})
	defer db2.Close()
	if info.Generation != 1 || info.Snapshot.Triples != 300 {
		t.Fatalf("recovery info %+v, want snapshot generation 1 with 300 triples", info)
	}
	if info.WALTriples != 1 {
		t.Fatalf("replayed %d WAL triples, want 1", info.WALTriples)
	}
	if got := dumpStore(t, db2.Store()); got != want {
		t.Fatal("recovered dump differs")
	}
	// Snapshot restores exact epochs; the replayed Add bumps once.
	if got := db2.Store().Epoch(); got != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", got, wantEpoch)
	}
}

// TestReopenLegacyPartitionedSnapshot recovers a data directory whose
// only generation is store/testdata/legacy8.snap, a snapshot written by
// an earlier build that partitioned the store into 8 shards, under a
// manifest that matches it. Recovery must restore it (no fallback) to
// the N-Triples dump that build produced.
func TestReopenLegacyPartitionedSnapshot(t *testing.T) {
	snap, err := os.ReadFile("../testdata/legacy8.snap")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../testdata/legacy8.nt")
	if err != nil {
		t.Fatal(err)
	}
	fs := NewMemFS()
	writeGeneration(t, fs, 1, snap)
	db, info := mustOpen(t, fs, Options{})
	defer db.Close()
	if info.Fallback || info.Generation != 1 {
		t.Fatalf("recovery info %+v, want generation 1 without fallback", info)
	}
	if got := dumpStore(t, db.Store()); got != string(want) {
		t.Fatalf("recovered dump differs from the writing build's dump:\n%s", got)
	}
}

// TestOpenRejectsUndecodableSnapshot pins what recovery does with an
// intact snapshot this build cannot decode: it matches its manifest
// checksum, so it is not corruption, and falling back to an older
// generation or an empty store would let the next snapshots' cleanup
// delete the only readable copy of the data. Open must fail instead,
// naming the generation.
func TestOpenRejectsUndecodableSnapshot(t *testing.T) {
	fs := NewMemFS()
	db, _ := mustOpen(t, fs, Options{})
	if err := db.AddAll(batch("a", 50)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// A future format version: bump the version field and re-seal the
	// header CRC (it covers magic..term count, 40 bytes) and the
	// manifest, so every checksum still holds.
	fs.mu.Lock()
	snap := bytes.Clone(fs.files[snapName(1)])
	fs.mu.Unlock()
	binary.LittleEndian.PutUint32(snap[8:], 2)
	binary.LittleEndian.PutUint32(snap[40:], crc32.Checksum(snap[:40], castagnoli))
	writeGeneration(t, fs, 1, snap)

	db2, info, err := Open("", Options{FS: fs})
	if err == nil {
		db2.Close()
		t.Fatalf("Open recovered %d triples (fallback %v) past an intact snapshot it cannot decode", info.Triples, info.Fallback)
	}
	if !strings.Contains(err.Error(), snapName(1)) {
		t.Errorf("error %q does not name the generation's snapshot %s", err, snapName(1))
	}
	fs.mu.Lock()
	_, kept := fs.files[snapName(1)]
	fs.mu.Unlock()
	if !kept {
		t.Error("the undecodable snapshot was removed")
	}
}

// writeGeneration installs snap as generation gen's snapshot under a
// manifest whose size and CRC32C match it.
func writeGeneration(t *testing.T, fs *MemFS, gen uint64, snap []byte) {
	t.Helper()
	m, err := json.Marshal(manifest{
		Version:  1,
		Snapshot: snapName(gen),
		Bytes:    int64(len(snap)),
		CRC32C:   crc32.Checksum(snap, castagnoli),
	})
	if err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	fs.files[snapName(gen)] = snap
	fs.files[manifestName(gen)] = m
	fs.mu.Unlock()
}

func TestRecoveryFallbackToOlderGeneration(t *testing.T) {
	fs := NewMemFS()
	db, _ := mustOpen(t, fs, Options{Fsync: FsyncAlways})
	if err := db.AddAll(batch("gen1", 200)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := db.AddAll(batch("gen2", 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := db.AddAll([]rdf.Triple{tr("tail", "p", "v")}); err != nil {
		t.Fatal(err)
	}
	want := dumpStore(t, db.Store())
	db.Close()

	// Corrupt the newest snapshot on disk. Recovery must fall back to
	// generation 1 and rebuild the rest from the generation-1 and -2
	// WALs — ending at the exact same state.
	fs.mu.Lock()
	snap2 := fs.files[snapName(2)]
	snap2[len(snap2)/2] ^= 0x40
	fs.mu.Unlock()

	db2, info := mustOpen(t, fs, Options{Fsync: FsyncAlways})
	defer db2.Close()
	if !info.Fallback {
		t.Fatal("recovery did not report fallback")
	}
	if info.Generation != 1 {
		t.Fatalf("recovered from generation %d, want 1", info.Generation)
	}
	if got := dumpStore(t, db2.Store()); got != want {
		t.Fatal("fallback recovery lost state")
	}
}

func TestTornWALTailTruncated(t *testing.T) {
	fs := NewMemFS()
	db, _ := mustOpen(t, fs, Options{Fsync: FsyncAlways})
	if err := db.AddAll(batch("solid", 50)); err != nil {
		t.Fatal(err)
	}
	want := dumpStore(t, db.Store())
	db.Close()

	// Torn tail: half a record of garbage at the end of the WAL.
	fs.mu.Lock()
	fs.files[walName(0)] = append(fs.files[walName(0)], 0xDE, 0xAD, 0xBE)
	fs.mu.Unlock()

	db2, info := mustOpen(t, fs, Options{Fsync: FsyncAlways})
	if info.TruncatedWALs != 1 {
		t.Fatalf("TruncatedWALs = %d, want 1", info.TruncatedWALs)
	}
	if got := dumpStore(t, db2.Store()); got != want {
		t.Fatal("torn tail corrupted recovered state")
	}
	// The truncated WAL must accept appends again and survive another
	// restart.
	if err := db2.AddAll([]rdf.Triple{tr("post-truncate", "p", "v")}); err != nil {
		t.Fatal(err)
	}
	want = dumpStore(t, db2.Store())
	db2.Close()
	db3, _ := mustOpen(t, fs, Options{Fsync: FsyncAlways})
	defer db3.Close()
	if got := dumpStore(t, db3.Store()); got != want {
		t.Fatal("append-after-truncate state lost")
	}
}

func TestUncommittedBatchDiscarded(t *testing.T) {
	mem := NewMemFS()
	db, _ := mustOpen(t, mem, Options{Fsync: FsyncAlways})
	if err := db.AddAll(batch("committed", 30)); err != nil {
		t.Fatal(err)
	}
	want := dumpStore(t, db.Store())
	db.Close()

	// Hand-write batch records with no commit marker, as a crash
	// mid-AddAll would leave them.
	w, err := openWALAppendForTest(mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := appendBatchNoCommit(w, batch("phantom", 20)); err != nil {
		t.Fatal(err)
	}

	db2, info := mustOpen(t, mem, Options{Fsync: FsyncAlways})
	defer db2.Close()
	if got := dumpStore(t, db2.Store()); got != want {
		t.Fatal("uncommitted batch leaked into recovered state")
	}
	if info.TruncatedWALs != 1 {
		t.Fatalf("TruncatedWALs = %d, want 1 (uncommitted tail)", info.TruncatedWALs)
	}
}

// TestFailedAppendIsSticky fails the second record write of a
// 5 000-triple batch, then lets writes succeed. The records the failed
// batch already logged must never be committed by a later batch's
// marker: every later AddAll fails, and a reopen recovers exactly the
// acknowledged triples.
func TestFailedAppendIsSticky(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem, FaultOnce, math.MaxInt64, 0)
	db, _ := mustOpen(t, ffs, Options{Fsync: FsyncAlways})
	if err := db.AddAll(batch("acked", 10)); err != nil {
		t.Fatal(err)
	}
	big := batch("torn", 5000)
	first := int64(8 + 5) // frame header, op byte and count of the first record
	for _, tr := range big[:walBatchChunk] {
		first += int64(len(rdf.AppendTriple(nil, tr)))
	}
	ffs.mu.Lock()
	ffs.offset = ffs.written + first // the first byte of the second record
	ffs.mu.Unlock()
	if err := db.AddAll(big); !errors.Is(err, errFaultInjected) {
		t.Fatalf("AddAll over the failing write = %v, want the injected fault", err)
	}
	if err := db.AddAll([]rdf.Triple{tr("after", "p", "fault")}); !errors.Is(err, errFaultInjected) {
		t.Errorf("AddAll after a failed append = %v, want the sticky fault", err)
	}
	live := dumpStore(t, db.Store())
	db.Close()

	rec, _ := mustOpen(t, mem, Options{Fsync: FsyncAlways})
	defer rec.Close()
	if got := rec.Store().Len(); got != 10 || dumpStore(t, rec.Store()) != live {
		t.Fatalf("reopen recovered %d triples, want the 10 acknowledged (live %d)", got, strings.Count(live, "\n"))
	}
}

func openWALAppendForTest(fs FS) (*wal, error) {
	return openWALAppend(fs, walName(0), 0)
}

// appendBatchNoCommit writes opBatch records without the commit marker.
func appendBatchNoCommit(w *wal, triples []rdf.Triple) error {
	p := make([]byte, 0, 1024)
	p = append(p, opBatch)
	p = appendU32(p, uint32(len(triples)))
	for _, tr := range triples {
		p = rdf.AppendTriple(p, tr)
	}
	return w.appendRecord(p)
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func TestSnapshotEvery(t *testing.T) {
	fs := NewMemFS()
	db, _ := mustOpen(t, fs, Options{Fsync: FsyncAlways, SnapshotEvery: 100})
	for i := 0; i < 250; i++ {
		if err := db.AddAll([]rdf.Triple{tr(fmt.Sprintf("s%d", i), "p", fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	if db.Generation() < 2 {
		t.Fatalf("generation = %d after 250 adds at SnapshotEvery=100", db.Generation())
	}
	want := dumpStore(t, db.Store())
	db.Close()
	db2, info := mustOpen(t, fs, Options{Fsync: FsyncAlways})
	defer db2.Close()
	if info.Generation < 2 {
		t.Fatalf("recovered generation %d", info.Generation)
	}
	if got := dumpStore(t, db2.Store()); got != want {
		t.Fatal("auto-snapshot state differs after restart")
	}
}

func TestGenerationCleanup(t *testing.T) {
	fs := NewMemFS()
	db, _ := mustOpen(t, fs, Options{Fsync: FsyncAlways})
	for g := 0; g < 5; g++ {
		if err := db.AddAll(batch(fmt.Sprintf("g%d", g), 20)); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	db.Close()
	names, _ := fs.List()
	for _, name := range names {
		for _, prefix := range []string{"snap-", "wal-", manifestPrefix} {
			var suffix string
			switch prefix {
			case "snap-":
				suffix = snapSuffix
			case "wal-":
				suffix = walSuffix
			default:
				suffix = manifestSuffix
			}
			if g, ok := parseGen(name, prefix, suffix); ok && g < 4 {
				t.Errorf("generation %d file %s survived cleanup", g, name)
			}
		}
	}
	db2, info := mustOpen(t, fs, Options{Fsync: FsyncAlways})
	defer db2.Close()
	if info.Generation != 5 || info.Triples != 100 {
		t.Fatalf("recovery after cleanup %+v", info)
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			fs := NewMemFS()
			db, _ := mustOpen(t, fs, Options{Fsync: policy, FsyncInterval: 5 * time.Millisecond})
			if err := db.AddAll(batch("x", 50)); err != nil {
				t.Fatal(err)
			}
			if policy == FsyncInterval {
				time.Sleep(15 * time.Millisecond) // let the sync loop tick
			}
			want := dumpStore(t, db.Store())
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, _ := mustOpen(t, fs, Options{Fsync: policy, FsyncInterval: 5 * time.Millisecond})
			got := dumpStore(t, db2.Store())
			db2.Close()
			if got != want {
				t.Fatal("state lost across restart")
			}
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for s, want := range map[string]FsyncPolicy{"always": FsyncAlways, "interval": FsyncInterval, "off": FsyncOff} {
		got, err := ParseFsyncPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = (%v, %v)", s, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
	if !strings.Contains(FsyncInterval.String(), "interval") {
		t.Error("FsyncPolicy.String")
	}
}

// TestOSFS exercises the real-filesystem implementation end to end:
// create, append, rename, truncate, directory sync, restart.
func TestOSFS(t *testing.T) {
	dir := t.TempDir()
	db, _, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddAll(batch("disk", 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := db.AddAll([]rdf.Triple{tr("tail", "p", "v")}); err != nil {
		t.Fatal(err)
	}
	want := dumpStore(t, db.Store())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, info, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if info.Generation != 1 || info.Triples != 101 {
		t.Fatalf("recovery info %+v", info)
	}
	if got := dumpStore(t, db2.Store()); got != want {
		t.Fatal("on-disk restart lost state")
	}
}

// TestOpenLocksDir pins the data directory lock: while one DB holds a
// directory open, a second Open fails with ErrLocked and leaves every
// file as it was, including a *.tmp that recovery would remove (it may
// be a manifest the first opener is about to rename into place). Once
// the first DB is closed the directory opens again.
func TestOpenLocksDir(t *testing.T) {
	dir := t.TempDir()
	db, _, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddAll(batch("held", 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	pending := filepath.Join(dir, manifestName(2)+tmpSuffix)
	if err := os.WriteFile(pending, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	listing := func() map[string]string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string]string, len(entries))
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(b)
		}
		return files
	}
	before := listing()

	if db2, _, err := Open(dir, Options{Fsync: FsyncAlways}); !errors.Is(err, ErrLocked) {
		if db2 != nil {
			db2.Close()
		}
		t.Fatalf("second Open: err %v, want ErrLocked", err)
	}
	if after := listing(); !maps.Equal(after, before) {
		t.Errorf("second Open changed the directory:\nbefore %q\nafter  %q", slices.Sorted(maps.Keys(before)), slices.Sorted(maps.Keys(after)))
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, info, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	defer db2.Close()
	if info.Triples != 10 {
		t.Errorf("reopen recovered %d triples, want 10", info.Triples)
	}
}

// TestDBConcurrent races one-triple AddAlls, snapshots, and readers through
// the DB; run under -race. The DB serializes mutations, the store
// serves concurrent reads, and the final state must survive a restart.
func TestDBConcurrent(t *testing.T) {
	fs := NewMemFS()
	db, _ := mustOpen(t, fs, Options{Fsync: FsyncOff})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := db.AddAll([]rdf.Triple{tr(fmt.Sprintf("w%d-s%d", w, i), "p", "v")}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := db.Snapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			db.Store().Match(rdf.Term{}, rdf.Term{}, rdf.Term{}, func(rdf.Triple) bool { return true })
		}
	}()
	wg.Wait()
	want := dumpStore(t, db.Store())
	db.Close()
	db2, _ := mustOpen(t, fs, Options{Fsync: FsyncOff})
	defer db2.Close()
	if got := dumpStore(t, db2.Store()); got != want {
		t.Fatal("concurrent workload state lost across restart")
	}
}

func TestIngestBypassesWALButSnapshots(t *testing.T) {
	fs := NewMemFS()
	db, _ := mustOpen(t, fs, Options{Fsync: FsyncAlways})
	err := db.Ingest(func(s *store.Store) error {
		l := store.NewBulkLoader(s)
		if err := l.AddAll(batch("ingested", 400)); err != nil {
			return err
		}
		l.Commit()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Generation() != 1 {
		t.Fatalf("Ingest did not snapshot (generation %d)", db.Generation())
	}
	want := dumpStore(t, db.Store())
	db.Close()
	db2, info := mustOpen(t, fs, Options{Fsync: FsyncAlways})
	defer db2.Close()
	if info.Snapshot.Triples != 400 {
		t.Fatalf("recovered snapshot %+v", info.Snapshot)
	}
	if got := dumpStore(t, db2.Store()); got != want {
		t.Fatal("ingested state lost")
	}
}

// TestSnapshotCurrent: the newest snapshot holds the store right after
// it is taken and after a clean reopen, not once a batch is logged, not
// after recovery fell back past an unreadable newest generation, and
// not after recovery replayed the WAL of a snapshot that failed.
func TestSnapshotCurrent(t *testing.T) {
	fs := NewMemFS()
	db, _ := mustOpen(t, fs, Options{Fsync: FsyncAlways})
	check := func(db *DB, want bool, when string) {
		t.Helper()
		if got := db.SnapshotCurrent(); got != want {
			t.Errorf("%s: SnapshotCurrent = %v, want %v", when, got, want)
		}
	}
	for gen := 1; gen <= 2; gen++ {
		if err := db.AddAll(batch(fmt.Sprint("gen", gen), 50)); err != nil {
			t.Fatal(err)
		}
		check(db, false, "after a logged batch")
		if _, err := db.Snapshot(); err != nil {
			t.Fatal(err)
		}
		check(db, true, "after a snapshot")
	}
	db.Close()
	db, _ = mustOpen(t, fs, Options{Fsync: FsyncAlways})
	check(db, true, "after a clean reopen")
	db.Close()

	fs.mu.Lock()
	snap2 := fs.files[snapName(2)]
	snap2[len(snap2)/2] ^= 0x40
	fs.mu.Unlock()
	db, info := mustOpen(t, fs, Options{Fsync: FsyncAlways})
	if !info.Fallback {
		t.Fatal("recovery did not fall back")
	}
	check(db, false, "after a fallback recovery")
	if _, err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	check(db, true, "after the snapshot that follows it")

	// A snapshot whose manifest rename fails leaves the next generation's
	// bare WAL behind; recovery restores the older snapshot and replays
	// the batch logged after it, which no snapshot holds.
	if err := db.AddAll(batch("unsnapshotted", 50)); err != nil {
		t.Fatal(err)
	}
	db.Close()
	failing := &failManifestRenameFS{MemFS: fs}
	db, _ = mustOpen(t, failing, Options{Fsync: FsyncAlways})
	if _, err := db.Snapshot(); err == nil {
		t.Fatal("a snapshot whose manifest rename fails succeeded")
	}
	db.Close()
	db, info = mustOpen(t, fs, Options{Fsync: FsyncAlways})
	defer db.Close()
	if info.WALRecords == 0 {
		t.Fatal("recovery replayed no WAL record")
	}
	check(db, false, "after recovery replayed a WAL")
	if _, err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	check(db, true, "after the snapshot that follows it")
}

// failManifestRenameFS fails every rename onto a manifest name, the
// commit point of a snapshot.
type failManifestRenameFS struct{ *MemFS }

func (f *failManifestRenameFS) Rename(oldName, newName string) error {
	if strings.HasPrefix(newName, manifestPrefix) {
		return errFaultInjected
	}
	return f.MemFS.Rename(oldName, newName)
}
