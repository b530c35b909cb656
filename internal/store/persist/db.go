package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"sync"
	"time"

	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

// Generations. Durable state advances in numbered generations: taking
// snapshot g writes snap-g, opens wal-g, and publishes manifest-g via
// tmp-file + fsync + atomic rename — the manifest rename is the commit
// point of the whole snapshot. Recovery walks manifests newest-first,
// restores the first generation whose snapshot validates (older
// generations are the fallback when the newest is corrupt; a snapshot
// that matches its manifest but does not decode stops recovery), then
// replays every WAL from that generation forward, truncating torn
// tails. The generation number is parsed from the manifest *filename*,
// never its contents: filenames travel through rename calls as strings
// and cannot be bit-flipped by a torn write the way file bytes can.

const (
	snapSuffix     = ".snap"
	walSuffix      = ".wal"
	manifestPrefix = "manifest-"
	manifestSuffix = ".json"
	tmpSuffix      = ".tmp"
	lockName       = "LOCK"
)

// ErrLocked reports a data directory that another DB holds open, in
// this process or another.
var ErrLocked = errors.New("persist: data directory is locked by another open DB")

func snapName(gen uint64) string { return fmt.Sprintf("snap-%016x%s", gen, snapSuffix) }
func walName(gen uint64) string  { return fmt.Sprintf("wal-%016x%s", gen, walSuffix) }
func manifestName(gen uint64) string {
	return fmt.Sprintf("%s%016x%s", manifestPrefix, gen, manifestSuffix)
}

// parseGen extracts the generation from a filename of the form
// prefix-%016x+suffix.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if len(hex) != 16 {
		return 0, false
	}
	var gen uint64
	for i := 0; i < 16; i++ {
		c := hex[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return 0, false
		}
		gen = gen<<4 | d
	}
	return gen, true
}

// manifest is the generation commit record. It is advisory metadata for
// picking and validating a snapshot; all load-bearing integrity lives
// in the snapshot's own section checksums.
type manifest struct {
	Version   int    `json:"version"`
	Snapshot  string `json:"snapshot"`
	Bytes     int64  `json:"bytes"`
	CRC32C    uint32 `json:"crc32c"`
	Epoch     uint64 `json:"epoch"`
	Triples   uint64 `json:"triples"`
	CreatedAt string `json:"createdAt"`
}

// FsyncPolicy selects when WAL appends reach the platter.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every logged batch: no committed
	// mutation is ever lost, at the price of a disk round-trip per
	// AddAll.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a timer (Options.FsyncInterval): a crash
	// loses at most the last interval's mutations.
	FsyncInterval
	// FsyncOff never syncs explicitly: fastest, loses whatever the OS
	// hadn't flushed. Snapshots still sync regardless of policy.
	FsyncOff
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy parses the -fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("persist: unknown fsync policy %q (want always, interval, or off)", s)
}

// Options configures a DB.
type Options struct {
	// FS overrides the filesystem (tests inject in-memory and
	// fault-injecting ones here).
	// Nil uses the real directory passed to Open.
	FS FS
	// Fsync is the WAL sync policy. Default FsyncAlways.
	Fsync FsyncPolicy
	// FsyncInterval is the FsyncInterval timer period. Default 100ms.
	FsyncInterval time.Duration
	// SnapshotEvery triggers an automatic snapshot once this many
	// triples have been logged to the current WAL. 0 disables automatic
	// snapshots (explicit Snapshot calls still work).
	SnapshotEvery int
}

// keepGenerations is how many trailing generations survive snapshot
// cleanup: the newest plus one fallback.
const keepGenerations = 2

// RecoveryInfo reports what Open reconstructed.
type RecoveryInfo struct {
	// Generation is the restored snapshot generation; Snapshot is its
	// stamp. Both are zero when no valid snapshot existed.
	Generation uint64
	Snapshot   store.SnapshotInfo
	// Fallback reports that a newer manifest existed but its snapshot
	// failed validation, so an older generation was restored.
	Fallback bool
	// WALRecords / WALTriples count replayed WAL state.
	WALRecords int
	WALTriples int
	// TruncatedWALs is how many WAL files had torn or uncommitted
	// tails dropped.
	TruncatedWALs int
	// Triples / Epoch describe the recovered store.
	Triples int
	Epoch   uint64
}

// DB is a triple store with durable state under a directory. All
// mutations go through the WAL before touching the store; Snapshot
// compacts the WAL into a new checkpoint generation.
type DB struct {
	fs   FS
	opts Options

	mu    sync.Mutex
	store *store.Store
	wal   *wal
	gen   uint64
	// walTriples counts triples logged to the current WAL, driving
	// SnapshotEvery.
	walTriples int
	closed     bool
	// stale is set when recovery did not restore the store from the
	// newest snapshot alone (it fell back to an older generation or
	// replayed WAL records), until the next snapshot.
	stale bool

	stopSync chan struct{}
	syncDone chan struct{}
	// lock holds the data directory's LOCK file, nil on an injected FS
	// or a platform without flock.
	lock *os.File
}

// Open recovers (or initializes) durable state in dir and returns a
// ready DB. Recovery never panics on corrupt files: the newest valid
// generation wins, WAL tails beyond the last intact record are
// truncated, and a completely empty or hopeless directory yields an
// empty store. A snapshot that matches its manifest checksum but that
// this build cannot decode is not corruption: Open returns an error
// naming its generation and leaves every generation in place.
func Open(dir string, opts Options) (*DB, RecoveryInfo, error) {
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = 100 * time.Millisecond
	}
	db := &DB{fs: opts.FS, opts: opts}
	if db.fs == nil {
		var err error
		if db.fs, err = NewOSFS(dir); err != nil {
			return nil, RecoveryInfo{}, err
		}
		if db.lock, err = lockDir(dir); err != nil {
			return nil, RecoveryInfo{}, err
		}
	}
	info, err := db.recover()
	if err != nil {
		_ = db.unlock()
		return nil, info, err
	}
	if opts.Fsync == FsyncInterval {
		db.stopSync = make(chan struct{})
		db.syncDone = make(chan struct{})
		go db.syncLoop()
	}
	return db, info, nil
}

// HasSnapshot reports whether dir holds a snapshot manifest, without
// creating or changing anything: a missing dir holds none. A data dir
// that was ever seeded holds one, since seeding ends in a snapshot.
func HasSnapshot(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if _, ok := parseGen(e.Name(), manifestPrefix, manifestSuffix); ok {
			return true, nil
		}
	}
	return false, nil
}

func (db *DB) recover() (RecoveryInfo, error) {
	var info RecoveryInfo
	names, err := db.fs.List()
	if err != nil {
		return info, fmt.Errorf("persist: listing data dir: %w", err)
	}

	var manifestGens, walGens []uint64
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			db.fs.Remove(name) //nolint:errcheck — hygiene only
			continue
		}
		if g, ok := parseGen(name, manifestPrefix, manifestSuffix); ok {
			manifestGens = append(manifestGens, g)
		}
		if g, ok := parseGen(name, "wal-", walSuffix); ok {
			walGens = append(walGens, g)
		}
	}

	// Newest-first: the first generation whose snapshot validates wins.
	// A snapshot that matches its manifest checksum but does not decode
	// is intact, just unreadable by this build: falling back past it
	// (or to an empty store) would let later snapshots and cleanup
	// delete the data, so recovery stops there instead.
	var (
		baseGen  uint64
		haveBase bool
	)
	for i := len(manifestGens) - 1; i >= 0; i-- {
		g := manifestGens[i]
		snap, sinfo, err := db.loadGeneration(g)
		if errors.Is(err, errUndecodable) {
			return info, err
		}
		if err != nil {
			info.Fallback = true
			continue
		}
		db.store = snap
		info.Generation = g
		info.Snapshot = sinfo
		baseGen, haveBase = g, true
		break
	}
	if db.store == nil {
		db.store = store.New()
		info.Fallback = info.Fallback || len(manifestGens) > 0
	}

	// Replay every WAL from the restored generation forward, oldest
	// first. WALs beyond a crashed snapshot attempt hold no records and
	// replay as no-ops.
	maxGen := baseGen
	if n := len(manifestGens); n > 0 && manifestGens[n-1] > maxGen {
		maxGen = manifestGens[n-1]
	}
	var lastWAL uint64
	haveWAL := false
	for _, g := range walGens {
		if haveBase && g < baseGen {
			continue
		}
		rep, err := replayWAL(db.fs, walName(g), db.store)
		if err != nil {
			return info, err
		}
		info.WALRecords += rep.records
		info.WALTriples += rep.triples
		if rep.truncated {
			info.TruncatedWALs++
			if err := db.fs.Truncate(walName(g), rep.goodBytes); err != nil {
				return info, fmt.Errorf("persist: truncating torn WAL tail: %w", err)
			}
		}
		if g > maxGen {
			maxGen = g
		}
		if !haveWAL || g > lastWAL {
			lastWAL, haveWAL = g, true
		}
	}

	// Resume appending to the newest WAL (recreating it when absent or
	// reduced to nothing by magic corruption).
	db.gen = maxGen
	cur := walName(db.gen)
	switch {
	case haveWAL && lastWAL == db.gen:
		data, err := readAll(db.fs, cur)
		if err != nil {
			return info, err
		}
		if len(data) >= len(walMagic) && string(data[:len(walMagic)]) == walMagic {
			db.wal, err = openWALAppend(db.fs, cur, int64(len(data)))
		} else {
			db.wal, err = createWAL(db.fs, cur)
		}
		if err != nil {
			return info, err
		}
		db.wal.buffered = db.opts.Fsync != FsyncAlways
	default:
		var err error
		if db.wal, err = createWAL(db.fs, cur); err != nil {
			return info, err
		}
		db.wal.buffered = db.opts.Fsync != FsyncAlways
		if err := db.wal.sync(); err != nil {
			return info, err
		}
		if err := db.fs.SyncDir(); err != nil {
			return info, err
		}
	}

	info.Triples = db.store.Len()
	info.Epoch = db.store.Epoch()
	db.stale = info.Fallback || info.WALRecords > 0
	return info, nil
}

// errUndecodable marks a snapshot that matches its manifest checksum
// but fails to decode.
var errUndecodable = errors.New("intact but undecodable by this build")

// loadGeneration validates and restores one snapshot generation. A
// snapshot that passes the manifest checksum but fails to restore
// returns an error wrapping errUndecodable.
func (db *DB) loadGeneration(gen uint64) (*store.Store, store.SnapshotInfo, error) {
	var sinfo store.SnapshotInfo
	mdata, err := readAll(db.fs, manifestName(gen))
	if err != nil {
		return nil, sinfo, err
	}
	var m manifest
	if err := json.Unmarshal(mdata, &m); err != nil {
		return nil, sinfo, fmt.Errorf("persist: manifest %d: %w", gen, err)
	}
	sdata, err := readAll(db.fs, snapName(gen))
	if err != nil {
		return nil, sinfo, err
	}
	if int64(len(sdata)) != m.Bytes || crc32.Checksum(sdata, castagnoli) != m.CRC32C {
		return nil, sinfo, fmt.Errorf("persist: snapshot %d fails manifest checksum", gen)
	}
	s, sinfo, err := store.RestoreSnapshotBytes(sdata)
	if err != nil {
		return nil, sinfo, fmt.Errorf("persist: snapshot generation %d (%s) is %w: %v", gen, snapName(gen), errUndecodable, err)
	}
	return s, sinfo, nil
}

// Store exposes the underlying triple store for reads. Mutations must
// go through the DB or they will not survive a restart.
func (db *DB) Store() *store.Store {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.store
}

// AddAll durably logs a batch (chunked records plus a commit marker),
// then applies it as one store commit. It is the DB's only logged
// write; a single triple is a one-triple batch. On replay the batch is
// all-or-nothing: without its commit marker on disk, none of it
// survives.
func (db *DB) AddAll(triples []rdf.Triple) error {
	if len(triples) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return fmt.Errorf("persist: DB is closed")
	}
	for _, tr := range triples {
		if !tr.Valid() {
			return fmt.Errorf("persist: invalid triple in batch")
		}
	}
	if err := db.wal.appendBatch(triples); err != nil {
		return err
	}
	if db.opts.Fsync == FsyncAlways {
		if err := db.wal.sync(); err != nil {
			return err
		}
	}
	if err := db.store.AddAll(triples); err != nil {
		return err
	}
	db.walTriples += len(triples)
	return db.maybeSnapshotLocked()
}

// Ingest runs fn against the store without WAL logging, then takes a
// snapshot so the result is durable anyway. It exists for initial bulk
// loads (N-Triples ingest, synthetic datagen) where logging every
// triple would double the write volume for data that is about to be
// checkpointed wholesale.
func (db *DB) Ingest(fn func(*store.Store) error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return fmt.Errorf("persist: DB is closed")
	}
	if err := fn(db.store); err != nil {
		return err
	}
	_, err := db.snapshotLocked()
	return err
}

func (db *DB) maybeSnapshotLocked() error {
	if db.opts.SnapshotEvery <= 0 || db.walTriples < db.opts.SnapshotEvery {
		return nil
	}
	_, err := db.snapshotLocked()
	return err
}

// Snapshot checkpoints the current store state into a new generation
// and rotates the WAL.
func (db *DB) Snapshot() (store.SnapshotInfo, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return store.SnapshotInfo{}, fmt.Errorf("persist: DB is closed")
	}
	return db.snapshotLocked()
}

func (db *DB) snapshotLocked() (store.SnapshotInfo, error) {
	var sinfo store.SnapshotInfo
	gen := db.gen + 1

	// 1. Snapshot file: encode, write, sync.
	f, err := db.fs.Create(snapName(gen))
	if err != nil {
		return sinfo, fmt.Errorf("persist: creating snapshot: %w", err)
	}
	var buf bytes.Buffer
	if sinfo, err = db.store.WriteSnapshot(&buf); err != nil {
		_ = f.Close() // error path: the write/sync failure is the one to report
		return sinfo, err
	}
	sdata := buf.Bytes()
	if _, err := f.Write(sdata); err != nil {
		_ = f.Close()
		return sinfo, fmt.Errorf("persist: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return sinfo, fmt.Errorf("persist: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return sinfo, err
	}

	// 2. Fresh WAL for the new generation, durable before the manifest
	// commits to it.
	nw, err := createWAL(db.fs, walName(gen))
	if err != nil {
		return sinfo, err
	}
	nw.buffered = db.opts.Fsync != FsyncAlways
	if err := nw.sync(); err != nil {
		_ = nw.close() // error path: the sync failure is the one to report
		return sinfo, err
	}

	// 3. Manifest via tmp + fsync + atomic rename: the commit point.
	m := manifest{
		Version:   1,
		Snapshot:  snapName(gen),
		Bytes:     int64(len(sdata)),
		CRC32C:    crc32.Checksum(sdata, castagnoli),
		Epoch:     db.store.Epoch(),
		Triples:   uint64(db.store.Len()),
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
	}
	mdata, err := json.Marshal(m)
	if err != nil {
		_ = nw.close() // error path: the marshal failure is the one to report
		return sinfo, err
	}
	tmp := manifestName(gen) + tmpSuffix
	mf, err := db.fs.Create(tmp)
	if err != nil {
		_ = nw.close()
		return sinfo, err
	}
	if _, err := mf.Write(mdata); err != nil {
		_ = mf.Close()
		_ = nw.close()
		return sinfo, fmt.Errorf("persist: writing manifest: %w", err)
	}
	if err := mf.Sync(); err != nil {
		_ = mf.Close()
		_ = nw.close()
		return sinfo, err
	}
	if err := mf.Close(); err != nil {
		_ = nw.close()
		return sinfo, err
	}
	if err := db.fs.Rename(tmp, manifestName(gen)); err != nil {
		_ = nw.close()
		return sinfo, err
	}
	if err := db.fs.SyncDir(); err != nil {
		_ = nw.close()
		return sinfo, err
	}

	// 4. Committed: swap in the new WAL and retire old generations. The
	// old WAL's contents are captured by the snapshot, so a failing
	// close of the superseded handle cannot lose data.
	_ = db.wal.close()
	db.wal = nw
	db.gen = gen
	db.walTriples = 0
	db.stale = false
	db.cleanupLocked()
	return sinfo, nil
}

// cleanupLocked removes generations older than keepGenerations, plus
// snapshot files orphaned by crashed snapshot attempts. Best-effort:
// cleanup failures never fail the snapshot that triggered them.
func (db *DB) cleanupLocked() {
	names, err := db.fs.List()
	if err != nil {
		return
	}
	var cutoff uint64
	if db.gen >= keepGenerations {
		cutoff = db.gen - keepGenerations + 1
	}
	for _, name := range names {
		if g, ok := parseGen(name, "snap-", snapSuffix); ok && g < cutoff {
			db.fs.Remove(name) //nolint:errcheck
		}
		if g, ok := parseGen(name, "wal-", walSuffix); ok && g < cutoff {
			db.fs.Remove(name) //nolint:errcheck
		}
		if g, ok := parseGen(name, manifestPrefix, manifestSuffix); ok && g < cutoff {
			db.fs.Remove(name) //nolint:errcheck
		}
	}
}

// syncLoop flushes the WAL on a timer under FsyncInterval.
func (db *DB) syncLoop() {
	defer close(db.syncDone)
	t := time.NewTicker(db.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-db.stopSync:
			return
		case <-t.C:
			db.mu.Lock()
			if !db.closed && db.wal != nil {
				// Background flush: a failure here is sticky on the
				// WAL, so the next AddAll returns it.
				_ = db.wal.sync()
			}
			db.mu.Unlock()
		}
	}
}

// Close flushes and closes the WAL. It does not snapshot; callers
// wanting a checkpoint on shutdown call Snapshot first (the binaries
// do, on SIGTERM).
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.mu.Unlock()
	if db.stopSync != nil {
		close(db.stopSync)
		<-db.syncDone
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	var err error
	if db.wal != nil {
		if serr := db.wal.sync(); serr != nil {
			err = serr
		}
		if cerr := db.wal.close(); cerr != nil && err == nil {
			err = cerr
		}
		db.wal = nil
	}
	if uerr := db.unlock(); uerr != nil && err == nil {
		err = uerr
	}
	return err
}

// unlock releases the data directory's LOCK file.
func (db *DB) unlock() error {
	if db.lock == nil {
		return nil
	}
	err := db.lock.Close()
	db.lock = nil
	return err
}

// Generation reports the current snapshot generation.
func (db *DB) Generation() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.gen
}

// SnapshotCurrent reports whether the newest snapshot already holds the
// store: the WAL holds no record, and recovery restored that snapshot
// alone, with no fallback and no WAL record replayed. A snapshot taken
// then would only repeat it.
func (db *DB) SnapshotCurrent() bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return !db.stale && db.wal != nil && db.wal.size == int64(len(walMagic))
}

// WALSize reports the current WAL's byte length.
func (db *DB) WALSize() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal == nil {
		return 0
	}
	return db.wal.size
}
