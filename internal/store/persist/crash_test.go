package persist

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"sapphire/internal/rdf"
)

// Crash-recovery property test. A deterministic script of mutations
// (bulk batches, online adds, explicit snapshots) runs against a
// fault-injecting filesystem that kills the process at a chosen byte
// offset of the cumulative write stream — failing cleanly, tearing the
// write, or silently flipping a bit. After every injected crash the
// store is recovered from what reached "disk" and must dump
// byte-identical to the state after some completed prefix of the script
// — never a torn hybrid, never a panic.
//
// The sweep covers evenly-strided offsets over the whole write stream
// plus SAPPHIRE_CRASH_SEEDS extra random offsets (the Makefile
// crashtest target raises this well beyond the CI smoke setting).

// crashOp is one scripted mutation.
type crashOp struct {
	kind    byte // 'B' batch, 'A' add, 'S' snapshot
	triples []rdf.Triple
}

// crashScript builds the deterministic op sequence.
func crashScript() []crashOp {
	var ops []crashOp
	rng := rand.New(rand.NewSource(7))
	add := func(i int) crashOp {
		return crashOp{kind: 'A', triples: []rdf.Triple{tr(
			fmt.Sprintf("online-s%d", i),
			fmt.Sprintf("p%d", rng.Intn(5)),
			fmt.Sprintf("value %d", rng.Int63()),
		)}}
	}
	ops = append(ops, crashOp{kind: 'B', triples: batch("alpha", 180)})
	for i := 0; i < 6; i++ {
		ops = append(ops, add(i))
	}
	ops = append(ops, crashOp{kind: 'S'})
	ops = append(ops, crashOp{kind: 'B', triples: batch("beta", 120)})
	for i := 6; i < 12; i++ {
		ops = append(ops, add(i))
	}
	ops = append(ops, crashOp{kind: 'S'})
	ops = append(ops, crashOp{kind: 'B', triples: batch("gamma", 60)})
	for i := 12; i < 16; i++ {
		ops = append(ops, add(i))
	}
	return ops
}

// runScript applies ops until one fails (the injected crash) and
// reports how many completed. The DB is abandoned on failure — a
// crashed process does not get to run Close.
func runScript(db *DB, ops []crashOp) (completed int, failed error) {
	for _, op := range ops {
		var err error
		switch op.kind {
		case 'B':
			err = db.AddAll(op.triples)
		case 'A':
			_, err = db.Add(op.triples[0])
		case 'S':
			_, err = db.Snapshot()
		}
		if err != nil {
			return completed, err
		}
		completed++
	}
	return completed, nil
}

func crashSeeds(t *testing.T) int {
	if v := os.Getenv("SAPPHIRE_CRASH_SEEDS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			t.Fatalf("bad SAPPHIRE_CRASH_SEEDS %q", v)
		}
		return n
	}
	return 32 // CI smoke setting
}

func TestCrashRecoveryProperty(t *testing.T) {
	ops := crashScript()

	// Dry run on a clean MemFS: record the dump after every completed
	// op (the legal recovery states) and the total bytes written (the
	// fault-offset space).
	dry := NewFaultFS(NewMemFS(), FaultNone, 0, 0)
	db, _ := mustOpen(t, dry, Options{Fsync: FsyncAlways})
	dumps := []string{dumpStore(t, db.Store())} // dumps[i] = state after i ops
	for i := range ops {
		if n, err := runScript(db, ops[i:i+1]); n != 1 {
			t.Fatalf("dry run op %d failed: %v", i, err)
		}
		dumps = append(dumps, dumpStore(t, db.Store()))
	}
	db.Close()
	total := dry.written // the DB is closed: nothing writes any more
	if total < 1024 {
		t.Fatalf("dry run wrote only %d bytes", total)
	}

	// Offsets: an even stride across the stream plus seeded extras.
	rng := rand.New(rand.NewSource(11))
	var offsets []int64
	const stride = 64
	for i := 0; i < stride; i++ {
		offsets = append(offsets, total*int64(i)/stride)
	}
	for i := 0; i < crashSeeds(t); i++ {
		offsets = append(offsets, rng.Int63n(total))
	}

	for _, mode := range []FaultMode{FaultError, FaultTorn, FaultBitFlip} {
		for _, off := range offsets {
			name := fmt.Sprintf("%s@%d", mode, off)
			mem := NewMemFS()
			faulty := NewFaultFS(mem, mode, off, uint(off%8))
			// The fault can fire as early as Open's first WAL write; a
			// failed Open is a crash with zero completed ops.
			completed := 0
			db, _, failErr := Open("", Options{FS: faulty, Fsync: FsyncAlways})
			if failErr == nil {
				completed, failErr = runScript(db, ops)
			}
			if mode == FaultBitFlip {
				// Silent corruption: the process runs to completion and
				// even shuts down cleanly, never noticing.
				if failErr != nil {
					t.Fatalf("%s: bit flip surfaced as a write error: %v", name, failErr)
				}
				db.Close()
			}
			// Kill the process here; recover from what reached disk.
			rec, info, err := Open("", Options{FS: mem, Fsync: FsyncOff})
			if err != nil {
				t.Fatalf("%s: recovery failed: %v (info %+v)", name, err, info)
			}
			got := dumpStore(t, rec.Store())

			switch mode {
			case FaultError, FaultTorn:
				// FsyncAlways: every op before the failing one is fully
				// durable. The failing op itself may or may not have
				// reached disk intact (it can fail after its bytes were
				// written — e.g. during a snapshot's cleanup).
				want := []string{dumps[completed]}
				if completed+1 < len(dumps) {
					want = append(want, dumps[completed+1])
				}
				if !contains(want, got) {
					t.Fatalf("%s: recovered state is not op-%d or op-%d state (%d completed ops, recovery %+v)",
						name, completed, completed+1, completed, info)
				}
			case FaultBitFlip:
				// One flipped bit somewhere in snapshots, WALs, or
				// manifests: recovery may lose a suffix (checksums
				// truncate at the flip) or nothing (the redundant
				// generation covers it), but must land exactly on some
				// committed prefix.
				idx := -1
				for i, d := range dumps {
					if d == got {
						idx = i
						break
					}
				}
				if idx < 0 {
					t.Fatalf("%s: recovered state matches no committed prefix (recovery %+v)", name, info)
				}
			}

			// The recovered store must be fully usable.
			if _, err := rec.Add(tr("post-recovery", "p", "v")); err != nil {
				t.Fatalf("%s: Add after recovery: %v", name, err)
			}
			rec.Close()
		}
	}
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// TestCrashDuringRecovery injects faults into the *recovery* write path
// (tail truncation, WAL recreation): a crash while recovering must
// still leave a recoverable directory.
func TestCrashDuringRecovery(t *testing.T) {
	ops := crashScript()
	mem := NewMemFS()
	db, _ := mustOpen(t, mem, Options{Fsync: FsyncAlways})
	if n, err := runScript(db, ops); err != nil {
		t.Fatalf("setup failed after %d ops: %v", n, err)
	}
	want := dumpStore(t, db.Store())
	db.Close()
	// Corrupt the live WAL tail so recovery has truncation work to do.
	mem.mu.Lock()
	cur := walName(2)
	mem.files[cur] = append(mem.files[cur], 0x01, 0x02, 0x03, 0x04)
	mem.mu.Unlock()

	for off := int64(0); off < 64; off += 7 {
		faulty := NewFaultFS(mem, FaultError, off, 0)
		if rec, _, err := Open("", Options{FS: faulty, Fsync: FsyncOff}); err == nil {
			rec.Close()
		}
		// Whatever the outcome, a clean second recovery must succeed.
		rec, _, err := Open("", Options{FS: mem, Fsync: FsyncOff})
		if err != nil {
			t.Fatalf("offset %d: directory unrecoverable after crashed recovery: %v", off, err)
		}
		if got := dumpStore(t, rec.Store()); got != want {
			t.Fatalf("offset %d: crashed recovery changed state", off)
		}
		rec.Close()
	}
}
