package persist

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

// legacyOpAddDir is a data directory written by an earlier build whose
// DB.Add logged single-triple opAdd records: generation 1's snapshot,
// then a WAL mixing opAdd records with batch records. ops.nt lists the
// WAL's operations in order, each under a "# add" or "# addall" line,
// and dump.nt is the writing build's dump of the final store.
const legacyOpAddDir = "testdata/legacy-opadd"

// legacyOpAddFS returns the fixture's data files in a fresh MemFS.
func legacyOpAddFS(t testing.TB) *MemFS {
	t.Helper()
	ents, err := os.ReadDir(legacyOpAddDir)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewMemFS()
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".nt") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(legacyOpAddDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fs.files[e.Name()] = b
	}
	return fs
}

// legacyOpAddOps parses ops.nt into one triple list per logged
// operation.
func legacyOpAddOps(t *testing.T) [][]rdf.Triple {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(legacyOpAddDir, "ops.nt"))
	if err != nil {
		t.Fatal(err)
	}
	var ops [][]rdf.Triple
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if strings.HasPrefix(line, "# add") {
			ops = append(ops, nil)
			continue
		}
		tr, err := rdf.NewReader(strings.NewReader(line)).Read()
		if err != nil || len(ops) == 0 {
			t.Fatalf("ops.nt line %q: %v", line, err)
		}
		ops[len(ops)-1] = append(ops[len(ops)-1], tr)
	}
	return ops
}

// TestReplayLegacyOpAddWAL keeps replay of opAdd records covered now
// that this build writes none: the fixture recovers to the writing
// build's dump, and its WAL cut at every byte recovers to a committed
// prefix — the snapshot plus the first k logged operations.
func TestReplayLegacyOpAddWAL(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(legacyOpAddDir, "dump.nt"))
	if err != nil {
		t.Fatal(err)
	}
	db, info := mustOpen(t, legacyOpAddFS(t), Options{})
	got := dumpStore(t, db.Store())
	db.Close()
	if info.Fallback || info.Generation != 1 || info.TruncatedWALs != 0 {
		t.Fatalf("recovery info %+v, want generation 1, no fallback, no truncation", info)
	}
	if got != string(want) {
		t.Fatalf("recovered dump differs from the writing build's dump:\n%s", got)
	}

	fs := legacyOpAddFS(t)
	st, _, err := store.RestoreSnapshotBytes(fs.files[snapName(1)])
	if err != nil {
		t.Fatal(err)
	}
	prefixes := []string{dumpStore(t, st)}
	for _, op := range legacyOpAddOps(t) {
		if err := st.AddAll(op); err != nil {
			t.Fatal(err)
		}
		prefixes = append(prefixes, dumpStore(t, st))
	}
	if prefixes[len(prefixes)-1] != string(want) {
		t.Fatal("ops.nt applied to the snapshot does not reach dump.nt")
	}

	wal := fs.files[walName(1)]
	for n := 0; n <= len(wal); n++ {
		fs := legacyOpAddFS(t)
		fs.files[walName(1)] = wal[:n]
		db, _ := mustOpen(t, fs, Options{})
		got := dumpStore(t, db.Store())
		db.Close()
		if !contains(prefixes, got) {
			t.Fatalf("WAL cut at byte %d of %d recovers to no committed prefix:\n%s", n, len(wal), got)
		}
	}
}

// FuzzReplayWAL feeds arbitrary record bytes after the WAL magic to
// replayWAL. Replay must not panic, goodBytes must lie within the
// file, and replaying only data[:goodBytes] must rebuild the same store,
// count the same triples and keep every byte: goodBytes is the
// committed prefix recovery truncates to.
func FuzzReplayWAL(f *testing.F) {
	legacy, err := os.ReadFile(filepath.Join(legacyOpAddDir, walName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy[len(walMagic):])
	mem := NewMemFS()
	w, err := createWAL(mem, walName(0))
	if err != nil {
		f.Fatal(err)
	}
	if err := w.appendBatch(batch("seed", 3)); err != nil {
		f.Fatal(err)
	}
	f.Add(mem.files[walName(0)][len(walMagic):])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		replay := func(data []byte) (walReplay, string) {
			fs := NewMemFS()
			fs.files[walName(0)] = data
			s := store.New()
			rep, err := replayWAL(fs, walName(0), s)
			if err != nil {
				t.Fatal(err)
			}
			return rep, dumpStore(t, s)
		}
		data := append([]byte(walMagic), body...)
		rep, dump := replay(data)
		if rep.goodBytes < int64(len(walMagic)) || rep.goodBytes > int64(len(data)) {
			t.Fatalf("goodBytes %d outside [%d, %d]", rep.goodBytes, len(walMagic), len(data))
		}
		rep2, dump2 := replay(data[:rep.goodBytes])
		if dump2 != dump || rep2.triples != rep.triples {
			t.Fatalf("prefix replay: %d triples, dump\n%s\nwant %d triples, dump\n%s", rep2.triples, dump2, rep.triples, dump)
		}
		if rep2.goodBytes != rep.goodBytes {
			t.Fatalf("prefix replay keeps %d of its %d bytes", rep2.goodBytes, rep.goodBytes)
		}
	})
}
