package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"sapphire/internal/store"
)

// legacyOpAddDir is a data directory written by an earlier build whose
// DB.Add logged each single triple as a record of op 1: generation 1's
// snapshot, then a WAL whose first record, at byte 8, is such a record.
// This build logs every write as a batch and decodes no op-1 record.
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
		b, err := os.ReadFile(filepath.Join(legacyOpAddDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fs.files[e.Name()] = b
	}
	return fs
}

// undecodableWAL returns a WAL holding a committed batch, then a record
// of op 9 whose frame passes its length and CRC checks, then a second
// committed batch, and the op-9 record's offset.
func undecodableWAL(t testing.TB) ([]byte, int64) {
	t.Helper()
	mem := NewMemFS()
	w, err := createWAL(mem, walName(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.appendBatch(batch("before", 3)); err != nil {
		t.Fatal(err)
	}
	off := w.size
	if err := w.appendRecord([]byte{9, 'x'}); err != nil {
		t.Fatal(err)
	}
	if err := w.appendBatch(batch("after", 3)); err != nil {
		t.Fatal(err)
	}
	return mem.files[walName(0)], off
}

// memFiles copies every file of fs.
func memFiles(fs *MemFS) map[string][]byte {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make(map[string][]byte, len(fs.files))
	for name, b := range fs.files {
		out[name] = bytes.Clone(b)
	}
	return out
}

// TestOpenRejectsUndecodableWALRecord pins what recovery does with a
// WAL record whose frame passes its length and CRC checks but that this
// build cannot decode: the record is intact, not a torn tail, so
// truncating it would drop acknowledged writes without an error. Open
// must fail instead, naming the WAL and the record's offset, and leave
// every file byte-identical.
func TestOpenRejectsUndecodableWALRecord(t *testing.T) {
	synthetic := NewMemFS()
	data, off := undecodableWAL(t)
	synthetic.files[walName(0)] = data
	// A torn WAL replayed before it: its tail is cut only once every
	// WAL has replayed, so it too must keep its bytes.
	tornFirst := NewMemFS()
	tornFirst.files[walName(0)] = append(bytes.Clone(data[:off]), 0xDE, 0xAD)
	tornFirst.files[walName(1)] = data
	for _, c := range []struct {
		name string
		fs   *MemFS
		wal  string
		off  int64
	}{
		{"legacy-opadd", legacyOpAddFS(t), walName(1), 8},
		{"op 9", synthetic, walName(0), off},
		{"op 9 after a torn WAL", tornFirst, walName(1), off},
	} {
		before := memFiles(c.fs)
		db, info, err := Open("", Options{FS: c.fs})
		if err == nil {
			db.Close()
			t.Errorf("%s: Open recovered %d triples past an intact WAL record it cannot decode (%d WALs truncated)", c.name, info.Triples, info.TruncatedWALs)
			continue
		}
		want := fmt.Sprintf("%s record at byte %d", c.wal, c.off)
		if !errors.Is(err, errUndecodable) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not wrap %q and name %q", c.name, err, errUndecodable, want)
		}
		if !maps.EqualFunc(memFiles(c.fs), before, bytes.Equal) {
			t.Errorf("%s: Open changed a file", c.name)
		}
	}
}

// FuzzReplayWAL feeds arbitrary record bytes after the WAL magic to
// replayWAL. Replay must not panic, and it may fail only with
// errUndecodable, at an offset that starts a frame passing its length
// and CRC checks; the bytes before that offset must then replay
// cleanly, and those bytes are what the checks below see. goodBytes
// must lie within the file, and replaying only data[:goodBytes] must
// rebuild the same store, count the same triples and keep every byte:
// goodBytes is the committed prefix recovery truncates to.
func FuzzReplayWAL(f *testing.F) {
	legacy, err := os.ReadFile(filepath.Join(legacyOpAddDir, walName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy[len(walMagic):])
	op9, _ := undecodableWAL(f)
	f.Add(op9[len(walMagic):])
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
		replay := func(data []byte) (walReplay, string, error) {
			fs := NewMemFS()
			fs.files[walName(0)] = data
			s := store.New()
			rep, err := replayWAL(fs, walName(0), s)
			return rep, dumpStore(t, s), err
		}
		data := append([]byte(walMagic), body...)
		rep, dump, err := replay(data)
		if err != nil {
			if !errors.Is(err, errUndecodable) {
				t.Fatal(err)
			}
			m := regexp.MustCompile(`record at byte (\d+) `).FindStringSubmatch(err.Error())
			if m == nil {
				t.Fatalf("error %q names no record offset", err)
			}
			off, _ := strconv.ParseInt(m[1], 10, 64)
			if off < int64(len(walMagic)) || off > int64(len(data))-8 {
				t.Fatalf("undecodable record at %d outside [%d, %d]", off, len(walMagic), len(data)-8)
			}
			plen := int64(binary.LittleEndian.Uint32(data[off:]))
			if plen == 0 || plen > walMaxRecord || plen > int64(len(data))-off-8 ||
				crc32.Checksum(data[off+8:off+8+plen], castagnoli) != binary.LittleEndian.Uint32(data[off+4:]) {
				t.Fatalf("undecodable record at %d fails its frame checks: %v", off, err)
			}
			data = data[:off]
			if rep, dump, err = replay(data); err != nil {
				t.Fatalf("bytes before the undecodable record at %d: %v", off, err)
			}
		}
		if rep.goodBytes < int64(len(walMagic)) || rep.goodBytes > int64(len(data)) {
			t.Fatalf("goodBytes %d outside [%d, %d]", rep.goodBytes, len(walMagic), len(data))
		}
		rep2, dump2, err := replay(data[:rep.goodBytes])
		if err != nil {
			t.Fatal(err)
		}
		if dump2 != dump || rep2.triples != rep.triples {
			t.Fatalf("prefix replay: %d triples, dump\n%s\nwant %d triples, dump\n%s", rep2.triples, dump2, rep.triples, dump)
		}
		if rep2.goodBytes != rep.goodBytes {
			t.Fatalf("prefix replay keeps %d of its %d bytes", rep2.goodBytes, rep.goodBytes)
		}
	})
}
