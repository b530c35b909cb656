package persist

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// MemFS is an in-memory FS for tests: deterministic, fast, and the
// substrate FaultFS wraps to inject failures at exact byte offsets.
type MemFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string][]byte)}
}

type memFile struct {
	fs   *MemFS
	name string
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	b, ok := f.fs.files[f.name]
	if !ok {
		return 0, fmt.Errorf("persist: memfs: write to removed file %s", f.name)
	}
	f.fs.files[f.name] = append(b, p...)
	return len(p), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

func (fs *MemFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[name] = []byte{}
	return &memFile{fs: fs, name: name}, nil
}

func (fs *MemFS) Append(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return nil, fmt.Errorf("persist: memfs: append to missing file %s", name)
	}
	return &memFile{fs: fs, name: name}, nil
}

func (fs *MemFS) Open(name string) (io.ReadCloser, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	b, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("persist: memfs: open missing file %s", name)
	}
	return io.NopCloser(newByteReader(append([]byte(nil), b...))), nil
}

func (fs *MemFS) Rename(oldName, newName string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	b, ok := fs.files[oldName]
	if !ok {
		return fmt.Errorf("persist: memfs: rename missing file %s", oldName)
	}
	fs.files[newName] = b
	delete(fs.files, oldName)
	return nil
}

func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("persist: memfs: remove missing file %s", name)
	}
	delete(fs.files, name)
	return nil
}

func (fs *MemFS) Truncate(name string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	b, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("persist: memfs: truncate missing file %s", name)
	}
	if int64(len(b)) < size {
		return fmt.Errorf("persist: memfs: truncate %s beyond length", name)
	}
	fs.files[name] = b[:size]
	return nil
}

func (fs *MemFS) List() ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.files))
	for name := range fs.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func (fs *MemFS) SyncDir() error { return nil }

type byteReader struct {
	b   []byte
	off int
}

func newByteReader(b []byte) *byteReader { return &byteReader{b: b} }

func (r *byteReader) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

// FaultMode selects how FaultFS misbehaves once the fault offset is
// reached.
type FaultMode int

const (
	// FaultNone injects nothing; the wrapper is transparent.
	FaultNone FaultMode = iota
	// FaultError fails the write that reaches the offset without
	// persisting any of its bytes, and every subsequent operation —
	// a clean I/O failure (ENOSPC, pulled disk) followed by a crash.
	FaultError
	// FaultTorn persists the bytes of the triggering write up to the
	// offset, then fails it and every subsequent operation — a torn
	// page: the record made it partway to the platter.
	FaultTorn
	// FaultBitFlip flips one bit of the byte at the offset and
	// otherwise continues normally — silent media corruption that only
	// checksums can catch.
	FaultBitFlip
	// FaultOnce fails the write that reaches the offset without
	// persisting any of its bytes, then lets every later operation
	// succeed — a transient I/O error the process lives through.
	FaultOnce
)

func (m FaultMode) String() string {
	switch m {
	case FaultNone:
		return "none"
	case FaultError:
		return "error"
	case FaultTorn:
		return "torn"
	case FaultBitFlip:
		return "bitflip"
	case FaultOnce:
		return "once"
	}
	return fmt.Sprintf("FaultMode(%d)", int(m))
}

// errFaultInjected marks the injected failure so tests can tell it from
// genuine bugs.
var errFaultInjected = fmt.Errorf("persist: injected fault")

// FaultFS wraps an FS and injects one fault when the cumulative number
// of bytes written through it (across all files, in operation order)
// reaches Offset. After an Error or Torn fault trips, every subsequent
// mutating operation fails too — the process is considered dead from
// that byte onward, which is exactly the crash model the recovery
// property test replays.
type FaultFS struct {
	inner FS
	mode  FaultMode
	// offset is the global written-byte index at which the fault fires.
	offset int64
	// bit selects which bit FaultBitFlip flips.
	bit uint

	mu      sync.Mutex
	written int64
	tripped bool
}

// NewFaultFS wraps inner with a fault of the given mode at the given
// cumulative write offset. bit selects the flipped bit for
// FaultBitFlip (taken modulo 8).
func NewFaultFS(inner FS, mode FaultMode, offset int64, bit uint) *FaultFS {
	return &FaultFS{inner: inner, mode: mode, offset: offset, bit: bit % 8}
}

// dead reports whether mutating operations should fail outright.
func (fs *FaultFS) dead() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.tripped && (fs.mode == FaultError || fs.mode == FaultTorn)
}

type faultFile struct {
	fs    *FaultFS
	inner File
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	if f.fs.tripped && (f.fs.mode == FaultError || f.fs.mode == FaultTorn) {
		f.fs.mu.Unlock()
		return 0, errFaultInjected
	}
	start := f.fs.written
	end := start + int64(len(p))
	fires := f.fs.mode != FaultNone && !f.fs.tripped && f.fs.offset >= start && f.fs.offset < end
	if !fires {
		f.fs.written = end
		f.fs.mu.Unlock()
		return f.inner.Write(p)
	}
	f.fs.tripped = true
	k := int(f.fs.offset - start)
	switch f.fs.mode {
	case FaultError, FaultOnce:
		// The op fails cleanly: none of its bytes reach the platter.
		f.fs.mu.Unlock()
		return 0, errFaultInjected
	case FaultTorn:
		f.fs.written = f.fs.offset
		f.fs.mu.Unlock()
		if k > 0 {
			f.inner.Write(p[:k]) //nolint:errcheck — already failing
		}
		return k, errFaultInjected
	default: // FaultBitFlip
		f.fs.written = end
		bit := f.fs.bit
		f.fs.mu.Unlock()
		q := append([]byte(nil), p...)
		q[k] ^= 1 << bit
		return f.inner.Write(q)
	}
}

func (f *faultFile) Sync() error {
	if f.fs.dead() {
		return errFaultInjected
	}
	return f.inner.Sync()
}

func (f *faultFile) Close() error {
	if f.fs.dead() {
		return errFaultInjected
	}
	return f.inner.Close()
}

func (fs *FaultFS) Create(name string) (File, error) {
	if fs.dead() {
		return nil, errFaultInjected
	}
	f, err := fs.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: fs, inner: f}, nil
}

func (fs *FaultFS) Append(name string) (File, error) {
	if fs.dead() {
		return nil, errFaultInjected
	}
	f, err := fs.inner.Append(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: fs, inner: f}, nil
}

func (fs *FaultFS) Open(name string) (io.ReadCloser, error) {
	// Reads stay live: recovery reads the post-crash state.
	return fs.inner.Open(name)
}

func (fs *FaultFS) Rename(oldName, newName string) error {
	if fs.dead() {
		return errFaultInjected
	}
	return fs.inner.Rename(oldName, newName)
}

func (fs *FaultFS) Remove(name string) error {
	if fs.dead() {
		return errFaultInjected
	}
	return fs.inner.Remove(name)
}

func (fs *FaultFS) Truncate(name string, size int64) error {
	if fs.dead() {
		return errFaultInjected
	}
	return fs.inner.Truncate(name, size)
}

func (fs *FaultFS) List() ([]string, error) { return fs.inner.List() }

func (fs *FaultFS) SyncDir() error {
	if fs.dead() {
		return errFaultInjected
	}
	return fs.inner.SyncDir()
}
