// Package persist adds durability to the in-memory triple store:
// epoch-stamped checksummed snapshots, a write-ahead log for online
// mutations between snapshots, and crash recovery that restores the
// newest valid snapshot and replays the WAL to its last intact record.
//
// The package talks to disk exclusively through the FS interface so the
// crash tests can interpose FaultFS, a fault-injecting filesystem that
// fails, tears, or bit-flips writes at a seeded byte offset — the
// durable layer is validated by actually crashing it at every write
// boundary, not by reasoning about fsync ordering on faith.
package persist

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is the writable-file surface the durable layer needs.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS abstracts a single flat directory holding the store's durable
// state. All names are relative to that directory; implementations
// never interpret them as paths.
type FS interface {
	// Create opens name truncated to zero length.
	Create(name string) (File, error)
	// Append opens an existing name for appending.
	Append(name string) (File, error)
	// Open opens name for reading.
	Open(name string) (io.ReadCloser, error)
	Rename(oldName, newName string) error
	Remove(name string) error
	// Truncate shortens name to size bytes (torn-tail removal).
	Truncate(name string, size int64) error
	// List returns the names in the directory, sorted.
	List() ([]string, error)
	// SyncDir flushes directory entries (creates and renames) so they
	// survive a crash.
	SyncDir() error
}

// osFS is the production FS: a real directory on the local filesystem.
type osFS struct {
	dir string
}

// NewOSFS returns an FS rooted at dir, creating it if needed.
func NewOSFS(dir string) (FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating %s: %w", dir, err)
	}
	return &osFS{dir: dir}, nil
}

func (fs *osFS) path(name string) string { return filepath.Join(fs.dir, name) }

func (fs *osFS) Create(name string) (File, error) {
	return os.OpenFile(fs.path(name), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (fs *osFS) Append(name string) (File, error) {
	return os.OpenFile(fs.path(name), os.O_WRONLY|os.O_APPEND, 0o644)
}

func (fs *osFS) Open(name string) (io.ReadCloser, error) {
	return os.Open(fs.path(name))
}

func (fs *osFS) Rename(oldName, newName string) error {
	return os.Rename(fs.path(oldName), fs.path(newName))
}

func (fs *osFS) Remove(name string) error { return os.Remove(fs.path(name)) }

func (fs *osFS) Truncate(name string, size int64) error {
	return os.Truncate(fs.path(name), size)
}

func (fs *osFS) List() ([]string, error) {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (fs *osFS) SyncDir() error {
	d, err := os.Open(fs.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// readAll opens and fully reads name, folding the read-side Close
// error into the result: even on a read handle a failing close can be
// the first sign of an I/O problem, and recovery decisions should see
// it rather than act on silently suspect bytes.
func readAll(fs FS, name string) ([]byte, error) {
	rc, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(rc)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	return data, err
}
