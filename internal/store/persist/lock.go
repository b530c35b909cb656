//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// lockDir takes an exclusive, non-blocking flock on dir's empty LOCK
// file, so that a second process opening the data directory fails with
// ErrLocked before recovery lists or removes anything in it. Closing
// the returned file releases the lock; so does the process exiting.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: opening lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		_ = f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
		}
		return nil, fmt.Errorf("persist: locking %s: %w", dir, err)
	}
	return f, nil
}
