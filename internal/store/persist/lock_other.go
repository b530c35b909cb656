//go:build !(darwin || dragonfly || freebsd || linux || netbsd || openbsd)

package persist

import "os"

// lockDir does nothing where syscall.Flock is missing: two processes
// can open one data directory there.
func lockDir(string) (*os.File, error) { return nil, nil }
