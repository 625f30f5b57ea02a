//go:build !(darwin || dragonfly || freebsd || linux || netbsd || openbsd)

package store

import "os"

// lockDir is a no-op where the syscall package has no flock (Windows,
// Plan 9, AIX, Solaris, js and wasip1): nothing stops a second Store
// from opening the same directory there, so callers must not.
func lockDir(string) (*os.File, error) { return nil, nil }
