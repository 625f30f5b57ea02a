//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// lockDir takes an exclusive, non-blocking flock on dir's lock file and
// returns the open file that holds it; closing the file releases it.
// flock locks belong to the open file, so a second Open of the same
// directory fails whether it comes from this process or another, and
// the kernel drops the lock when the holder dies, so a killed server
// never leaves its directory locked.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockFileName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("store: %s is already open in another store", dir)
		}
		return nil, fmt.Errorf("store: lock %s: %w", dir, err)
	}
	return f, nil
}
