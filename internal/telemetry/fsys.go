package telemetry

import (
	"errors"
	"io"
	"os"
)

// fsys is every filesystem call the WAL, snapshots and recovery make: the
// one seam their durability is tested through. Production passes osFS; the
// package's tests pass an in-memory disk that can fail a write or lose, at
// a power cut, whatever was not fsynced.
type fsys interface {
	Mkdir(dir string) error                       // one level: os.ErrNotExist without the parent
	OpenFile(path string, flag int) (file, error) // os.OpenFile's flags, mode 0644
	Open(path string) (io.ReadCloser, error)
	ReadFile(path string) ([]byte, error)
	ReadDir(dir string) ([]os.DirEntry, error)
	Rename(from, to string) error
	Remove(path string) error
	Truncate(path string, size int64) error
	// SyncDir fsyncs a directory, making the entries created, renamed or
	// removed in it durable: a power loss may undo any that it did not.
	SyncDir(dir string) error
}

// file is a file opened for writing through fsys.
type file interface {
	io.Writer
	Sync() error
	Close() error
}

// osFS is fsys on the real filesystem. A failed open returns an interface
// holding a nil *os.File: callers test the error first.
type osFS struct{}

func (osFS) Mkdir(dir string) error                       { return os.Mkdir(dir, 0o755) }
func (osFS) OpenFile(path string, flag int) (file, error) { return os.OpenFile(path, flag, 0o644) }
func (osFS) Open(path string) (io.ReadCloser, error)      { return os.Open(path) }
func (osFS) ReadFile(path string) ([]byte, error)         { return os.ReadFile(path) }
func (osFS) Rename(from, to string) error                 { return os.Rename(from, to) }
func (osFS) Remove(path string) error                     { return os.Remove(path) }
func (osFS) Truncate(path string, size int64) error       { return os.Truncate(path, size) }
func (osFS) ReadDir(dir string) ([]os.DirEntry, error)    { return os.ReadDir(dir) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = errors.Join(d.Sync(), d.Close())
	}
	return err
}
