// Package atomicfile writes files so that no reader, and no concurrent
// writer, ever sees a partial one.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write creates path's directory if needed and writes path through
// write: into a unique temp file "<name>.tmp*" beside it, closed and then
// renamed over path. Concurrent writers of one path (goroutines or
// processes sharing a directory) never clobber each other's half-written
// data, and on every error — from write, the close or the rename — the
// temp file is removed and path is left as it was.
func Write(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = f.Chmod(0o644)
	if err == nil {
		err = write(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
