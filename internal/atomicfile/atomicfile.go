// Package atomicfile writes files so that no reader, and no concurrent
// writer, ever sees a partial one, and seals derived files so that a
// reader notices any byte that changed after the write.
package atomicfile

import (
	"errors"
	"fmt"
	"hash/fnv"
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

// A sealed file ends in its seal, sealLen bytes over every byte before
// it: sealMarker, their fnv64a as 16 lowercase hex digits and a newline.
// The '#' makes it a comment line in the text formats.
const (
	sealMarker = "#SUM fnv64a "
	sealLen    = len(sealMarker) + 16 + 1
)

// ErrCorrupt marks a file that fails its seal, as any flipped byte and
// any truncation of a sealed file does.
var ErrCorrupt = errors.New("broken seal")

// seal returns the seal of bytes whose fnv64a is sum.
func seal(sum uint64) string { return fmt.Sprintf("%s%016x\n", sealMarker, sum) }

// Seal writes the bytes write produces to w, hashing them as they
// stream, and ends them with their seal.
func Seal(w io.Writer, write func(io.Writer) error) error {
	h := fnv.New64a()
	if err := write(io.MultiWriter(w, h)); err != nil {
		return err
	}
	_, err := io.WriteString(w, seal(h.Sum64()))
	return err
}

// WriteSealed is Write of the sealed bytes write produces.
func WriteSealed(path string, write func(io.Writer) error) error {
	return Write(path, func(w io.Writer) error { return Seal(w, write) })
}

// ReadSealed reads path and returns its bytes before the seal, which
// must be its last sealLen bytes and match them, or else the error wraps
// ErrCorrupt. A read error is returned as it is (a missing file's wraps
// fs.ErrNotExist).
func ReadSealed(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	body, err := unseal(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return body, nil
}

// unseal verifies the seal that ends data and returns the bytes before
// it.
func unseal(data []byte) ([]byte, error) {
	if len(data) < sealLen {
		return nil, fmt.Errorf("%w: %d bytes, shorter than a seal", ErrCorrupt, len(data))
	}
	body, got := data[:len(data)-sealLen], data[len(data)-sealLen:]
	h := fnv.New64a()
	h.Write(body)
	if want := seal(h.Sum64()); string(got) != want {
		return nil, fmt.Errorf("%w: the file ends in %q, its bytes hash to %q", ErrCorrupt, got, want)
	}
	return body, nil
}
