package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteCreatesFileAndDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "out.txt")
	if err := Write(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back %q, %v", got, err)
	}
	left, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*.tmp*"))
	if len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

// TestWriteFailureLeavesNothing: a write that fails part-way leaves
// neither the file nor a temp file, and an existing file keeps its old
// contents.
func TestWriteFailureLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("boom")
	fail := func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	}
	fresh := filepath.Join(dir, "fresh.alib")
	if err := Write(fresh, fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := os.Stat(fresh); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed write left %s behind (stat err %v)", fresh, err)
	}

	old := filepath.Join(dir, "old.alib")
	if err := os.WriteFile(old, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Write(old, fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if got, _ := os.ReadFile(old); string(got) != "old" {
		t.Errorf("failed write changed the existing file to %q", got)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "old.alib" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory holds %v, want only old.alib", names)
	}
}
