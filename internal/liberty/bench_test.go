package liberty

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkRead parses a daemon-size library (daemonSizeLibrary: 68
// cells, 7×7 tables, about 0.8 MB summed) with the line-scanner
// reference and with Parse. The library is written to a temporary file
// and read back once, so both sub-benchmarks time the parse alone;
// char's BenchmarkVerifyCacheFile times the whole cache load.
//
// Run with go test ./internal/liberty/ -run XXX -bench Read -benchtime 2s.
func BenchmarkRead(b *testing.B) {
	path := filepath.Join(b.TempDir(), "daemon.alib")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := WriteSummed(f, daemonSizeLibrary()); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			if _, err := readReference(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bytes", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			if _, err := Parse(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
