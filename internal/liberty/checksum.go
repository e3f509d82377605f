package liberty

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
)

// sumMarker introduces the trailing integrity line of a summed .alib
// file: "#SUM fnv64a <16 hex digits>\n", covering every byte that
// precedes the line. The marker is a comment, so parsers that predate
// the checksum (and Parse itself) skip it unchanged, and files without
// the line still parse; char's cache loader, though, requires it.
const sumMarker = "#SUM fnv64a "

// WriteSummed serializes the library exactly like Write and appends the
// trailing checksum line. While the marker survives, VerifySummed
// detects any later bit flip of the summed region or of the digest and
// any truncation inside the checksum line. A truncation that removes
// the marker, or a flip inside it, leaves a file VerifySummed reports
// as unsummed: a loader that knows its files were summed must treat
// that as corruption too, as char.VerifyCacheFile does.
func WriteSummed(w io.Writer, l *Library) error {
	h := fnv.New64a()
	if err := Write(io.MultiWriter(w, h), l); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s%016x\n", sumMarker, h.Sum64())
	return err
}

// VerifySummed checks the trailing checksum of a serialized library.
// summed reports whether the file carries one at all: legacy files
// (written before the checksum existed) return (false, nil), and a
// caller that accepts them falls back to the parser's structural
// ENDLIB/bounds checks. A present-but-wrong checksum — truncation
// inside the line, a corrupted digest, or data bytes that no longer
// hash to it — returns a non-nil error.
func VerifySummed(data []byte) (summed bool, err error) {
	i := bytes.LastIndex(data, []byte("\n"+sumMarker))
	if i < 0 {
		return false, nil
	}
	region, line := data[:i+1], data[i+1:]
	line = bytes.TrimRight(line, "\n")
	hexDigits := string(line[len(sumMarker):])
	want, perr := strconv.ParseUint(hexDigits, 16, 64)
	if perr != nil || len(hexDigits) != 16 {
		return true, fmt.Errorf("liberty: malformed checksum line %q", line)
	}
	h := fnv.New64a()
	h.Write(region)
	if got := h.Sum64(); got != want {
		return true, fmt.Errorf("liberty: checksum mismatch: file says %016x, data hashes to %016x", want, got)
	}
	return true, nil
}
