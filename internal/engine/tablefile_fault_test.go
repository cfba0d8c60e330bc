package engine

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"coopscan/internal/colstore/compress"
)

// mutatedCopy writes a mutated copy of tf's bytes into a fresh temp file and
// returns its path. mutate may also shrink or grow the byte slice.
func mutatedCopy(t *testing.T, tf *TableFile, mutate func(raw []byte) []byte) string {
	t.Helper()
	raw, err := os.ReadFile(tf.Path())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mutated.tbl")
	if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenTypedErrors pins Open's strict validation: every way a file can be
// torn, truncated, foreign or stale surfaces as its typed error, never a
// panic or a silently short table.
func TestOpenTypedErrors(t *testing.T) {
	tf := newTestFile(t, 4_000, 500, 21)
	cases := []struct {
		name   string
		mutate func(raw []byte) []byte
		want   error
	}{
		{"torn header", func(raw []byte) []byte { return raw[:headerBytes/2] }, ErrTruncated},
		{"truncated checksum table", func(raw []byte) []byte { return raw[:headerBytes+8] }, ErrTruncated},
		{"truncated data", func(raw []byte) []byte { return raw[:len(raw)-1] }, ErrTruncated},
		{"zero filled", func(raw []byte) []byte { return make([]byte, len(raw)) }, ErrBadMagic},
		{"foreign magic", func(raw []byte) []byte {
			binary.LittleEndian.PutUint64(raw[0:], 0xDEADBEEF)
			return raw
		}, ErrBadMagic},
		{"stale version", func(raw []byte) []byte {
			binary.LittleEndian.PutUint64(raw[8:], tableVersion-1)
			return raw
		}, ErrBadVersion},
		{"future version", func(raw []byte) []byte {
			binary.LittleEndian.PutUint64(raw[8:], tableVersion+1)
			return raw
		}, ErrBadVersion},
		{"non-identity scheme on NSM", func(raw []byte) []byte {
			// Compression is DSM-only: an NSM file whose scheme table names
			// a codec is a geometry contradiction, not a readable table.
			raw[headerBytes+tf.NumPages()*8+ColShipDate] = byte(compress.PFOR)
			return raw
		}, ErrBadGeometry},
		{"row count beyond the file", func(raw []byte) []byte {
			// 2^40 one-tuple chunks would need terabytes of directories;
			// Open must refuse before sizing anything from the header.
			binary.LittleEndian.PutUint64(raw[16:], 1<<40)
			binary.LittleEndian.PutUint64(raw[24:], 1)
			return raw
		}, ErrTruncated},
		{"chunk size overflow", func(raw []byte) []byte {
			binary.LittleEndian.PutUint64(raw[24:], 1<<62)
			return raw
		}, ErrBadGeometry},
		{"zero rows", func(raw []byte) []byte {
			binary.LittleEndian.PutUint64(raw[16:], 0)
			return raw
		}, ErrBadGeometry},
		{"wrong column count", func(raw []byte) []byte {
			binary.LittleEndian.PutUint64(raw[40:], NumCols+1)
			return raw
		}, ErrBadGeometry},
		{"unknown format", func(raw []byte) []byte {
			binary.LittleEndian.PutUint64(raw[48:], 7)
			return raw
		}, ErrBadGeometry},
		{"trailing garbage", func(raw []byte) []byte { return append(raw, 0, 0, 0, 0, 0, 0, 0, 0) }, ErrBadGeometry},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := mutatedCopy(t, tf, tc.mutate)
			got, err := Open(path)
			if err == nil {
				got.Close()
				t.Fatalf("Open accepted a %s file", tc.name)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Open error = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestReadPageChecksumMismatch flips one data byte on disk and verifies the
// read of exactly that page fails with ErrChecksum — tagged with the right
// page via PageError — while every other page still reads cleanly.
func TestReadPageChecksumMismatch(t *testing.T) {
	for _, format := range []Format{NSM, DSM} {
		t.Run(format.String(), func(t *testing.T) {
			tf := newTestFileFormat(t, format, 4_000, 500, 33)
			const chunk, col = 2, 1
			badPage, _ := tf.PartPages(chunk, partColFor(format, col))
			if format == NSM {
				badPage += col
			}
			off, _ := tf.PartFileRange(chunk, partColFor(format, col))
			path := mutatedCopy(t, tf, func(raw []byte) []byte {
				if format == NSM {
					// Aim inside stripe `col` of the chunk's run.
					for j := 0; j < col; j++ {
						off += tf.ColStripeBytes(j)
					}
				}
				raw[off+5] ^= 0x01
				return raw
			})
			re, err := Open(path)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer re.Close()
			buf := make([]byte, re.PageBytes(badPage))
			err = re.ReadPage(badPage, buf)
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("corrupt page read error = %v, want ErrChecksum", err)
			}
			var pe *PageError
			if !errors.As(err, &pe) || pe.Page != badPage {
				t.Fatalf("error %v not tagged with page %d", err, badPage)
			}
			if c, _ := re.PagePart(pe.Page); c != chunk {
				t.Fatalf("PagePart(%d) chunk = %d, want %d", pe.Page, c, chunk)
			}
			for p := int64(0); p < re.NumPages(); p++ {
				if p == badPage {
					continue
				}
				b := make([]byte, re.PageBytes(p))
				if err := re.ReadPage(p, b); err != nil {
					t.Fatalf("clean page %d failed: %v", p, err)
				}
			}
		})
	}
}

// TestChecksumTableCorruption verifies a flipped byte in the checksum table
// itself also fails the affected page with ErrChecksum: the page data is
// fine, but its provenance cannot be trusted.
func TestChecksumTableCorruption(t *testing.T) {
	tf := newTestFileFormat(t, DSM, 4_000, 500, 17)
	const badPage = 3
	path := mutatedCopy(t, tf, func(raw []byte) []byte {
		raw[headerBytes+badPage*8] ^= 0xFF
		return raw
	})
	re, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	buf := make([]byte, re.PageBytes(badPage))
	if err := re.ReadPage(badPage, buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("read under corrupt checksum entry = %v, want ErrChecksum", err)
	}
}
