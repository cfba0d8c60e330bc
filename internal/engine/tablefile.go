// Package engine is the live cooperative-scan runtime: it executes the
// paper's Cooperative Scans over real chunked table files on disk, in
// wall-clock time.
//
// Where internal/core runs the policies inside a discrete-event simulator,
// the engine drives the *same* Active Buffer Manager bookkeeping and the
// *same* policy decision core (core.SchedulerPolicy — Normal, Attach,
// Elevator and Relevance) over real bytes: chunk parts live in a page-
// granularity bufferpool.Pool, pinned through bufferpool.ChunkView exactly
// as the paper's §7.1 sketches for layering ABM on an existing RDBMS buffer
// manager, and queries (TPC-H Q6/Q1-style aggregations from internal/exec's
// kernels) compute true results from the file's contents.
//
// # Design notes
//
// Server is the runtime: one goroutine per ScanWith call, one scheduler
// goroutine owning every load and eviction decision across all attached
// tables, and a bounded pool of load workers (ServerConfig.InFlightDepth)
// executing the file reads, so completions commit out of issue order while
// the ABM's part states keep the decision machine coherent. Each table has
// its own live ABM (the paper's §7.1 "separate statistics and meta-data
// for each" table); one shared buffer budget is moved between them by the
// demand-driven arbiter in core.Manager.Rebalance. A single-table engine is
// NewServer over one file. An optional device-bandwidth model
// (ServerConfig.ReadBandwidth) restores the paper's premise — device
// bandwidth as the scarce resource — when the table files sit in the OS
// page cache, where re-reads would otherwise be free.
//
// TableFile (this file) is the storage format, one on-disk version: a
// 64-byte header, the directories (per-page checksums, per-column schemes,
// per-extent lengths and per-chunk zonemap bounds, the paper's §2 chunk
// metadata), then NumChunks × NumCols (chunk, column) extents of
// deterministic tpch-generated data, in one of two physical orders:
//
//   - NSM: chunk-major (PAX-style) — all of chunk 0's stripes, then all of
//     chunk 1's. A chunk is one contiguous region; loading it means loading
//     every column, whatever the query projects.
//   - DSM: column-major (the paper's §5) — all of column 0's extents, then
//     all of column 1's. A (chunk, column) extent is independently
//     addressable, so a query's I/O cost is its projection width.
//
// An extent is the raw stripe (the identity scheme) or, on DSM files made
// by CreateCompressed, the stripe encoded under its column's codec. Either
// way it is read back as one fixed-width buffer-pool page; a
// storage.NSMLayout or chunk-aligned storage.DSMLayout describes the
// geometry, so the ABM schedules over a real file exactly like a simulated
// table.
package engine

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"coopscan/internal/colstore/compress"
	"coopscan/internal/storage"
	"coopscan/internal/tpch"
)

// The live table file stores the lineitem columns the FAST (Q6) and SLOW
// (Q1) queries read, plus the unread padding columns a real lineitem
// carries (orderkey/partkey/suppkey and a comment-sized filler), so the
// projection ratio of a narrow query is realistic: Q6 touches 32 of the
// 112 stored bytes per tuple. Values are 8-byte little-endian words; the
// comment filler is four words per tuple (~the 27-byte average TPC-H
// comment, rounded to whole words).
const (
	ColShipDate = iota
	ColQuantity
	ColExtendedPrice
	ColDiscount
	ColTax
	ColReturnFlag
	ColLineStatus
	ColOrderKey
	ColPartKey
	ColSuppKey
	ColComment
	NumCols
)

// tpchCols maps the file's column order to tpch generator columns; the
// comment filler (-1) is generated by fillerWord instead.
var tpchCols = [NumCols]int{
	tpch.ColShipDate,
	tpch.ColQuantity,
	tpch.ColExtendedPrice,
	tpch.ColDiscount,
	tpch.ColTax,
	tpch.ColReturnFlag,
	tpch.ColLineStatus,
	tpch.ColOrderKey,
	tpch.ColPartKey,
	tpch.ColSuppKey,
	-1,
}

// colNames names the stored columns (for the layout's table metadata).
var colNames = [NumCols]string{
	"l_shipdate", "l_quantity", "l_extendedprice", "l_discount",
	"l_tax", "l_returnflag", "l_linestatus",
	"l_orderkey", "l_partkey", "l_suppkey", "l_comment",
}

// colWidths is the stored width of each column in bytes per tuple.
var colWidths = [NumCols]int64{8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 32}

// ColWidth returns the stored width of a column in bytes per tuple.
func ColWidth(col int) int64 { return colWidths[col] }

// TupleBytes returns the full stored row width (the sum of all column
// widths): the bytes an NSM chunk pays per tuple regardless of projection.
func TupleBytes() int64 {
	var w int64
	for _, cw := range colWidths {
		w += cw
	}
	return w
}

// maxColWidth returns the widest stored column's bytes per tuple.
func maxColWidth() int64 {
	var w int64
	for _, cw := range colWidths {
		if cw > w {
			w = cw
		}
	}
	return w
}

// Format selects the physical organisation of a table file.
type Format int

// The two stored formats.
const (
	// NSM stores chunk-major: a chunk is a contiguous run of all columns'
	// stripes, loaded and evicted as a unit (col = -1 parts).
	NSM Format = iota
	// DSM stores column-major: each column is a contiguous run of chunk
	// stripes, loaded and evicted per (chunk, column) part.
	DSM
)

func (f Format) String() string {
	switch f {
	case NSM:
		return "nsm"
	case DSM:
		return "dsm"
	}
	return fmt.Sprintf("format(%d)", int(f))
}

const (
	tableMagic = uint64(0x434f4f504c495645) // "COOPLIVE"
	// tableVersion is the one on-disk layout: the header, a per-page
	// checksum table, a per-column scheme table, a per-extent length
	// directory and a per-(column, chunk) zonemap footer, then the data.
	// Each (chunk, column) extent is stored under its column's scheme —
	// identity (the raw stripe) or a compress.Scheme, DSM files only.
	// Checksums cover the stored bytes; readers decode at pin time into
	// fixed-width page buffers, so everything downstream of the read path
	// sees the same pages whatever the scheme.
	tableVersion = 4
	headerBytes  = 64
)

// schemeIdentity marks a column whose extents are stored as the raw stripe
// bytes (no codec): the comment filler, and any column where the sampled
// codecs fail to beat raw. It deliberately does not collide with the
// compress.Scheme space.
const schemeIdentity = 0xFF

// schemeTableBytes is the per-column scheme table size, padded to an
// 8-byte boundary so the extent directory after it stays aligned.
const schemeTableBytes = (NumCols + 7) &^ 7

// metaBytesPerChunk is the directory space one chunk takes: per column an
// 8-byte checksum slot, an 8-byte extent length and 16 bytes of zonemap
// bounds.
const metaBytesPerChunk = NumCols * (8 + 8 + 16)

// crcTable is the CRC32-C (Castagnoli) table behind every page checksum.
// CRC32-C is hardware-accelerated on amd64/arm64 (~30 GB/s vs ~2 GB/s for
// the table-driven CRC64), which is what keeps verification invisible next
// to page-cache read speed. Each sum still occupies a fixed 8-byte slot in
// the file's checksum table (zero-extended), so the layout has room for a
// wider checksum without moving the data region.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// pageChecksum is the per-page checksum as stored in the file's table.
func pageChecksum(b []byte) uint64 { return uint64(crc32.Checksum(b, crcTable)) }

// Typed failure modes of opening and reading table files. Open wraps these
// with path context; match with errors.Is.
var (
	// ErrBadMagic: the file is not a table file at all (zero-filled,
	// foreign, or the header itself was torn).
	ErrBadMagic = errors.New("engine: bad table file magic")
	// ErrBadVersion: a table file, but a format version this build does not
	// read.
	ErrBadVersion = errors.New("engine: unsupported table file version")
	// ErrBadGeometry: header fields that cannot describe a real table
	// (non-positive sizes, wrong column count, unknown format, or a file
	// size that disagrees with the header's geometry).
	ErrBadGeometry = errors.New("engine: bad table file geometry")
	// ErrTruncated: the header promises more bytes than the file holds.
	ErrTruncated = errors.New("engine: truncated table file")
	// ErrChecksum: a page's stored checksum does not match its bytes — a torn
	// write, bit-flip, or corrupted read. Loads verify every page before
	// staging it, so corrupt data never reaches a query kernel.
	ErrChecksum = errors.New("engine: page checksum mismatch")
)

// ErrCorrupt re-exports the codec's decode failure: a codec extent whose
// stored bytes passed their CRC but do not decode to exactly one stripe of
// values. Like ErrChecksum it arrives wrapped in a *PageError, so the load
// path quarantines the precise (chunk, column) part instead of delivering
// wrong tuples.
var ErrCorrupt = compress.ErrCorrupt

// PageError records the table-local page a read or verification failed on,
// so the engine's abort path can quarantine exactly the affected
// (chunk, column) part. Extract with errors.As.
type PageError struct {
	Page int64
	Err  error
}

func (e *PageError) Error() string { return e.Err.Error() }
func (e *PageError) Unwrap() error { return e.Err }

// TableFile is a table stored as a real chunked file: a 64-byte header, the
// directories (one CRC32-C per page in an 8-byte slot, per-column schemes,
// per-page extent lengths, per-chunk zonemap bounds), then NumChunks ×
// NumCols column extents in chunk-major (NSM) or column-major (DSM) order.
// Chunk/extent geometry is described by a storage.Layout so the ABM
// schedules over it exactly like a simulated table.
//
// The unit of addressing is the page: one (chunk, column) stripe, which is
// also one buffer-pool page of the live engine. Page p's size and file
// position depend on the format (see PageBytes/PartPages); consecutive page
// indexes are always contiguous in the file, so a run of pages can be read
// with a single positioned read (ReadPageRange).
type TableFile struct {
	f              *os.File
	r              io.ReaderAt // page-read path; WrapReader swaps in fault injection
	path           string
	rows           int64
	tuplesPerChunk int64
	seed           uint64
	format         Format
	layout         storage.Layout
	numChunks      int
	dataOff        int64    // data region start: header + directories
	sums           []uint64 // per-page checksums (page-index order)

	// Extent geometry. schemes holds each column's compress.Scheme byte
	// (schemeIdentity for raw-stored columns); extLen/extOff are the stored
	// length and data-region offset of every page in page-index order
	// (offsets are prefix sums, so consecutive pages stay contiguous and
	// coalesced run reads still work); zones are the persisted per-column
	// chunk bounds (nil for the comment filler).
	schemes [NumCols]byte
	extLen  []int64
	extOff  []int64
	zones   [NumCols]*storage.ZoneMap
	// decScratch pools the per-read stored-byte and decoded-value scratch
	// the read path burns through one of per coalesced run.
	decScratch sync.Pool
}

// decBuf is the pooled per-read scratch of the read path.
type decBuf struct {
	raw  []byte
	vals []int64
}

// WrapReader redirects all page reads through wrap(current reader) — the
// fault-injection seam. The wrapped reader must serve the same file bytes
// (possibly slower, corrupted, or failing); page checksums are verified
// downstream of it, so injected corruption surfaces as ErrChecksum.
func (t *TableFile) WrapReader(wrap func(io.ReaderAt) io.ReaderAt) {
	t.r = wrap(t.r)
}

// Format returns the file's physical organisation.
func (t *TableFile) Format() Format { return t.format }

// ColStripeBytes returns the size of one (chunk, column) stripe — the
// buffer-pool page size of that column.
func (t *TableFile) ColStripeBytes(col int) int64 { return t.tuplesPerChunk * colWidths[col] }

// ChunkBytes returns the on-disk size of one full chunk (all NumCols
// stripes) — the buffer demand of an NSM chunk part.
func (t *TableFile) ChunkBytes() int64 { return t.tuplesPerChunk * TupleBytes() }

// Layout returns the chunk/extent geometry the ABM schedules against: an
// NSMLayout for NSM files, a chunk-aligned DSMLayout for DSM files.
func (t *TableFile) Layout() storage.Layout { return t.layout }

// NumChunks returns the chunk count.
func (t *TableFile) NumChunks() int { return t.numChunks }

// NumPages returns the number of pages (stripes) in the file.
func (t *TableFile) NumPages() int64 { return int64(t.numChunks) * NumCols }

// Rows returns the table's row count.
func (t *TableFile) Rows() int64 { return t.rows }

// TuplesPerChunk returns the rows per (full) chunk.
func (t *TableFile) TuplesPerChunk() int64 { return t.tuplesPerChunk }

// Seed returns the generator seed the file was built from.
func (t *TableFile) Seed() uint64 { return t.seed }

// Path returns the file's path.
func (t *TableFile) Path() string { return t.path }

// Close closes the underlying file.
func (t *TableFile) Close() error { return t.f.Close() }

// pageCol returns the column a page belongs to.
func (t *TableFile) pageCol(p int64) int {
	if t.format == DSM {
		return int(p / int64(t.numChunks))
	}
	return int(p % NumCols)
}

// PageBytes returns the size of page p as the engine buffers it: always the
// decompressed fixed-width stripe, whatever is stored on disk.
func (t *TableFile) PageBytes(p int64) int64 { return t.ColStripeBytes(t.pageCol(p)) }

// StoredPageBytes returns the bytes page p occupies on disk: the encoded
// extent length under a codec, PageBytes for identity columns. This is what
// the device (and the -read-mbps bandwidth model) actually pays per page.
func (t *TableFile) StoredPageBytes(p int64) int64 { return t.extLen[p] }

// StoredRunBytes sums StoredPageBytes over a run of consecutive pages.
func (t *TableFile) StoredRunBytes(first int64, count int) int64 {
	var total int64
	for p := first; p < first+int64(count); p++ {
		total += t.StoredPageBytes(p)
	}
	return total
}

// Compressed reports whether some column's extents are stored under a codec
// rather than as raw stripe bytes.
func (t *TableFile) Compressed() bool {
	for _, s := range t.schemes {
		if s != schemeIdentity {
			return true
		}
	}
	return false
}

// StoredBytes returns the size of the on-disk data region: the sum of every
// stored extent. On raw files this equals NumChunks×ChunkBytes; on
// compressed files it is the footprint the ratio reports compare against
// raw.
func (t *TableFile) StoredBytes() int64 { return t.StoredRunBytes(0, int(t.NumPages())) }

// ColScheme returns the compress.Scheme column col's extents are stored
// under, with ok=false when the column is stored as raw stripe bytes.
func (t *TableFile) ColScheme(col int) (compress.Scheme, bool) {
	if t.schemes[col] == schemeIdentity {
		return 0, false
	}
	return compress.Scheme(t.schemes[col]), true
}

// ZoneMap returns the persisted per-chunk bounds of column col, or nil for
// the comment filler, whose bytes are not ordered values. The returned map
// is shared and must not be mutated.
func (t *TableFile) ZoneMap(col int) *storage.ZoneMap {
	if col < 0 || col >= NumCols {
		return nil
	}
	return t.zones[col]
}

// pageOffset returns page p's position within the data region. Consecutive
// pages are contiguous in both formats (stripes tile the chunk in NSM, the
// column in DSM, and chunks/columns tile the file — and the extent
// directory is built as prefix sums in page order), which is what lets
// ReadPageRange coalesce a run of pages into one positioned read.
func (t *TableFile) pageOffset(p int64) int64 { return t.extOff[p] }

// PartPages returns the page run backing one ABM part: the whole chunk
// (col == -1, NumCols pages) in NSM, one column stripe in DSM.
func (t *TableFile) PartPages(chunk, col int) (first int64, count int) {
	if t.format == DSM {
		if col < 0 || col >= NumCols {
			panic(fmt.Sprintf("engine: DSM part column %d out of range", col))
		}
		return int64(col)*int64(t.numChunks) + int64(chunk), 1
	}
	return int64(chunk) * NumCols, NumCols
}

// PagePart is PartPages' inverse: the ABM part page p belongs to —
// (chunk, col) in DSM, (chunk, -1) in NSM.
func (t *TableFile) PagePart(p int64) (chunk, col int) {
	if t.format == DSM {
		return int(p % int64(t.numChunks)), int(p / int64(t.numChunks))
	}
	return int(p / NumCols), -1
}

// PartFileRange returns the absolute file byte range of one ABM part — the
// seam tests and the CLIs use to aim a persistent fault range at a specific
// (chunk, column) part.
func (t *TableFile) PartFileRange(chunk, col int) (off, size int64) {
	first, count := t.PartPages(chunk, col)
	off = t.dataOff + t.pageOffset(first)
	return off, t.StoredRunBytes(first, count)
}

// ReadPage reads page p into buf, which must be PageBytes(p) long. It is
// safe for concurrent use (ReadAt).
func (t *TableFile) ReadPage(p int64, buf []byte) error {
	return t.ReadPageRange(p, 1, buf)
}

// ReadPageRange reads count consecutive pages starting at page first into
// buf (their summed sizes long) with a single positioned read — the
// coalesced per-extent read of the live load path. Every page's checksum is
// verified against the file's checksum table before the bytes are accepted;
// a mismatch (or a read error) comes back tagged with the failing page as a
// *PageError, so callers can retry or quarantine precisely.
func (t *TableFile) ReadPageRange(first int64, count int, buf []byte) error {
	if first < 0 || count < 0 || first+int64(count) > t.NumPages() {
		return fmt.Errorf("engine: ReadPageRange pages [%d,%d) outside the file's %d", first, first+int64(count), t.NumPages())
	}
	var want int64
	for p := first; p < first+int64(count); p++ {
		want += t.PageBytes(p)
	}
	if int64(len(buf)) != want {
		return fmt.Errorf("engine: ReadPageRange buffer %d bytes, want %d", len(buf), want)
	}
	dst := make([][]byte, count)
	var off int64
	for i := range dst {
		n := t.PageBytes(first + int64(i))
		dst[i] = buf[off : off+n]
		off += n
	}
	return t.readPages(first, dst, nil, nil)
}

// readPages is the one page-range reader behind every table read: one
// positioned read of the stored run starting at page first into pooled
// scratch, then per page a CRC over the stored bytes and a copy (identity
// columns) or a decode (PFOR, PFOR-DELTA, PDICT) into dst[i], which must be
// exactly PageBytes(first+i) long. CRC failures surface as ErrChecksum and post-CRC decode failures as
// ErrCorrupt, both wrapped in a *PageError naming the precise page, so the
// engine retries or quarantines exactly the affected part and a corrupt
// extent can never decode into wrong tuples. When verify or decomp are
// non-nil, the time spent in checksum verification and in the per-page
// copy or decode is added to them.
func (t *TableFile) readPages(first int64, dst [][]byte, verify, decomp *time.Duration) error {
	stored := t.StoredRunBytes(first, len(dst))
	sc, _ := t.decScratch.Get().(*decBuf)
	if sc == nil {
		sc = &decBuf{}
	}
	defer t.decScratch.Put(sc)
	if int64(cap(sc.raw)) < stored {
		sc.raw = make([]byte, stored)
	}
	raw := sc.raw[:stored]
	if _, err := t.r.ReadAt(raw, t.dataOff+t.pageOffset(first)); err != nil {
		return &PageError{Page: first, Err: err}
	}
	var roff int64
	for i, page := range dst {
		p := first + int64(i)
		ext := raw[roff : roff+t.extLen[p]]
		roff += t.extLen[p]
		var vstart time.Time
		if verify != nil {
			vstart = time.Now()
		}
		got := pageChecksum(ext)
		if verify != nil {
			*verify += time.Since(vstart)
		}
		chunk, col := t.PagePart(p)
		if got != t.sums[p] {
			return &PageError{Page: p, Err: fmt.Errorf("engine: %s page %d (chunk %d, col %d): crc %#x, want %#x: %w",
				t.path, p, chunk, col, got, t.sums[p], ErrChecksum)}
		}
		var dstart time.Time
		if decomp != nil {
			dstart = time.Now()
		}
		if t.schemes[t.pageCol(p)] == schemeIdentity {
			copy(page, ext)
		} else {
			vals, err := compress.DecodeIntsInto(sc.vals, ext)
			if err != nil {
				return &PageError{Page: p, Err: fmt.Errorf("engine: %s page %d (chunk %d, col %d): decode: %w",
					t.path, p, chunk, col, err)}
			}
			if cap(vals) > cap(sc.vals) {
				sc.vals = vals
			}
			if int64(len(vals)) != t.tuplesPerChunk {
				return &PageError{Page: p, Err: fmt.Errorf("engine: %s page %d (chunk %d, col %d): decoded %d values, want %d: %w",
					t.path, p, chunk, col, len(vals), t.tuplesPerChunk, ErrCorrupt)}
			}
			for k, v := range vals {
				binary.LittleEndian.PutUint64(page[k*8:], uint64(v))
			}
		}
		if decomp != nil {
			*decomp += time.Since(dstart)
		}
	}
	return nil
}

// tableMeta builds the stored table's metadata: 8-byte int64 columns plus
// the 32-byte comment filler, every width a whole number of bytes so the
// chunk-aligned DSM geometry applies.
func tableMeta(rows int64) *storage.Table {
	cols := make([]storage.Column, NumCols)
	for i := range cols {
		typ := storage.Int64
		if colWidths[i] != 8 {
			typ = storage.String
		}
		cols[i] = storage.Column{Name: colNames[i], Type: typ, BitsPerValue: float64(colWidths[i]) * 8}
	}
	return &storage.Table{Name: "lineitem-live", Columns: cols, Rows: rows}
}

// newLayout builds the scheduling geometry for a stored table. NSM: a chunk
// is one contiguous NumCols-stripe region (col = -1 parts). DSM: a
// chunk-aligned column layout whose page size is the narrow-column stripe,
// so every (chunk, column) extent is a whole number of stripes and chunks
// never share pages.
func newLayout(format Format, rows, tuplesPerChunk int64) storage.Layout {
	table := tableMeta(rows)
	if format == DSM {
		return storage.NewDSMLayoutAligned(table, tuplesPerChunk, tuplesPerChunk*8, 0)
	}
	chunkBytes := tuplesPerChunk * TupleBytes()
	return storage.NewNSMLayoutWidth(table, chunkBytes, 0, float64(TupleBytes()))
}

// fillerWord is the deterministic generator of the comment filler column
// (word k of row row): a SplitMix64-style mix, so DSM files can be verified
// byte-for-byte without a tpch string generator round trip.
func fillerWord(seed uint64, row int64, k int) uint64 {
	z := seed ^ 0x636f6d6d656e7421 + uint64(row)*0x9E3779B97F4A7C15 + uint64(k+1)*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fillStripe renders the stripe of column j, chunk c (n valid tuples) into
// buf, zero-padding the short last chunk.
func fillStripe(gen *tpch.Generator, seed uint64, c int, j int, tpc int64, n int64, vals []int64, buf []byte) {
	start := int64(c) * tpc
	w := colWidths[j]
	if j == ColComment {
		words := int(w / 8)
		for i := int64(0); i < n; i++ {
			for k := 0; k < words; k++ {
				binary.LittleEndian.PutUint64(buf[i*w+int64(k)*8:], fillerWord(seed, start+i, k))
			}
		}
	} else {
		gen.Column(tpchCols[j], start, vals[:n])
		for i := int64(0); i < n; i++ {
			binary.LittleEndian.PutUint64(buf[i*w:], uint64(vals[i]))
		}
	}
	for i := n * w; i < int64(len(buf)); i++ {
		buf[i] = 0
	}
}

// Create generates an NSM (chunk-major) table file of the given row count
// at path: real TPC-H lineitem-like data from the deterministic tpch
// generator, written chunk by chunk. Files are padded to whole chunks
// (trailing rows of the last chunk are zero).
func Create(path string, rows, tuplesPerChunk int64, seed uint64) (*TableFile, error) {
	return CreateFormat(path, NSM, rows, tuplesPerChunk, seed)
}

// CreateFormat is Create with an explicit physical format: chunk-major NSM
// stripes, or column-major DSM extents (each column contiguous, so queries
// read only the columns they project). Every column is stored raw.
func CreateFormat(path string, format Format, rows, tuplesPerChunk int64, seed uint64) (*TableFile, error) {
	return create(path, format, false, rows, tuplesPerChunk, seed)
}

// pickScheme chooses the cheapest codec for one column from a sampled
// stripe of its values, falling back to identity (raw stripe bytes) when no
// codec beats the 8-byte words it would replace — the Figure-9 move: pick
// per-column physical widths from the data, once, at create time.
func pickScheme(sample []int64) byte {
	best, bestLen := byte(schemeIdentity), int(8*len(sample))
	for _, s := range []compress.Scheme{compress.PFOR, compress.PFORDelta, compress.PDict} {
		buf, err := compress.EncodeInts(s, sample)
		if err == nil && len(buf) < bestLen {
			best, bestLen = byte(s), len(buf)
		}
	}
	return best
}

// CreateCompressed generates a compressed DSM table file: the same
// deterministic lineitem-like data as CreateFormat(DSM, ...), but each
// (chunk, column) extent is stored compressed under a per-column scheme
// sampled from the first chunk (the short last chunk's zero padding is
// included in the encoded values, so every extent decodes to exactly one
// fixed-width stripe).
func CreateCompressed(path string, rows, tuplesPerChunk int64, seed uint64) (*TableFile, error) {
	return create(path, DSM, true, rows, tuplesPerChunk, seed)
}

// create is the one table-file writer. It streams every page in page order
// (chunk-major for NSM, column-major for DSM) after zero-filled directories,
// computing each page's stored bytes (the raw stripe, or its encoding under
// the column's scheme when compressed), CRC and length, and each value
// column's per-chunk zonemap bounds over the chunk's valid tuples. The real
// directories are then written in place before the final sync, so a crash
// mid-create can never leave a valid-looking file. On any failure the
// partial file is removed: a truncated table at this path would make every
// later Open fail instead of regenerating.
func create(path string, format Format, compressed bool, rows, tuplesPerChunk int64, seed uint64) (*TableFile, error) {
	if rows <= 0 || tuplesPerChunk <= 0 {
		return nil, fmt.Errorf("engine: Create(rows=%d, tuplesPerChunk=%d)", rows, tuplesPerChunk)
	}
	if format != NSM && format != DSM {
		return nil, fmt.Errorf("engine: Create with unknown format %d", int(format))
	}
	table := tpch.LineitemTable(1)
	table.Rows = rows
	gen := tpch.NewGenerator(table, seed)

	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	abort := func(err error) (*TableFile, error) {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	t := newTableFile(f, path, format, rows, tuplesPerChunk, seed)
	vals := make([]int64, tuplesPerChunk)
	for j := range t.zones {
		if j == ColComment {
			continue
		}
		t.zones[j] = storage.NewZoneMap(t.numChunks)
		if compressed {
			// Sample the first chunk of every value column to fix its scheme.
			n0 := t.layout.ChunkTuples(0)
			gen.Column(tpchCols[j], 0, vals[:n0])
			clear(vals[n0:])
			t.schemes[j] = pickScheme(vals)
		}
	}

	w := bufio.NewWriterSize(f, 1<<20)
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint64(hdr[0:], tableMagic)
	binary.LittleEndian.PutUint64(hdr[8:], tableVersion)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(rows))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(tuplesPerChunk))
	binary.LittleEndian.PutUint64(hdr[32:], seed)
	binary.LittleEndian.PutUint64(hdr[40:], NumCols)
	binary.LittleEndian.PutUint64(hdr[48:], uint64(format))
	if _, err := w.Write(hdr[:]); err != nil {
		return abort(err)
	}
	meta := make([]byte, t.dataOff-headerBytes)
	if _, err := w.Write(meta); err != nil {
		return abort(err)
	}

	stripe := make([]byte, tuplesPerChunk*maxColWidth())
	for p := int64(0); p < t.NumPages(); p++ {
		c, _ := t.PagePart(p)
		j := t.pageCol(p)
		buf := stripe[:t.ColStripeBytes(j)]
		nc := t.layout.ChunkTuples(c)
		fillStripe(gen, seed, c, j, tuplesPerChunk, nc, vals, buf)
		stored := buf
		if j != ColComment {
			lo, hi := vals[0], vals[0]
			for _, v := range vals[1:nc] {
				lo, hi = min(lo, v), max(hi, v)
			}
			t.zones[j].SetBounds(c, lo, hi)
			if t.schemes[j] != schemeIdentity {
				clear(vals[nc:])
				enc, err := compress.EncodeInts(compress.Scheme(t.schemes[j]), vals)
				if err != nil {
					return abort(err)
				}
				stored = enc
			}
		}
		t.sums[p] = pageChecksum(stored)
		t.extLen[p] = int64(len(stored))
		if _, err := w.Write(stored); err != nil {
			return abort(err)
		}
	}
	if err := w.Flush(); err != nil {
		return abort(err)
	}
	var off int64
	for p := range t.extOff {
		t.extOff[p] = off
		off += t.extLen[p]
	}

	// Write the real directories in place: checksums, schemes, extent
	// lengths, then the zonemap footer.
	for p, sum := range t.sums {
		binary.LittleEndian.PutUint64(meta[p*8:], sum)
	}
	schemeOff := t.NumPages() * 8
	for j := 0; j < NumCols; j++ {
		meta[schemeOff+int64(j)] = t.schemes[j]
	}
	extOff := schemeOff + schemeTableBytes
	for p, l := range t.extLen {
		binary.LittleEndian.PutUint64(meta[extOff+int64(p)*8:], uint64(l))
	}
	zoneOff := extOff + t.NumPages()*8
	for j := 0; j < NumCols; j++ {
		for c := 0; c < t.numChunks; c++ {
			lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
			if t.zones[j] != nil {
				lo, hi = t.zones[j].Bounds(c)
			}
			e := zoneOff + (int64(j)*int64(t.numChunks)+int64(c))*16
			binary.LittleEndian.PutUint64(meta[e:], uint64(lo))
			binary.LittleEndian.PutUint64(meta[e+8:], uint64(hi))
		}
	}
	if _, err := f.WriteAt(meta, headerBytes); err != nil {
		return abort(err)
	}
	if err := f.Sync(); err != nil {
		return abort(err)
	}
	return t, nil
}

// newTableFile assembles the in-memory descriptor: the layout, the data
// region's start, and directories sized to the page count with every column
// identity-stored. The writer and Open fill the directories in.
func newTableFile(f *os.File, path string, format Format, rows, tuplesPerChunk int64, seed uint64) *TableFile {
	t := &TableFile{
		f: f, r: f, path: path, rows: rows, tuplesPerChunk: tuplesPerChunk,
		seed: seed, format: format,
	}
	t.layout = newLayout(format, rows, tuplesPerChunk)
	t.numChunks = t.layout.NumChunks()
	t.dataOff = headerBytes + schemeTableBytes + int64(t.numChunks)*metaBytesPerChunk
	t.sums = make([]uint64, t.NumPages())
	for j := range t.schemes {
		t.schemes[j] = schemeIdentity
	}
	t.extLen = make([]int64, t.NumPages())
	t.extOff = make([]int64, t.NumPages())
	return t
}

// Open opens an existing table file and validates it strictly: magic,
// version, column count, format, geometry, exact file size, and fully
// readable, mutually consistent directories. Failures come back as typed
// errors (ErrBadMagic, ErrBadVersion, ErrBadGeometry, ErrTruncated) wrapped
// with path context — a torn, truncated, foreign or crafted file is an
// error, never a panic, and the header's sizes are checked against the
// file's before anything is allocated from them.
func Open(path string) (*TableFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fail := func(format string, args ...any) (*TableFile, error) {
		f.Close()
		return nil, fmt.Errorf("engine: %s: "+format, append([]any{path}, args...)...)
	}
	var hdr [headerBytes]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return fail("short header (%v): %w", err, ErrTruncated)
	}
	if got := binary.LittleEndian.Uint64(hdr[0:]); got != tableMagic {
		return fail("magic %#x: %w", got, ErrBadMagic)
	}
	if v := binary.LittleEndian.Uint64(hdr[8:]); v != tableVersion {
		return fail("version %d (want %d): %w", v, tableVersion, ErrBadVersion)
	}
	if nc := binary.LittleEndian.Uint64(hdr[40:]); nc != NumCols {
		return fail("stores %d columns, want %d: %w", nc, NumCols, ErrBadGeometry)
	}
	format := Format(binary.LittleEndian.Uint64(hdr[48:]))
	if format != NSM && format != DSM {
		return fail("unknown format %d: %w", int(format), ErrBadGeometry)
	}
	rows := int64(binary.LittleEndian.Uint64(hdr[16:]))
	tuplesPerChunk := int64(binary.LittleEndian.Uint64(hdr[24:]))
	// Validate before building the layout: the layout constructors panic on
	// non-positive sizes, and a corrupt header must surface as an error.
	if rows <= 0 || tuplesPerChunk <= 0 || tuplesPerChunk > math.MaxInt64/TupleBytes() {
		return fail("bad geometry (rows=%d, tuplesPerChunk=%d): %w", rows, tuplesPerChunk, ErrBadGeometry)
	}
	st, err := f.Stat()
	if err != nil {
		return fail("stat: %w", err)
	}
	// Every chunk has a full set of directory entries and an identity-stored
	// comment stripe, so both must fit in the file. Checked by division, so
	// a crafted header can neither overflow the arithmetic nor size an
	// allocation beyond the file.
	numChunks := rows / tuplesPerChunk
	if rows%tuplesPerChunk != 0 {
		numChunks++
	}
	if avail := st.Size() - headerBytes - schemeTableBytes; numChunks > avail/metaBytesPerChunk ||
		tuplesPerChunk > (avail-numChunks*metaBytesPerChunk)/numChunks/colWidths[ColComment] {
		return fail("%d bytes cannot hold %d chunks of %d tuples: %w", st.Size(), numChunks, tuplesPerChunk, ErrTruncated)
	}
	t := newTableFile(f, path, format, rows, tuplesPerChunk, binary.LittleEndian.Uint64(hdr[32:]))
	meta := make([]byte, t.dataOff-headerBytes)
	if _, err := f.ReadAt(meta, headerBytes); err != nil {
		return fail("directories: %v: %w", err, ErrTruncated)
	}
	if err := t.loadDirectories(meta); err != nil {
		return fail("%w", err)
	}
	want := t.dataOff + t.StoredBytes()
	if st.Size() < want {
		return fail("%d bytes, want %d: %w", st.Size(), want, ErrTruncated)
	}
	if st.Size() != want {
		return fail("%d bytes, header promises %d: %w", st.Size(), want, ErrBadGeometry)
	}
	return t, nil
}

// loadDirectories parses and validates the checksum table, scheme table,
// extent length directory and zonemap footer out of the metadata region
// (everything between the header and the data). Directory inconsistencies
// are geometry errors: nothing here is trusted to size a read or an
// allocation until it has been cross-checked against the fixed stripe
// geometry.
func (t *TableFile) loadDirectories(meta []byte) error {
	for p := range t.sums {
		t.sums[p] = binary.LittleEndian.Uint64(meta[p*8:])
	}
	schemeOff := t.NumPages() * 8
	for j := 0; j < NumCols; j++ {
		s := meta[schemeOff+int64(j)]
		switch {
		case s == schemeIdentity:
		case j == ColComment:
			return fmt.Errorf("comment column scheme %#x (want identity): %w", s, ErrBadGeometry)
		case t.format != DSM:
			return fmt.Errorf("column %d: scheme %#x on an NSM file (compression is DSM-only): %w", j, s, ErrBadGeometry)
		case compress.Scheme(s) == compress.Raw || compress.Scheme(s) == compress.PFOR ||
			compress.Scheme(s) == compress.PFORDelta || compress.Scheme(s) == compress.PDict:
		default:
			return fmt.Errorf("column %d: unknown compression scheme %#x: %w", j, s, ErrBadGeometry)
		}
		t.schemes[j] = s
	}
	extOff := schemeOff + schemeTableBytes
	var off int64
	for p := int64(0); p < t.NumPages(); p++ {
		l := int64(binary.LittleEndian.Uint64(meta[extOff+p*8:]))
		raw := t.PageBytes(p)
		col := t.pageCol(p)
		// Identity extents are exactly one raw stripe; codec extents carry
		// at least a header and never usefully exceed the raw stripe by
		// more than the worst-case codec overhead.
		if t.schemes[col] == schemeIdentity {
			if l != raw {
				return fmt.Errorf("page %d: identity extent %d bytes, want %d: %w", p, l, raw, ErrBadGeometry)
			}
		} else if l <= 0 || l > 2*raw+64 {
			return fmt.Errorf("page %d: extent length %d out of range (raw stripe %d): %w", p, l, raw, ErrBadGeometry)
		}
		t.extLen[p] = l
		t.extOff[p] = off
		off += l
	}
	zoneOff := extOff + t.NumPages()*8
	for j := 0; j < NumCols; j++ {
		if j == ColComment {
			continue
		}
		t.zones[j] = storage.NewZoneMap(t.numChunks)
		for c := 0; c < t.numChunks; c++ {
			e := zoneOff + (int64(j)*int64(t.numChunks)+int64(c))*16
			lo := int64(binary.LittleEndian.Uint64(meta[e:]))
			hi := int64(binary.LittleEndian.Uint64(meta[e+8:]))
			if lo > hi {
				return fmt.Errorf("column %d chunk %d: inverted zonemap bounds [%d, %d]: %w", j, c, lo, hi, ErrBadGeometry)
			}
			t.zones[j].SetBounds(c, lo, hi)
		}
	}
	return nil
}
