package engine

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"coopscan/internal/core"
	"coopscan/internal/obs"
)

// TestNSMLoadsRecyclePageBuffers guards the page-buffer economy of the NSM
// load path. Every chunk load is one coalesced read that fills standalone
// page buffers drawn from the recycle lists, and eviction hands them back.
// So fresh buffer allocations are bounded by what can be alive at once — the
// pool's frames plus the in-flight loads' pages — however many loads run,
// and the live heap stays a small multiple of the buffer budget. A read path
// that hands the pool sub-slices of a per-load slab instead keeps whole slabs
// alive from the recycle lists, and the heap grows with the load count.
func TestNSMLoadsRecyclePageBuffers(t *testing.T) {
	const tpc, chunks = 4096, 24
	const bufferChunks, wantBuffers = 4, 200
	tf := newTestFile(t, tpc*chunks, tpc, 9)
	reg := obs.NewRegistry()

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	srv := newTestServer(t, ServerConfig{
		Policy:      core.Relevance,
		BufferBytes: bufferChunks * tf.ChunkBytes(),
		Obs:         reg,
	}, tf)
	// Every page read from the file enters the pool as a miss, so misses
	// over NumCols count the chunk reads (an ABM load whose pages are all
	// still resident in the pool reads nothing).
	pagesRead := func() int { return srv.Stats().Pool.Misses }
	loads := func() int { return pagesRead() / NumCols }
	for round := 0; loads() < wantBuffers*bufferChunks; round++ {
		if round == 100 {
			t.Fatalf("only %d chunk reads after %d rounds", loads(), round)
		}
		// Four streams starting at spread offsets keep the relevance
		// policy loading: their ranges wrap around the table, and the
		// buffer holds a sixth of it.
		var wg sync.WaitGroup
		for s := 0; s < 4; s++ {
			start := (round*5 + s*chunks/4) % chunks
			wg.Add(1)
			go func() {
				defer wg.Done()
				name := fmt.Sprintf("r%d-s%d", round, s)
				ranges := rangeSet(start, chunks)
				if start > 0 {
					ranges = ranges.Union(rangeSet(0, start))
				}
				if _, err := srv.Scan(0, name, ranges, Q6Cols(), func(int, ChunkData) {}); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}()
		}
		wg.Wait()
	}

	m := scrapeMetrics(t, reg)
	allocs := int(m["coopscan_recycle_allocs_total"])
	bound := srv.pool.Capacity() + srv.cfg.InFlightDepth*NumCols
	if allocs > bound {
		t.Errorf("%d page buffers allocated over %d chunk reads, want ≤ %d (pool frames + in-flight pages)", allocs, loads(), bound)
	}
	if gets := int(m["coopscan_recycle_gets_total"]); gets < pagesRead() {
		t.Errorf("%d recycle draws < %d pages read: some read bypassed the recycle lists", gets, pagesRead())
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	var grown int64
	if after.HeapInuse > before.HeapInuse {
		grown = int64(after.HeapInuse - before.HeapInuse)
	}
	if limit := 8 * srv.cfg.BufferBytes; grown > limit {
		t.Errorf("heap in use grew %.1f MiB over %d chunk reads, want ≤ %.1f MiB (8× the %.1f MiB buffer)",
			float64(grown)/(1<<20), loads(), float64(limit)/(1<<20), float64(srv.cfg.BufferBytes)/(1<<20))
	}
	runtime.KeepAlive(srv)
}

// TestReadPageRangeMatchesPageReads reads chunk-sized runs of consecutive
// pages with one ReadPageRange call and again page by page, on every stored
// format, and checks both against the generator's stripes. On NSM each run
// is one whole chunk; on the column-major formats the same page indexes
// straddle column boundaries, so one run mixes stripe widths and — on v4 —
// codec and identity extents.
func TestReadPageRangeMatchesPageReads(t *testing.T) {
	const rows, tpc = 5_000, 512 // ten chunks, the last one short
	for _, tc := range []struct {
		name string
		file func(t testing.TB) *TableFile
	}{
		{"v3-nsm", func(t testing.TB) *TableFile { return newTestFileFormat(t, NSM, rows, tpc, 13) }},
		{"v3-dsm", func(t testing.TB) *TableFile { return newTestFileFormat(t, DSM, rows, tpc, 13) }},
		{"v4", func(t testing.TB) *TableFile { return newTestFileCompressed(t, rows, tpc, 13) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tf := tc.file(t)
			for first := int64(0); first < tf.NumPages(); first += NumCols {
				var total int64
				for p := first; p < first+NumCols; p++ {
					total += tf.PageBytes(p)
				}
				run := make([]byte, total)
				if err := tf.ReadPageRange(first, NumCols, run); err != nil {
					t.Fatalf("ReadPageRange(%d, %d): %v", first, NumCols, err)
				}
				var off int64
				for p := first; p < first+NumCols; p++ {
					page := make([]byte, tf.PageBytes(p))
					if err := tf.ReadPage(p, page); err != nil {
						t.Fatalf("ReadPage(%d): %v", p, err)
					}
					chunk, _ := tf.PagePart(p)
					want := wantStripe(t, tf, chunk, tf.pageCol(p))
					if !bytes.Equal(page, want) {
						t.Fatalf("page %d (chunk %d, col %d) read alone differs from the generator", p, chunk, tf.pageCol(p))
					}
					if !bytes.Equal(run[off:off+int64(len(page))], page) {
						t.Fatalf("page %d differs between the run read at %d and the page read", p, first)
					}
					off += int64(len(page))
				}
			}
		})
	}
}
