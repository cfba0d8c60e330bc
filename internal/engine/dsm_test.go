// DSM live-path tests: the engine over column-major table files must load
// only the columns queries project, deliver golden-checked results for
// partial column sets, evict column parts independently of their resident
// siblings, and serve NSM and DSM tables side by side under one budget.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"coopscan/internal/core"
	"coopscan/internal/exec"
	"coopscan/internal/storage"
	"coopscan/internal/tpch"
)

// chunkQ6BaselineDSM evaluates Q6 per chunk from a DSM file through the Q6
// projection only.
func chunkQ6BaselineDSM(t testing.TB, tf *TableFile) []exec.Q6Result {
	out := make([]exec.Q6Result, tf.NumChunks())
	for c := range out {
		out[c] = Q6Chunk(readChunkDataCols(t, tf, c, Q6Cols()), exec.DefaultQ6())
	}
	return out
}

// TestEngineDSMAllPolicies runs concurrent FAST and SLOW streams over a DSM
// table under every policy and golden-checks the delivered partial-column
// results against the generator-backed exec kernels.
func TestEngineDSMAllPolicies(t *testing.T) {
	const rows, tpc, streams = 96_000, 1000, 6
	tf := newTestFileFormat(t, DSM, rows, tpc, 5)
	n := tf.NumChunks()

	genTable := tpch.LineitemTable(1)
	genTable.Rows = rows
	gen := tpch.NewGenerator(genTable, 5)
	pred := exec.DefaultQ6()

	q6Base := make([]exec.Q6Result, n)
	for c := 0; c < n; c++ {
		q6Base[c] = exec.Q6Chunk(gen, int64(c)*tpc, tf.Layout().ChunkTuples(c), pred)
	}

	for _, pol := range core.Policies {
		t.Run(pol.String(), func(t *testing.T) {
			srv := newTestServer(t, ServerConfig{Policy: pol, BufferBytes: 4 * tf.ChunkBytes()}, tf)
			var wg sync.WaitGroup
			errs := make([]error, streams)
			for s := 0; s < streams; s++ {
				s := s
				start := (s * 3) % (n / 2)
				end := start + n/2 + s%3
				if end > n {
					end = n
				}
				slow := s%3 == 0
				wg.Add(1)
				go func() {
					defer wg.Done()
					if slow {
						want := make(exec.Q1Result)
						got := make(exec.Q1Result)
						for c := start; c < end; c++ {
							want.Merge(exec.Q1Chunk(gen, int64(c)*tpc, tf.Layout().ChunkTuples(c), 700, 2))
						}
						st, err := srv.ScanWith(context.Background(), ScanRequest{Name: fmt.Sprintf("s%d", s), Ranges: rangeSet(start, end), Cols: Q1Cols()},
							func(c int, d ChunkData) {
								if d.Cols() != Q1Cols() {
									errs[s] = fmt.Errorf("stream %d: delivered cols %v, want %v", s, d.Cols(), Q1Cols())
								}
								got.Merge(Q1Chunk(d, 700, 2))
							})
						if err != nil {
							errs[s] = err
							return
						}
						if want := tupleRangeBytes(tf, start, end, Q1Cols()); st.BytesUseful != want {
							errs[s] = fmt.Errorf("stream %d: useful bytes %d, want %d", s, st.BytesUseful, want)
						}
						for k, g := range want {
							lg, ok := got[k]
							if !ok || *lg != *g {
								errs[s] = fmt.Errorf("stream %d: Q1 group %v = %+v, want %+v", s, k, lg, g)
								return
							}
						}
					} else {
						want := exec.Q6Result{}
						for c := start; c < end; c++ {
							want.Add(q6Base[c])
						}
						var got exec.Q6Result
						_, err := srv.ScanWith(context.Background(), ScanRequest{Name: fmt.Sprintf("s%d", s), Ranges: rangeSet(start, end), Cols: Q6Cols()},
							func(c int, d ChunkData) {
								if d.Has(ColTax) || d.Has(ColComment) {
									errs[s] = fmt.Errorf("stream %d: undeclared column delivered", s)
								}
								got.Add(Q6Chunk(d, pred))
							})
						if err != nil {
							errs[s] = err
							return
						}
						if got != want {
							errs[s] = fmt.Errorf("stream %d: Q6 = %+v, want %+v", s, got, want)
						}
					}
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
			stats := srv.Stats()
			if stats.Tables[0].ABM.Loads == 0 || stats.Pool.Misses == 0 {
				t.Errorf("no real I/O recorded: %+v", stats)
			}
		})
	}
}

// tupleRangeBytes sums the projection bytes of a chunk range (test helper).
func tupleRangeBytes(tf *TableFile, start, end int, cols storage.ColSet) int64 {
	var n int64
	for c := start; c < end; c++ {
		n += tf.Layout().ChunkTuples(c) * ProjectionBytes(cols)
	}
	return n
}

// TestDSMColumnSelectiveIO is the bytes-ratio acceptance smoke (also run in
// CI): an identical Q6-only workload over an NSM and a DSM file of the same
// geometry must read at most 45% of the bytes on DSM — Q6 projects 32 of
// the 112 stored bytes per tuple, so the geometric ratio is ~29% plus
// eviction/reload slack.
func TestDSMColumnSelectiveIO(t *testing.T) {
	const rows, tpc, streams = 48_000, 1000, 4
	read := make(map[Format]int64)
	useful := make(map[Format]int64)
	for _, format := range []Format{NSM, DSM} {
		tf := newTestFileFormat(t, format, rows, tpc, 17)
		srv := newTestServer(t, ServerConfig{Policy: core.Relevance, BufferBytes: 16 * tf.ChunkBytes()}, tf)
		pred := exec.DefaultQ6()
		var wg sync.WaitGroup
		var mu sync.Mutex
		for s := 0; s < streams; s++ {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				st, err := srv.ScanWith(context.Background(), ScanRequest{Name: fmt.Sprintf("q6-%d", s), Ranges: rangeSet(0, tf.NumChunks()), Cols: Q6Cols()},
					func(_ int, d ChunkData) { Q6Chunk(d, pred) })
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				useful[format] += st.BytesUseful
			}()
		}
		wg.Wait()
		read[format] = srv.Stats().Pool.BytesLoaded
		srv.Close()
	}
	if read[NSM] == 0 || read[DSM] == 0 {
		t.Fatalf("no bytes recorded: nsm=%d dsm=%d", read[NSM], read[DSM])
	}
	ratio := float64(read[DSM]) / float64(read[NSM])
	t.Logf("bytes read: nsm=%d dsm=%d ratio=%.3f (useful nsm=%d dsm=%d)",
		read[NSM], read[DSM], ratio, useful[NSM], useful[DSM])
	if ratio > 0.45 {
		t.Errorf("DSM read %.1f%% of NSM bytes, want <= 45%% (projection 32/112 bytes + slack)", ratio*100)
	}
	if useful[NSM] != useful[DSM] {
		t.Errorf("useful bytes differ across formats: nsm=%d dsm=%d (same workload)", useful[NSM], useful[DSM])
	}
	// On DSM the queries' consumed projection should approach (or exceed,
	// via sharing) what was read; on NSM it cannot exceed the projection
	// ratio of the row width.
	if f := float64(useful[DSM]) / float64(read[DSM]); f < 0.9 {
		t.Errorf("DSM useful fraction %.2f, want >= 0.9", f)
	}
}

// TestDSMIndependentColumnEviction drives the relevance eviction path
// directly: with one column of every chunk still needed by a registered
// query and a sibling column needed by nobody, EnsureSpace must evict the
// useless column parts — releasing their buffer-pool views — while the
// needed column's parts (and views) stay resident.
func TestDSMIndependentColumnEviction(t *testing.T) {
	const rows, tpc = 12_000, 1000
	tf := newTestFileFormat(t, DSM, rows, tpc, 23)
	srv := newTestServer(t, ServerConfig{Policy: core.Relevance, BufferBytes: 4 * tf.ChunkBytes()}, tf)

	// Warm a two-column working set: a scan over {shipdate, tax}.
	warm := storage.Cols(ColShipDate, ColTax)
	if _, err := srv.ScanWith(context.Background(), ScanRequest{Name: "warm", Ranges: rangeSet(0, tf.NumChunks()), Cols: warm}, nil); err != nil {
		t.Fatal(err)
	}

	srv.mu.Lock()
	defer srv.mu.Unlock()
	tbl := srv.tables[0]
	resident := func(col int) []int {
		var out []int
		for c := 0; c < tf.NumChunks(); c++ {
			if _, ok := tbl.views[partID{chunk: c, col: col}]; ok {
				out = append(out, c)
			}
		}
		return out
	}
	shipBefore, taxBefore := resident(ColShipDate), resident(ColTax)
	if len(taxBefore) == 0 || len(shipBefore) == 0 {
		t.Fatalf("warm scan left no resident parts (ship %v, tax %v)", shipBefore, taxBefore)
	}

	// Register a probe query that still needs shipdate everywhere; tax
	// becomes useless to every registered query, so the DSM eviction's
	// useless-column pass must take tax parts first.
	q := tbl.abm.NewQuery("probe", rangeSet(0, tf.NumChunks()), storage.Cols(ColShipDate))
	tbl.abm.Register(q)
	if !tbl.pol.EnsureSpace(int64(len(taxBefore))*tf.ColStripeBytes(ColTax)+tbl.abm.FreeBytes(), q) {
		t.Fatal("EnsureSpace failed with evictable useless columns available")
	}
	shipAfter, taxAfter := resident(ColShipDate), resident(ColTax)
	if len(taxAfter) != 0 {
		t.Errorf("tax parts still resident after eviction: %v", taxAfter)
	}
	if len(shipAfter) != len(shipBefore) {
		t.Errorf("shipdate parts went from %v to %v; siblings must survive a useless-column eviction", shipBefore, shipAfter)
	}
	tbl.abm.Finish(q)
}

// TestServerMixedFormats serves one NSM and one DSM table from a single
// shared budget and verifies both deliver correct results concurrently.
func TestServerMixedFormats(t *testing.T) {
	nsm := newTestFileFormat(t, NSM, 32_000, 1000, 61)
	dsm := newTestFileFormat(t, DSM, 32_000, 1000, 62)
	baseN := chunkQ6Baseline(t, nsm)
	baseD := chunkQ6BaselineDSM(t, dsm)
	srv := newTestServer(t, ServerConfig{
		Policy:      core.Relevance,
		BufferBytes: 4*nsm.ChunkBytes() + 4*dsm.ChunkBytes(),
	}, nsm, dsm)

	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	pred := exec.DefaultQ6()
	for table, base := range [][]exec.Q6Result{baseN, baseD} {
		table := table
		want := exec.Q6Result{}
		for _, r := range base {
			want.Add(r)
		}
		for s := 0; s < 3; s++ {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				var got exec.Q6Result
				st, err := srv.ScanWith(context.Background(), ScanRequest{Table: table, Name: fmt.Sprintf("t%ds%d", table, s), Ranges: rangeSet(0, 32), Cols: Q6Cols()},
					func(c int, d ChunkData) { got.Add(Q6Chunk(d, pred)) })
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					errs = append(errs, err)
				} else if got != want {
					errs = append(errs, fmt.Errorf("t%ds%d: Q6 = %+v, want %+v", table, s, got, want))
				} else if st.BytesUseful != 32_000*ProjectionBytes(Q6Cols()) {
					errs = append(errs, fmt.Errorf("t%ds%d: useful bytes %d", table, s, st.BytesUseful))
				}
			}()
		}
	}
	wg.Wait()
	for _, err := range errs {
		t.Error(err)
	}
	st := srv.Stats()
	// The DSM table's decision-layer bytes must undercut the NSM table's:
	// same workload, quarter-width projection.
	if st.Tables[1].ABM.BytesRead >= st.Tables[0].ABM.BytesRead {
		t.Errorf("DSM table read %d bytes >= NSM table's %d under the same Q6 workload",
			st.Tables[1].ABM.BytesRead, st.Tables[0].ABM.BytesRead)
	}
}

// TestScanValidation pins the typed scan-argument errors.
func TestScanValidation(t *testing.T) {
	tf := newTestFile(t, 8_000, 1000, 71)
	srv := newTestServer(t, ServerConfig{Policy: core.Normal, BufferBytes: 4 * tf.ChunkBytes()}, tf)

	cases := []struct {
		name   string
		table  int
		ranges storage.RangeSet
		cols   storage.ColSet
		want   error
	}{
		{"unknown table", 7, rangeSet(0, 1), Q6Cols(), ErrUnknownTable},
		{"negative table", -1, rangeSet(0, 1), Q6Cols(), ErrUnknownTable},
		{"empty ranges", 0, storage.RangeSet{}, Q6Cols(), ErrInvalidRange},
		{"beyond table", 0, rangeSet(0, tf.NumChunks()+5), Q6Cols(), ErrInvalidRange},
		{"no columns", 0, rangeSet(0, 1), 0, ErrInvalidColumns},
		{"columns beyond schema", 0, rangeSet(0, 1), storage.Cols(NumCols + 3), ErrInvalidColumns},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := srv.ScanWith(context.Background(), ScanRequest{Table: tc.table, Name: "bad", Ranges: tc.ranges, Cols: tc.cols}, nil)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Scan error = %v, want %v", err, tc.want)
			}
		})
	}
	// A valid scan on the same server still works after the rejections.
	if _, err := srv.ScanWith(context.Background(), ScanRequest{Name: "ok", Ranges: rangeSet(0, tf.NumChunks()), Cols: Q6Cols()}, nil); err != nil {
		t.Fatalf("valid scan after rejections: %v", err)
	}
}
