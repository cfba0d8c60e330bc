// Compressed live-path and zonemap-pruning tests: the engine over v4 files
// must deliver golden-checked results under every policy, pruned scans must
// register only the chunks whose persisted bounds can match — without ever
// changing a query's aggregate — and the disk-byte accounting must show the
// compressed widths the device actually paid.
package engine

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/exec"
	"coopscan/internal/iofault"
	"coopscan/internal/storage"
	"coopscan/internal/tpch"
)

// wantPrunedChunks computes, independently of RangeSet plumbing, which
// chunks of [0, n) a predicate list should survive: a chunk stays unless
// some conjunct's interval misses its persisted bounds entirely.
func wantPrunedChunks(tf *TableFile, preds []PredRange) map[int]bool {
	want := map[int]bool{}
	for c := 0; c < tf.NumChunks(); c++ {
		keep := true
		for _, p := range preds {
			zm := tf.ZoneMap(p.Col)
			if zm == nil {
				continue
			}
			lo, hi := zm.Bounds(c)
			if p.Hi < lo || p.Lo > hi {
				keep = false
				break
			}
		}
		if keep {
			want[c] = true
		}
	}
	return want
}

// TestEngineCompressedAllPolicies runs concurrent FAST and SLOW streams
// over a v4 compressed table under every policy and golden-checks the
// delivered partial-column results against the generator-backed exec
// kernels — the same contract TestEngineDSMAllPolicies pins for raw DSM.
func TestEngineCompressedAllPolicies(t *testing.T) {
	const rows, tpc, streams = 96_000, 1000, 6
	tf := newTestFileCompressed(t, rows, tpc, 5)
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
						if _, err := srv.ScanWith(context.Background(), ScanRequest{Name: fmt.Sprintf("s%d", s), Ranges: rangeSet(start, end), Cols: Q1Cols()},
							func(c int, d ChunkData) { got.Merge(Q1Chunk(d, 700, 2)) }); err != nil {
							errs[s] = err
							return
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
						if _, err := srv.ScanWith(context.Background(), ScanRequest{Name: fmt.Sprintf("s%d", s), Ranges: rangeSet(start, end), Cols: Q6Cols()},
							func(c int, d ChunkData) {
								if d.Has(ColTax) || d.Has(ColComment) {
									errs[s] = fmt.Errorf("stream %d: undeclared column delivered", s)
								}
								got.Add(Q6Chunk(d, pred))
							}); err != nil {
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
			// The device paid compressed widths: disk bytes must be positive
			// and strictly below the decompressed bytes the ABM accounts.
			ts := stats.Tables[0]
			if ts.DiskBytesRead <= 0 || ts.DiskBytesRead >= ts.ABM.BytesRead {
				t.Errorf("DiskBytesRead = %d, ABM.BytesRead = %d: want 0 < disk < decoded",
					ts.DiskBytesRead, ts.ABM.BytesRead)
			}
		})
	}
}

// TestZonemapPruningSelectivity pins the PR's pruning numbers — and is the
// CI pruning-smoke assertion: a default-Q6 predicated scan over a v4 table
// registers fewer than 40% of the chunks (the date window covers ~20% of
// the correlated shipdate domain), skips at least 60%, and its aggregate is
// identical to the unpruned scan's under every policy.
func TestZonemapPruningSelectivity(t *testing.T) {
	const rows, tpc = 96_000, 1000
	tf := newTestFileCompressed(t, rows, tpc, 5)
	n := tf.NumChunks()
	pred := exec.DefaultQ6()
	preds := Q6Preds(pred)
	wantChunks := wantPrunedChunks(tf, preds)
	if 100*len(wantChunks) >= 40*n {
		t.Fatalf("zonemap bounds keep %d of %d chunks (>= 40%%); predicate not selective", len(wantChunks), n)
	}

	for _, pol := range core.Policies {
		t.Run(pol.String(), func(t *testing.T) {
			srv := newTestServer(t, ServerConfig{Policy: pol, BufferBytes: 4 * tf.ChunkBytes()}, tf)

			var unpruned exec.Q6Result
			if _, err := srv.ScanWith(context.Background(), ScanRequest{Name: "unpruned", Ranges: rangeSet(0, n), Cols: Q6Cols()}, func(c int, d ChunkData) {
				unpruned.Add(Q6Chunk(d, pred))
			}); err != nil {
				t.Fatal(err)
			}

			var pruned exec.Q6Result
			delivered := map[int]bool{}
			st, err := srv.ScanWith(context.Background(), ScanRequest{
				Name: "pruned", Ranges: rangeSet(0, n), Cols: Q6Cols(), Preds: preds,
			}, func(c int, d ChunkData) {
				delivered[c] = true
				pruned.Add(Q6Chunk(d, pred))
			})
			if err != nil {
				t.Fatal(err)
			}
			if pruned != unpruned {
				t.Errorf("pruned Q6 = %+v, want %+v (pruning changed the aggregate)", pruned, unpruned)
			}
			if len(delivered) != len(wantChunks) {
				t.Errorf("pruned scan delivered %d chunks, want %d", len(delivered), len(wantChunks))
			}
			for c := range delivered {
				if !wantChunks[c] {
					t.Errorf("chunk %d delivered but its bounds exclude the predicate", c)
				}
			}
			if st.Chunks != len(wantChunks) {
				t.Errorf("Stats.Chunks = %d, want %d", st.Chunks, len(wantChunks))
			}
			skipped := int64(n - len(wantChunks))
			if got := srv.Stats().Tables[0].ChunksPruned; got != skipped {
				t.Errorf("TableStats.ChunksPruned = %d, want %d", got, skipped)
			}
			if 100*skipped < 60*int64(n) {
				t.Errorf("pruned only %d of %d chunks, want >= 60%%", skipped, n)
			}
		})
	}
}

// TestPruningEdgeCases covers the pruning contract around the happy path:
// an all-excluding predicate completes with zero chunks and no
// registration, a predicate on the comment filler (no bounds) prunes
// nothing, out-of-range predicate columns are rejected as invalid, and raw
// files prune exactly like their compressed twin.
func TestPruningEdgeCases(t *testing.T) {
	const rows, tpc = 16_000, 1000
	v4 := newTestFileCompressed(t, rows, tpc, 9)
	raw := newTestFileFormat(t, DSM, rows, tpc, 9)
	n := v4.NumChunks()
	pred := exec.DefaultQ6()

	srv := newTestServer(t, ServerConfig{Policy: core.Normal, BufferBytes: 4 * v4.ChunkBytes()}, v4)

	t.Run("prunes everything", func(t *testing.T) {
		// Shipdate far above the generator domain: every chunk's bounds
		// exclude it, so the scan is complete before it registers.
		st, err := srv.ScanWith(context.Background(), ScanRequest{
			Name: "empty", Ranges: rangeSet(0, n), Cols: Q6Cols(),
			Preds: []PredRange{{Col: ColShipDate, Lo: 1 << 40, Hi: 1 << 41}},
		}, func(c int, d ChunkData) {
			t.Errorf("chunk %d delivered from an all-pruned scan", c)
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Chunks != 0 || st.Query != "empty" {
			t.Errorf("all-pruned scan stats = %+v, want 0 chunks under its own name", st)
		}
	})

	t.Run("inverted interval prunes everything", func(t *testing.T) {
		// Lo > Hi is a legitimately empty predicate (e.g. quantity < 0
		// rendered as [MinInt64, -1] is fine, but [5, 4] matches nothing).
		st, err := srv.ScanWith(context.Background(), ScanRequest{
			Name: "inverted", Ranges: rangeSet(0, n), Cols: Q6Cols(),
			Preds: []PredRange{{Col: ColShipDate, Lo: 5, Hi: 4}},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Chunks != 0 {
			t.Errorf("inverted-interval scan delivered %d chunks, want 0", st.Chunks)
		}
	})

	t.Run("bad predicate column", func(t *testing.T) {
		_, err := srv.ScanWith(context.Background(), ScanRequest{
			Name: "bad-col", Ranges: rangeSet(0, n), Cols: Q6Cols(),
			Preds: []PredRange{{Col: NumCols, Lo: 0, Hi: 1}},
		}, nil)
		if !errors.Is(err, ErrInvalidColumns) {
			t.Errorf("predicate on column %d: err = %v, want ErrInvalidColumns", NumCols, err)
		}
	})

	t.Run("comment predicate prunes nothing", func(t *testing.T) {
		base := chunkQ6Baseline(t, v4)
		var got exec.Q6Result
		st, err := srv.ScanWith(context.Background(), ScanRequest{
			Name: "comment-pred", Ranges: rangeSet(0, n), Cols: Q6Cols(),
			Preds: []PredRange{{Col: ColComment, Lo: 0, Hi: 0}},
		}, func(c int, d ChunkData) { got.Add(Q6Chunk(d, pred)) })
		if err != nil {
			t.Fatal(err)
		}
		if st.Chunks != n {
			t.Errorf("comment-predicated scan delivered %d chunks, want all %d", st.Chunks, n)
		}
		if want := sumQ6(base, 0, n); got != want {
			t.Errorf("Q6 = %+v, want %+v", got, want)
		}
	})

	t.Run("raw and compressed twins prune alike", func(t *testing.T) {
		// Zonemaps are chunk metadata, not a codec feature: raw NSM and DSM
		// files of the same seed persist the same bounds, so a predicated
		// scan prunes the same chunks and folds the same Q6 on all three.
		rawNSM := newTestFileFormat(t, NSM, rows, tpc, 9)
		twins := newTestServer(t, ServerConfig{Policy: core.Normal, BufferBytes: 6 * v4.ChunkBytes()}, v4, raw, rawNSM)
		var wantQ6 exec.Q6Result
		var wantChunks map[int]bool
		for table, tf := range []*TableFile{v4, raw, rawNSM} {
			var got exec.Q6Result
			delivered := map[int]bool{}
			if _, err := twins.ScanWith(context.Background(), ScanRequest{
				Table: table, Name: "twin-pred", Ranges: rangeSet(0, n), Cols: Q6Cols(), Preds: Q6Preds(pred),
			}, func(c int, d ChunkData) {
				delivered[c] = true
				got.Add(Q6Chunk(d, pred))
			}); err != nil {
				t.Fatal(err)
			}
			if table == 0 {
				wantQ6, wantChunks = got, delivered
				if len(delivered) == 0 || len(delivered) == n {
					t.Fatalf("compressed twin kept %d of %d chunks: predicate not selective", len(delivered), n)
				}
				continue
			}
			if got != wantQ6 {
				t.Errorf("raw %v twin Q6 = %+v, compressed twin %+v", tf.Format(), got, wantQ6)
			}
			if !maps.Equal(delivered, wantChunks) {
				t.Errorf("raw %v twin delivered chunks %v, compressed twin %v", tf.Format(), delivered, wantChunks)
			}
			if got, want := twins.Stats().Tables[table].ChunksPruned, int64(n-len(wantChunks)); got != want {
				t.Errorf("raw %v twin ChunksPruned = %d, want %d", tf.Format(), got, want)
			}
		}
	})
}

// TestCompressedFaults drives the fault machinery over compressed extents:
// transient read errors heal through retry with golden results, and a
// persistent bad range over one compressed extent quarantines exactly that
// part — corruption surfaces as typed errors, never as wrong tuples.
func TestCompressedFaults(t *testing.T) {
	t.Run("transient heal", func(t *testing.T) {
		tf := newTestFileCompressed(t, 16_000, 1000, 41)
		base := chunkQ6Baseline(t, tf)
		inj := injectFaults(tf, iofault.Plan{TransientProb: 1, TransientMax: 2}, 1)
		srv, err := NewServer(ServerConfig{
			Policy: core.Relevance, BufferBytes: 4 * tf.ChunkBytes(),
			LoadRetries: 4, RetryBackoff: 50 * time.Microsecond,
		}, tf)
		if err != nil {
			t.Fatal(err)
		}
		var got exec.Q6Result
		if _, err := srv.ScanWith(context.Background(), ScanRequest{Name: "q6", Ranges: rangeSet(0, tf.NumChunks()), Cols: Q6Cols()}, func(c int, d ChunkData) {
			got.Add(Q6Chunk(d, exec.DefaultQ6()))
		}); err != nil {
			t.Fatalf("Scan under transient faults: %v", err)
		}
		if want := sumQ6(base, 0, tf.NumChunks()); got != want {
			t.Errorf("Q6 = %+v, want %+v", got, want)
		}
		st := srv.Stats()
		if st.Faults.Retries == 0 || inj.Stats().Transients == 0 {
			t.Error("no transient faults actually exercised")
		}
		if st.Faults.QuarantinedParts != 0 || st.Faults.FailedScans != 0 {
			t.Errorf("transient faults escalated: %+v", st.Faults)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})

	t.Run("persistent quarantine", func(t *testing.T) {
		tf := newTestFileCompressed(t, 16_000, 1000, 43)
		base := chunkQ6Baseline(t, tf)
		const badChunk = 3
		// PartFileRange on a v4 file addresses the stored (compressed)
		// extent; the bad range covers exactly those bytes.
		off, size := tf.PartFileRange(badChunk, ColDiscount)
		injectFaults(tf, iofault.Plan{BadRanges: []iofault.Range{{Off: off, Len: size}}}, 2)
		srv, err := NewServer(ServerConfig{
			Policy: core.Normal, BufferBytes: 4 * tf.ChunkBytes(),
			LoadRetries: 1, RetryBackoff: 50 * time.Microsecond,
		}, tf)
		if err != nil {
			t.Fatal(err)
		}
		n := tf.NumChunks()
		_, err = srv.ScanWith(context.Background(), ScanRequest{Name: "needs-bad-part", Ranges: rangeSet(0, n), Cols: Q6Cols()}, nil)
		if !errors.Is(err, ErrChunkUnavailable) {
			t.Fatalf("scan needing bad extent: err = %v, want ErrChunkUnavailable", err)
		}
		// A projection without the dead column reads everything, golden.
		noDiscount := storage.Cols(ColShipDate, ColQuantity, ColExtendedPrice)
		if _, err := srv.ScanWith(context.Background(), ScanRequest{Name: "avoids-bad-col", Ranges: rangeSet(0, n), Cols: noDiscount}, nil); err != nil {
			t.Fatalf("scan avoiding bad column: %v", err)
		}
		// And the rest of the column is intact.
		var got exec.Q6Result
		if _, err := srv.ScanWith(context.Background(), ScanRequest{Name: "rest", Ranges: rangeSet(badChunk+1, n), Cols: Q6Cols()}, func(c int, d ChunkData) {
			got.Add(Q6Chunk(d, exec.DefaultQ6()))
		}); err != nil {
			t.Fatalf("scan over rest of column: %v", err)
		}
		if want := sumQ6(base, badChunk+1, n); got != want {
			t.Errorf("rest Q6 = %+v, want %+v", got, want)
		}
		st := srv.Stats()
		if st.Faults.QuarantinedParts != 1 || st.Faults.FailedScans != 1 {
			t.Errorf("fault stats = %+v, want exactly 1 quarantine and 1 failed scan", st.Faults)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}
