// Engine tests execute real concurrent scans over real files under every
// policy and verify true query results against the generator-backed exec
// kernels. CI runs this package under -race: the engine is the repo's
// first truly concurrent code and must stay race-clean.
package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"coopscan/internal/core"
	"coopscan/internal/exec"
	"coopscan/internal/storage"
)

// chunkQ6Baseline evaluates Q6 per chunk straight from the file, so range
// scans can be checked by summing chunk results.
func chunkQ6Baseline(t testing.TB, tf *TableFile) []exec.Q6Result {
	out := make([]exec.Q6Result, tf.NumChunks())
	for c := range out {
		out[c] = Q6Chunk(readChunkData(t, tf, c), exec.DefaultQ6())
	}
	return out
}

func rangeSet(start, end int) storage.RangeSet {
	return storage.NewRangeSet(storage.Range{Start: start, End: end})
}

func TestEngineSingleScanAllPolicies(t *testing.T) {
	const rows, tpc = 64_000, 1000
	tf := newTestFile(t, rows, tpc, 11)
	want := exec.Q6Result{}
	for _, r := range chunkQ6Baseline(t, tf) {
		want.Add(r)
	}
	for _, pol := range core.Policies {
		t.Run(pol.String(), func(t *testing.T) {
			srv := newTestServer(t, ServerConfig{Policy: pol, BufferBytes: 8 * tf.ChunkBytes()}, tf)
			var got exec.Q6Result
			delivered := 0
			st, err := srv.ScanWith(context.Background(), ScanRequest{Name: "q6", Ranges: rangeSet(0, tf.NumChunks()), Cols: Q6Cols()}, func(c int, d ChunkData) {
				got.Add(Q6Chunk(d, exec.DefaultQ6()))
				delivered++
			})
			if err != nil {
				t.Fatalf("Scan: %v", err)
			}
			if got != want {
				t.Errorf("Q6 = %+v, want %+v", got, want)
			}
			if delivered != tf.NumChunks() || st.Chunks != tf.NumChunks() {
				t.Errorf("delivered %d chunks (stats %d), want %d", delivered, st.Chunks, tf.NumChunks())
			}
			if st.Latency() <= 0 {
				t.Errorf("non-positive latency %v", st.Latency())
			}
		})
	}
}

func TestEngineConcurrentStreams(t *testing.T) {
	const rows, tpc, streams = 96_000, 1000, 8
	tf := newTestFile(t, rows, tpc, 5)
	base := chunkQ6Baseline(t, tf)
	n := tf.NumChunks()
	for _, pol := range core.Policies {
		t.Run(pol.String(), func(t *testing.T) {
			// A buffer well below the table footprint forces eviction
			// decisions while the streams race.
			srv := newTestServer(t, ServerConfig{Policy: pol, BufferBytes: 4 * tf.ChunkBytes()}, tf)
			var wg sync.WaitGroup
			errs := make([]error, streams)
			for s := 0; s < streams; s++ {
				s := s
				// Overlapping ranges of different lengths and offsets.
				start := (s * 3) % (n / 2)
				end := start + n/2 + s%3
				if end > n {
					end = n
				}
				want := exec.Q6Result{}
				for c := start; c < end; c++ {
					want.Add(base[c])
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					var got exec.Q6Result
					st, err := srv.ScanWith(context.Background(), ScanRequest{Name: fmt.Sprintf("s%d", s), Ranges: rangeSet(start, end), Cols: Q6Cols()}, func(c int, d ChunkData) {
						got.Add(Q6Chunk(d, exec.DefaultQ6()))
					})
					if err != nil {
						errs[s] = err
						return
					}
					if got != want {
						errs[s] = fmt.Errorf("stream %d: Q6 = %+v, want %+v", s, got, want)
					}
					if st.Chunks != end-start {
						errs[s] = fmt.Errorf("stream %d: %d chunks, want %d", s, st.Chunks, end-start)
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

func TestEngineEvictionUnderPressure(t *testing.T) {
	const rows, tpc = 64_000, 1000 // 64 chunks
	tf := newTestFile(t, rows, tpc, 3)
	srv := newTestServer(t, ServerConfig{Policy: core.Relevance, BufferBytes: 2 * tf.ChunkBytes()}, tf)
	want := exec.Q6Result{}
	for _, r := range chunkQ6Baseline(t, tf) {
		want.Add(r)
	}
	var got exec.Q6Result
	if _, err := srv.ScanWith(context.Background(), ScanRequest{Name: "tight", Ranges: rangeSet(0, tf.NumChunks()), Cols: Q6Cols()}, func(c int, d ChunkData) {
		got.Add(Q6Chunk(d, exec.DefaultQ6()))
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if got != want {
		t.Errorf("Q6 = %+v, want %+v", got, want)
	}
	stats := srv.Stats()
	if stats.Tables[0].ABM.Evictions == 0 {
		t.Errorf("expected ABM evictions with a 2-chunk buffer, got %+v", stats.Tables[0].ABM)
	}
}

func TestEngineCloseUnblocksScan(t *testing.T) {
	const rows, tpc = 16_000, 1000
	tf := newTestFile(t, rows, tpc, 9)
	srv := newTestServer(t, ServerConfig{Policy: core.Normal, BufferBytes: 4 * tf.ChunkBytes()}, tf)
	firstChunk := make(chan struct{})
	proceed := make(chan struct{})
	scanErr := make(chan error, 1)
	go func() {
		_, err := srv.ScanWith(context.Background(), ScanRequest{Name: "victim", Ranges: rangeSet(0, tf.NumChunks()), Cols: Q6Cols()}, func(c int, d ChunkData) {
			if c == 0 {
				firstChunk <- struct{}{}
				<-proceed
			}
		})
		scanErr <- err
	}()
	<-firstChunk
	// Close while the scan is parked inside onChunk (holding no lock).
	// Close only waits for the scheduler goroutine, so it completes; the
	// scan must then observe the shutdown and return ErrClosed rather
	// than hang on chunks that will never be loaded.
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	<-closed
	close(proceed)
	if err := <-scanErr; err == nil {
		t.Fatal("scan finished cleanly despite Close; want ErrClosed")
	}
}
