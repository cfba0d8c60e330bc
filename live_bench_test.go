// BenchmarkLiveEngine benchmarks the live (wall-clock, goroutine-based)
// cooperative scan engine end to end, one sub-benchmark per storage format
// and policy: each iteration generates nothing — the table files are built
// once — and runs a fixed 8-stream × 2-query workload of FAST (Q6) and
// SLOW (Q1) range scans over the real chunked file, so ns/op is the
// workload's aggregate wall-clock time. The nsm sub-benchmarks are the
// PR 2/3 numbers (Table 2 ordering: relevance < elevator << attach <
// normal, now in real time); the dsm sub-benchmarks run the identical
// workload over a column-major file, where queries pay only for their
// projection — MiB-read/op drops by roughly the projection ratio and
// useful-frac approaches (or exceeds, via cross-query sharing) 1.
//
// BenchmarkLiveColumnIO is the PR 5 headline artifact: an identical
// Q6-only workload over an NSM and a DSM file, reporting bytes read per
// format. Q6 projects 32 of the 112 stored bytes per tuple, so the DSM
// bytes must come in at or under ~45% of NSM's (the acceptance bound;
// the geometric ratio is ~29%).
package coopscan_test

import (
	"context"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/engine"
	"coopscan/internal/exec"
)

const (
	liveBenchRows    = 786_432
	liveBenchTPC     = 16_384 // 48 chunks × 1.75 MiB ≈ 84 MiB table
	liveBenchStreams = 8
	liveBenchQueries = 2
	liveBenchSeed    = 1
)

// liveBenchFile builds one table file of the given format under b's temp
// dir.
func liveBenchFile(b *testing.B, format engine.Format) *engine.TableFile {
	b.Helper()
	tf, err := engine.CreateFormat(filepath.Join(b.TempDir(), "live-"+format.String()+".tbl"),
		format, liveBenchRows, liveBenchTPC, liveBenchSeed)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { tf.Close() })
	return tf
}

// runLiveBenchWorkload executes one full planned workload over a
// single-table server and returns the queries' summed useful bytes.
func runLiveBenchWorkload(b *testing.B, srv *engine.Server, plan [][]engine.PlannedQuery) int64 {
	b.Helper()
	pred := exec.DefaultQ6()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var scanErr error
	var useful int64
	for s := range plan {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Staggered entry, as in the paper's streams.
			time.Sleep(time.Duration(s) * 2 * time.Millisecond)
			for _, q := range plan[s] {
				onChunk := func(_ int, d engine.ChunkData) { engine.Q6Chunk(d, pred) }
				if q.Slow {
					onChunk = func(_ int, d engine.ChunkData) { engine.Q1Chunk(d, 700, 8) }
				}
				st, err := srv.ScanWith(context.Background(), engine.ScanRequest{Name: q.Name, Ranges: q.Ranges, Cols: q.Cols}, onChunk)
				mu.Lock()
				useful += st.BytesUseful
				if err != nil && scanErr == nil {
					scanErr = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if scanErr != nil {
		b.Fatal(scanErr)
	}
	return useful
}

func BenchmarkLiveEngine(b *testing.B) {
	for _, format := range []engine.Format{engine.NSM, engine.DSM} {
		format := format
		b.Run(format.String(), func(b *testing.B) {
			tf := liveBenchFile(b, format)
			// The exact workload `coopscan multi -tables 1` runs (shared
			// planner), so the recorded numbers match the CLI.
			plan := engine.PlanWorkload(tf.NumChunks(), liveBenchStreams, liveBenchQueries, liveBenchSeed)
			for _, pol := range core.Policies {
				pol := pol
				b.Run(pol.String(), func(b *testing.B) {
					var abmLoads int
					var bytesRead, bytesUseful int64
					for i := 0; i < b.N; i++ {
						srv, err := engine.NewServer(engine.ServerConfig{
							Policy:      pol,
							BufferBytes: 8 * tf.ChunkBytes(),
						}, tf)
						if err != nil {
							b.Fatal(err)
						}
						bytesUseful += runLiveBenchWorkload(b, srv, plan)
						stats := srv.Stats()
						abmLoads += stats.Tables[0].ABM.Loads
						bytesRead += stats.Pool.BytesLoaded
						srv.Close()
					}
					n := float64(b.N)
					b.ReportMetric(float64(abmLoads)/n, "abm-loads/op")
					b.ReportMetric(float64(bytesRead)/n/(1<<20), "MiB-read/op")
					b.ReportMetric(float64(bytesUseful)/float64(bytesRead), "useful-frac")
				})
			}
		})
	}
}

// BenchmarkLiveColumnIO runs an identical Q6-only workload (every planned
// query forced FAST) over both formats and reports MiB-read/op: the DSM
// column dividend. The recorded BENCH_PR5.json pair is the acceptance
// measurement — dsm MiB-read/op ÷ nsm MiB-read/op ≤ 0.45.
func BenchmarkLiveColumnIO(b *testing.B) {
	for _, format := range []engine.Format{engine.NSM, engine.DSM} {
		format := format
		b.Run(format.String(), func(b *testing.B) {
			tf := liveBenchFile(b, format)
			plan := engine.PlanWorkload(tf.NumChunks(), liveBenchStreams, liveBenchQueries, liveBenchSeed)
			for s := range plan {
				for qi := range plan[s] {
					plan[s][qi].Slow = false
					plan[s][qi].Cols = engine.Q6Cols()
				}
			}
			for _, pol := range []core.Policy{core.Normal, core.Relevance} {
				pol := pol
				b.Run(pol.String(), func(b *testing.B) {
					var bytesRead, bytesUseful int64
					for i := 0; i < b.N; i++ {
						srv, err := engine.NewServer(engine.ServerConfig{
							Policy:      pol,
							BufferBytes: 8 * tf.ChunkBytes(),
						}, tf)
						if err != nil {
							b.Fatal(err)
						}
						bytesUseful += runLiveBenchWorkload(b, srv, plan)
						stats := srv.Stats()
						bytesRead += stats.Pool.BytesLoaded
						srv.Close()
					}
					n := float64(b.N)
					b.ReportMetric(float64(bytesRead)/n/(1<<20), "MiB-read/op")
					b.ReportMetric(float64(bytesUseful)/float64(bytesRead), "useful-frac")
				})
			}
		})
	}
}
