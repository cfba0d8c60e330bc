// BenchmarkMultiTableLive benchmarks the multi-table live server end to
// end: two real table files served under ONE shared, demand-arbitrated
// buffer budget, 8 query streams per table (16 concurrent streams total)
// of FAST (Q6) and SLOW (Q1) range scans — the exact workload `coopscan
// multi -read-mbps 200` runs — one sub-benchmark per policy × in-flight
// depth. Loads run under the engine's device-bandwidth model (200 MiB/s
// per load stream, the simulator's RAID figure): on a build machine the
// table files sit in the page cache, where re-reads cost nothing and every
// policy degenerates to memcpy speed, so the model is what makes the
// numbers say anything about scheduling (and lets aggregate device
// bandwidth scale with in-flight depth, as on real RAID/SSD).
//
// ns/op is the workload's aggregate wall-clock time; read-MiB/s is the
// rate at which the shared pool pulled real bytes, delivered-MiB/s the
// rate at which chunk bytes reached the query kernels (delivered work is
// fixed by the workload, so it is the fair aggregate-bandwidth measure
// for policies that avoid re-reads). The two headline comparisons
// recorded in BENCH_PR3.json:
//
//   - relevance vs normal at equal depth: the paper's bandwidth-sharing
//     win must survive tables competing for one budget;
//   - depth 4 vs depth 1 for a fixed policy: the bounded in-flight load
//     queue must raise aggregate delivered bandwidth over
//     one-read-at-a-time.
package coopscan_test

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/engine"
	"coopscan/internal/exec"
)

const (
	multiBenchTables  = 2
	multiBenchRows    = 786_432
	multiBenchTPC     = 16_384 // 48 chunks × 896 KiB ≈ 42 MiB per table
	multiBenchStreams = 8      // per table
	multiBenchQueries = 2
	multiBenchSeed    = 1
	multiBenchReadBW  = 200 << 20 // device model: 200 MiB/s per load stream
)

func BenchmarkMultiTableLive(b *testing.B) {
	tfs := make([]*engine.TableFile, multiBenchTables)
	for i := range tfs {
		tf, err := engine.Create(filepath.Join(b.TempDir(), fmt.Sprintf("multi%d.tbl", i)),
			multiBenchRows, multiBenchTPC, multiBenchSeed+uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		defer tf.Close()
		tfs[i] = tf
	}
	// One shared budget of 8 chunks per table's worth (~17% of the combined
	// footprint, the BenchmarkLiveEngine ratio): each table alone would be
	// comfortable, together they must arbitrate.
	budget := int64(0)
	for _, tf := range tfs {
		budget += 8 * tf.ChunkBytes()
	}
	// The exact per-table workloads `coopscan multi` runs (shared planner).
	plans := make([][][]engine.PlannedQuery, multiBenchTables)
	for i, tf := range tfs {
		plans[i] = engine.PlanWorkload(tf.NumChunks(), multiBenchStreams, multiBenchQueries,
			multiBenchSeed+uint64(i))
	}
	pred := exec.DefaultQ6()
	for _, pol := range core.Policies {
		for _, depth := range []int{1, 4} {
			pol, depth := pol, depth
			b.Run(fmt.Sprintf("%s/depth%d", pol, depth), func(b *testing.B) {
				var abmLoads, deliveredChunks int
				var bytesRead int64
				var wall time.Duration
				for i := 0; i < b.N; i++ {
					srv, err := engine.NewServer(engine.ServerConfig{
						Policy:        pol,
						BufferBytes:   budget,
						InFlightDepth: depth,
						ReadBandwidth: multiBenchReadBW,
					}, tfs...)
					if err != nil {
						b.Fatal(err)
					}
					var wg sync.WaitGroup
					var scanErr error
					var mu sync.Mutex
					start := time.Now()
					for table := range tfs {
						table := table
						for s := range plans[table] {
							s := s
							wg.Add(1)
							go func() {
								defer wg.Done()
								// Staggered entry, as in the paper's streams.
								time.Sleep(time.Duration(s) * 2 * time.Millisecond)
								for _, q := range plans[table][s] {
									onChunk := func(_ int, d engine.ChunkData) { engine.Q6Chunk(d, pred) }
									if q.Slow {
										onChunk = func(_ int, d engine.ChunkData) { engine.Q1Chunk(d, 700, 8) }
									}
									st, err := srv.ScanWith(context.Background(), engine.ScanRequest{Table: table, Name: q.Name, Ranges: q.Ranges, Cols: q.Cols}, onChunk)
									mu.Lock()
									if err != nil && scanErr == nil {
										scanErr = err
									}
									deliveredChunks += st.Chunks
									mu.Unlock()
									if err != nil {
										return
									}
								}
							}()
						}
					}
					wg.Wait()
					wall += time.Since(start)
					stats := srv.Stats()
					for _, ts := range stats.Tables {
						abmLoads += ts.ABM.Loads
					}
					bytesRead += stats.Pool.BytesLoaded
					srv.Close()
					if scanErr != nil {
						b.Fatal(scanErr)
					}
				}
				n := float64(b.N)
				readMiB := float64(bytesRead) / (1 << 20)
				deliveredMiB := float64(deliveredChunks) * float64(tfs[0].ChunkBytes()) / (1 << 20)
				b.ReportMetric(float64(abmLoads)/n, "abm-loads/op")
				b.ReportMetric(readMiB/n, "MiB-read/op")
				b.ReportMetric(readMiB/wall.Seconds(), "read-MiB/s")
				b.ReportMetric(deliveredMiB/wall.Seconds(), "delivered-MiB/s")
			})
		}
	}
}
