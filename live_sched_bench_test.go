// BenchmarkLiveSchedulerScaling is the live-engine counterpart of
// BenchmarkSchedulerScaling: the multi-table server under the relevance
// policy at high stream counts (64 and 256 concurrent scan goroutines over
// two real table files sharing one arbitrated budget), with
// MeasureScheduling metering every NextLoad/EnsureSpace/PickAvailable the
// scheduler goroutine and the stream goroutines execute. The headline
// metric is sched-ns/decision: with the PR-4 victim heaps and interest
// index it must stay flat as streams quadruple, where the linear-path
// scheduler's cost grew with the stream count — live confirmation of the
// simulator sweep, recorded in BENCH_PR4.json (`make bench-sched`).
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
	"coopscan/internal/storage"
	"coopscan/internal/workload"
)

func BenchmarkLiveSchedulerScaling(b *testing.B) {
	const (
		tables = 2
		rows   = 786_432
		tpc    = 16_384 // 48 chunks × 896 KiB ≈ 42 MiB per table
		seed   = 1
		readBW = 200 << 20
	)
	tfs := make([]*engine.TableFile, tables)
	for i := range tfs {
		tf, err := engine.Create(filepath.Join(b.TempDir(), fmt.Sprintf("sched%d.tbl", i)),
			rows, tpc, seed+uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		defer tf.Close()
		tfs[i] = tf
	}
	budget := int64(0)
	for _, tf := range tfs {
		budget += 8 * tf.ChunkBytes()
	}
	pred := exec.DefaultQ6()
	for _, streamsPerTable := range []int{32, 128} {
		streamsPerTable := streamsPerTable
		b.Run(fmt.Sprintf("streams%d", tables*streamsPerTable), func(b *testing.B) {
			plans := make([][][]engine.PlannedQuery, tables)
			for i, tf := range tfs {
				plans[i] = engine.PlanWorkload(tf.NumChunks(), streamsPerTable, 1, seed+uint64(i))
			}
			runLiveSchedBench(b, tfs, plans, budget, readBW, pred)
		})
	}
}

// BenchmarkLiveSchedulerScale is the PR-8 extension of the sweep above: the
// same two-table server pushed to 512/2048/4096 concurrent scan goroutines.
// Per-stream ranges are short (3–8 chunks at random offsets, Q6-class work
// only) so wall time stays bounded by compute rather than by thousands of
// full-table passes — the point is the scheduler, and the acceptance gauge
// is that sched-ns/decision stays within 1.5× from streams512 to
// streams4096 (recorded in BENCH_PR8.json via `make bench-scale`). The
// registration batch and per-stream wakeup conds are what keep this flat:
// every stream admission is one queue append plus one scheduler pass, and a
// chunk becoming available wakes only the streams that can consume it.
func BenchmarkLiveSchedulerScale(b *testing.B) {
	const (
		tables = 2
		rows   = 786_432
		tpc    = 16_384
		seed   = 1
		readBW = 200 << 20
	)
	tfs := make([]*engine.TableFile, tables)
	for i := range tfs {
		tf, err := engine.Create(filepath.Join(b.TempDir(), fmt.Sprintf("scale%d.tbl", i)),
			rows, tpc, seed+uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		defer tf.Close()
		tfs[i] = tf
	}
	budget := int64(0)
	for _, tf := range tfs {
		budget += 8 * tf.ChunkBytes()
	}
	pred := exec.DefaultQ6()
	for _, streamsPerTable := range []int{256, 1024, 2048} {
		streamsPerTable := streamsPerTable
		b.Run(fmt.Sprintf("streams%d", tables*streamsPerTable), func(b *testing.B) {
			plans := make([][][]engine.PlannedQuery, tables)
			for i, tf := range tfs {
				plans[i] = planShortStreams(tf.NumChunks(), streamsPerTable, seed+uint64(i))
			}
			runLiveSchedBench(b, tfs, plans, budget, readBW, pred)
		})
	}
}

// planShortStreams plans one short fast query per stream: 3–8 chunks at a
// random offset, Q6 projection. Deterministic per (stream, seed) like
// engine.PlanWorkload, but bounded so thousands of streams stay feasible.
func planShortStreams(numChunks, streams int, seed uint64) [][]engine.PlannedQuery {
	out := make([][]engine.PlannedQuery, streams)
	for s := range out {
		rng := workload.NewRNG(seed*1_000_003 + uint64(s))
		chunks := 3 + rng.Intn(6)
		if chunks > numChunks {
			chunks = numChunks
		}
		start := rng.Intn(numChunks - chunks + 1)
		out[s] = []engine.PlannedQuery{{
			Name:   fmt.Sprintf("F#s%d", s),
			Ranges: storage.NewRangeSet(storage.Range{Start: start, End: start + chunks}),
			Cols:   engine.Q6Cols(),
		}}
	}
	return out
}

// runLiveSchedBench drives one server per iteration through the planned
// streams and reports the scheduling-cost metrics both sweeps share.
func runLiveSchedBench(b *testing.B, tfs []*engine.TableFile, plans [][][]engine.PlannedQuery, budget int64, readBW int64, pred exec.Q6Predicate) {
	var schedNanos, schedCalls int64
	var wall time.Duration
	for i := 0; i < b.N; i++ {
		srv, err := engine.NewServer(engine.ServerConfig{
			Policy:            core.Relevance,
			BufferBytes:       budget,
			ReadBandwidth:     readBW,
			MeasureScheduling: true,
		}, tfs...)
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		var scanErr error
		start := time.Now()
		for table := range tfs {
			table := table
			for s := range plans[table] {
				s := s
				wg.Add(1)
				go func() {
					defer wg.Done()
					time.Sleep(time.Duration(s%16) * time.Millisecond)
					for _, q := range plans[table][s] {
						onChunk := func(_ int, d engine.ChunkData) { engine.Q6Chunk(d, pred) }
						if q.Slow {
							onChunk = func(_ int, d engine.ChunkData) { engine.Q1Chunk(d, 700, 8) }
						}
						if _, err := srv.ScanWith(context.Background(), engine.ScanRequest{Table: table, Name: q.Name, Ranges: q.Ranges, Cols: q.Cols}, onChunk); err != nil {
							mu.Lock()
							if scanErr == nil {
								scanErr = err
							}
							mu.Unlock()
							return
						}
					}
				}()
			}
		}
		wg.Wait()
		wall += time.Since(start)
		for _, ts := range srv.Stats().Tables {
			schedNanos += ts.SchedNanos
			schedCalls += ts.SchedCalls
		}
		srv.Close()
		if scanErr != nil {
			b.Fatal(scanErr)
		}
	}
	if schedCalls > 0 {
		b.ReportMetric(float64(schedNanos)/float64(schedCalls), "sched-ns/decision")
	}
	b.ReportMetric(float64(schedCalls)/float64(b.N), "decisions")
	b.ReportMetric(wall.Seconds()/float64(b.N), "wall-s/op")
}
