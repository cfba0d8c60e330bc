// Benchmarks of the simulator that no experiment covers as a sweep: the
// relevance scheduler's decision cost at scale (make bench-sched and
// bench-scale record it) and the chunk-size trade-off. Every table and
// figure of the paper's evaluation is regenerated by
//
//	go run ./cmd/coopscan -exp all -quick
//
// and checked by internal/experiments' tests.
package coopscan_test

import (
	"testing"

	"coopscan/internal/core"
	"coopscan/internal/experiments"
	"coopscan/internal/workload"
)

// BenchmarkSchedulerScaling measures the relevance scheduler's decision
// cost at high concurrency and fine chunking (the large-scale extension of
// Figure 8), one sub-benchmark per (queries, chunks) point. The points
// table through q512 IS the PR-4 acceptance configuration: the
// sched-ns/decision metric at q256 is the acceptance gauge (≥3× lower than
// the pre-heap linear paths, recorded in BENCH_PR4.json); q64 keeps the
// PR-1..3 records' unbatched stream shape and stays comparable to them.
// q4096/q8192 extend the sweep an order of magnitude for PR 8: with the
// per-query availability heaps and incremental candidate maintenance,
// sched-ns/decision must stay flat from q512 to q8192 (BENCH_PR8.json).
// -benchmem's allocs/op tracks the hot paths' allocation behaviour.
func BenchmarkSchedulerScaling(b *testing.B) {
	quick := experiments.QuickSchedScaling()
	points := []struct {
		name            string
		queries, chunks int
		batch           int
	}{
		{"q64", 64, quick.Chunks, 1},
		{"q256", 256, quick.Chunks, 16},
		{"q512", 512, quick.Chunks, 16},
		{"q4096", 4096, quick.Chunks, 16},
		{"q8192", 8192, quick.Chunks, 16},
		{"q256-chunks1024", 256, 1024, 16},
		{"q256-chunks2048", 256, 2048, 16},
	}
	for _, pt := range points {
		pt := pt
		b.Run(pt.name, func(b *testing.B) {
			opts := quick
			opts.Queries = []int{pt.queries}
			opts.Chunks = pt.chunks
			opts.StreamBatch = pt.batch
			var r *experiments.SchedScalingResult
			for i := 0; i < b.N; i++ {
				r = experiments.SchedScaling(opts)
			}
			last := r.Points[len(r.Points)-1]
			b.ReportMetric(last.PerDecision, "sched-ns/decision")
			b.ReportMetric(float64(last.Decisions), "decisions")
			b.ReportMetric(float64(last.IORequests), "ios")
		})
	}
}

// BenchmarkAblationChunkSize sweeps the scan I/O unit: smaller chunks mean
// finer scheduling but more seeks (the trade-off behind the paper's 16 MB
// choice and Figure 8's cost growth).
func BenchmarkAblationChunkSize(b *testing.B) {
	for _, mb := range []int64{4, 16, 64} {
		b.Run(benchName("chunkMB", int(mb)), func(b *testing.B) {
			var r workload.Result
			for i := 0; i < b.N; i++ {
				opts := experiments.QuickTable2()
				spec := opts.Spec()
				layout := experiments.NSMLineitemChunk(opts.SF, mb<<20)
				spec.Layout = layout
				spec.Core.BufferBytes = int64(opts.BufferChunks) * 16 << 20 // same bytes
				spec.Core.Policy = core.Relevance
				r = spec.Run()
			}
			b.ReportMetric(r.AvgStreamTime, "streamtime")
			b.ReportMetric(float64(r.IORequests), "ios")
		})
	}
}

func benchName(k string, v int) string { return k + "=" + itoa(v) }

func itoa(v int) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}
