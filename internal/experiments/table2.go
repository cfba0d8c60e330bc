package experiments

import (
	"fmt"
	"strings"

	"coopscan/internal/core"
	"coopscan/internal/workload"
)

// Table2Opts parameterises the Table 2 reproduction (§5.2): row storage,
// 16 streams of 4 random queries from {FAST,SLOW}×{1,10,50,100}%, 16 MB
// chunks, a 64-chunk (1 GB) buffer pool, 3 s stream stagger.
type Table2Opts struct {
	SF               float64
	BufferChunks     int
	Streams          int
	QueriesPerStream int
	Seed             uint64
}

// DefaultTable2 returns the paper's configuration.
func DefaultTable2() Table2Opts {
	return Table2Opts{SF: 10, BufferChunks: 64, Streams: 16, QueriesPerStream: 4, Seed: 2007}
}

// QuickTable2 is a scaled-down configuration for tests and benchmarks.
func QuickTable2() Table2Opts {
	return Table2Opts{SF: 2, BufferChunks: 16, Streams: 6, QueriesPerStream: 3, Seed: 2007}
}

// Table2Result holds one result per policy, in core.Policies order.
type Table2Result struct {
	Opts    Table2Opts
	Results []workload.Result
}

// Spec builds the workload spec for these options (shared with Figure 4).
func (o Table2Opts) Spec() workload.Spec {
	return workload.Spec{
		Layout:           NSMLineitem(o.SF),
		Core:             core.Config{BufferBytes: int64(o.BufferChunks) * ChunkBytes},
		Streams:          o.Streams,
		QueriesPerStream: o.QueriesPerStream,
		Mix:              workload.StandardMix(),
		Seed:             o.Seed,
	}
}

// Table2 runs the experiment under all four policies.
func Table2(o Table2Opts) *Table2Result {
	return &Table2Result{Opts: o, Results: o.Spec().RunAllPolicies()}
}

// String renders the paper's Table 2 layout: system statistics, then one
// row per query class with per-policy latency, normalised latency and I/Os.
func (r *Table2Result) String() string {
	var b strings.Builder
	header(&b, fmt.Sprintf("Table 2: row-storage (NSM/PAX) policy comparison — SF %g, %d streams × %d queries, buffer %d chunks",
		r.Opts.SF, r.Opts.Streams, r.Opts.QueriesPerStream, r.Opts.BufferChunks))
	writePolicyTable(&b, r.Results)
	return b.String()
}

// writePolicyTable renders the Table 2/3 shape for any policy-set result.
func writePolicyTable(b *strings.Builder, results []workload.Result) {
	fmt.Fprintf(b, "\nSystem statistics%28s", "")
	for _, res := range results {
		fmt.Fprintf(b, "%12s", res.Policy)
	}
	fmt.Fprintln(b)
	row := func(label string, f func(workload.Result) string) {
		fmt.Fprintf(b, "  %-43s", label)
		for _, res := range results {
			fmt.Fprintf(b, "%12s", f(res))
		}
		fmt.Fprintln(b)
	}
	row("Avg. stream time (s)", func(r workload.Result) string { return fmt.Sprintf("%.2f", r.AvgStreamTime) })
	row("Avg. normalized latency", func(r workload.Result) string { return fmt.Sprintf("%.2f", r.AvgNormLatency) })
	row("Total time (s)", func(r workload.Result) string { return fmt.Sprintf("%.2f", r.Elapsed) })
	row("CPU use", func(r workload.Result) string { return fmt.Sprintf("%.2f%%", 100*r.CPUUtilisation) })
	row("I/O requests", func(r workload.Result) string { return fmt.Sprintf("%d", r.IORequests) })

	fmt.Fprintf(b, "\nQuery statistics (avg latency s / norm / IOs)\n")
	if len(results) == 0 || len(results[0].Classes) == 0 {
		return
	}
	fmt.Fprintf(b, "  %-7s %5s %10s", "query", "count", "cold")
	for _, res := range results {
		fmt.Fprintf(b, " %21s", res.Policy)
	}
	fmt.Fprintln(b)
	for ci, cs := range results[0].Classes {
		fmt.Fprintf(b, "  %-7s %5d %10.2f", cs.Template.Name(), cs.Count, cs.Standalone)
		for _, res := range results {
			c := res.Classes[ci]
			fmt.Fprintf(b, " %8.2f %5.2f %6.1f", c.AvgLatency, c.AvgNorm, c.AvgIOs)
		}
		fmt.Fprintln(b)
	}
}
