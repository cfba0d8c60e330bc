package experiments

import (
	"fmt"
	"strings"

	"coopscan/internal/core"
	"coopscan/internal/storage"
	"coopscan/internal/tpch"
	"coopscan/internal/workload"
)

// ---- Figure 6 ---------------------------------------------------------------

// Fig6Opts parameterises the buffer-capacity sweep (§5.2.2): a 2 GB table
// (fully cacheable at 100%), buffer from 12.5% to 100% of the table, 8
// streams of 4 queries; one CPU-intensive set (FAST+SLOW) and one
// I/O-intensive set (FAST only).
type Fig6Opts struct {
	TableChunks int // 2 GB / 16 MB = 128
	Streams     int
	QPS         int
	Seed        uint64
	Fractions   []float64
}

// DefaultFig6 is the paper's configuration.
func DefaultFig6() Fig6Opts {
	return Fig6Opts{
		TableChunks: 128, Streams: 8, QPS: 4, Seed: 6,
		Fractions: []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0},
	}
}

// QuickFig6 is a scaled-down configuration.
func QuickFig6() Fig6Opts {
	return Fig6Opts{TableChunks: 32, Streams: 3, QPS: 2, Seed: 6,
		Fractions: []float64{0.25, 0.5, 1.0}}
}

// Fig6Point is one (query set, buffer fraction, policy) measurement.
type Fig6Point struct {
	Set        string // "cpu" or "io"
	Fraction   float64
	Policy     core.Policy
	IORequests int
	SystemTime float64
	AvgNormLat float64
}

// Fig6Result carries the six panels of Figure 6.
type Fig6Result struct {
	Opts   Fig6Opts
	Points []Fig6Point
}

// fig6Mixes returns the two query sets of the figure.
func fig6Mixes() map[string]workload.Mix {
	cpu := workload.StandardMix() // S-01..S-100 + F-01..F-100
	cpu.Label = "cpu-intensive"
	var io workload.Mix
	io.Label = "io-intensive"
	for _, pct := range []float64{1, 10, 50, 100} {
		io.Templates = append(io.Templates, workload.Template{Speed: workload.Fast, Percent: pct})
	}
	return map[string]workload.Mix{"cpu": cpu, "io": io}
}

// Fig6 sweeps buffer capacity for both query sets under all policies.
func Fig6(o Fig6Opts) *Fig6Result {
	out := &Fig6Result{Opts: o}
	rows := int64(float64(o.TableChunks) * ChunkBytes / PAXTupleBytes)
	tab := tpch.LineitemTable(float64(rows) / tpch.RowsPerSF)
	layout := storage.NewNSMLayoutWidth(tab, ChunkBytes, 0, PAXTupleBytes)
	for _, set := range []string{"cpu", "io"} {
		mix := fig6Mixes()[set]
		for _, frac := range o.Fractions {
			bufChunks := int(float64(o.TableChunks) * frac)
			if bufChunks < 2 {
				bufChunks = 2
			}
			spec := workload.Spec{
				Layout:           layout,
				Core:             core.Config{BufferBytes: int64(bufChunks) * ChunkBytes},
				Streams:          o.Streams,
				QueriesPerStream: o.QPS,
				Mix:              mix,
				Seed:             o.Seed,
			}
			for _, res := range spec.RunAllPolicies() {
				out.Points = append(out.Points, Fig6Point{
					Set: set, Fraction: frac, Policy: res.Policy,
					IORequests: res.IORequests,
					SystemTime: res.Elapsed,
					AvgNormLat: res.AvgNormLatency,
				})
			}
		}
	}
	return out
}

func (r *Fig6Result) String() string {
	var b strings.Builder
	header(&b, "Figure 6: behaviour under varying buffer pool capacity")
	for _, set := range []string{"cpu", "io"} {
		fmt.Fprintf(&b, "\n[%s-intensive query set]\n", set)
		fmt.Fprintf(&b, "%8s", "buffer%")
		for _, pol := range core.Policies {
			fmt.Fprintf(&b, " %10s-io %9s-t %9s-l", pol, pol, pol)
		}
		fmt.Fprintln(&b)
		for _, frac := range r.Opts.Fractions {
			fmt.Fprintf(&b, "%7.1f%%", 100*frac)
			for _, pol := range core.Policies {
				for _, p := range r.Points {
					if p.Set == set && p.Fraction == frac && p.Policy == pol {
						fmt.Fprintf(&b, " %13d %11.1f %11.2f", p.IORequests, p.SystemTime, p.AvgNormLat)
					}
				}
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}

// ---- Figure 7 ---------------------------------------------------------------

// Fig7Opts parameterises the concurrency sweep (§5.2.3): 1..32 concurrent
// queries, each scanning 5, 20 or 50% of the relation, 1 GB buffer.
type Fig7Opts struct {
	SF           float64
	BufferChunks int
	Queries      []int
	ScanPcts     []float64
	Seed         uint64
}

// DefaultFig7 is the paper's configuration.
func DefaultFig7() Fig7Opts {
	return Fig7Opts{SF: 10, BufferChunks: 64,
		Queries: []int{1, 2, 4, 8, 16, 32}, ScanPcts: []float64{5, 20, 50}, Seed: 7}
}

// QuickFig7 is a scaled-down configuration.
func QuickFig7() Fig7Opts {
	return Fig7Opts{SF: 2, BufferChunks: 16, Queries: []int{1, 4, 8}, ScanPcts: []float64{20}, Seed: 7}
}

// Fig7Point is one (scan %, concurrency, policy) → average query latency.
type Fig7Point struct {
	ScanPct    float64
	Queries    int
	Policy     core.Policy
	AvgLatency float64
}

// Fig7Result carries the three panels of Figure 7.
type Fig7Result struct {
	Opts   Fig7Opts
	Points []Fig7Point
}

// Fig7 runs n concurrent FAST queries per point (one query per stream, a
// short stagger so arrival order is defined).
func Fig7(o Fig7Opts) *Fig7Result {
	out := &Fig7Result{Opts: o}
	layout := NSMLineitem(o.SF)
	for _, pct := range o.ScanPcts {
		for _, n := range o.Queries {
			var mix workload.Mix
			mix.Label = fmt.Sprintf("F-%g×%d", pct, n)
			mix.Templates = []workload.Template{{Speed: workload.Fast, Percent: pct}}
			spec := workload.Spec{
				Layout:           layout,
				Core:             core.Config{BufferBytes: int64(o.BufferChunks) * ChunkBytes},
				Streams:          n,
				QueriesPerStream: 1,
				StreamDelay:      0.1,
				Mix:              mix,
				Seed:             o.Seed,
			}
			for _, res := range spec.RunAllPolicies() {
				var sum float64
				for _, q := range res.Queries {
					sum += q.Stats.Latency()
				}
				out.Points = append(out.Points, Fig7Point{
					ScanPct: pct, Queries: n, Policy: res.Policy,
					AvgLatency: sum / float64(len(res.Queries)),
				})
			}
		}
	}
	return out
}

func (r *Fig7Result) String() string {
	var b strings.Builder
	header(&b, "Figure 7: average query latency vs number of concurrent queries")
	for _, pct := range r.Opts.ScanPcts {
		fmt.Fprintf(&b, "\n[%g%% scans]\n%9s", pct, "#queries")
		for _, pol := range core.Policies {
			fmt.Fprintf(&b, " %11s", pol)
		}
		fmt.Fprintln(&b)
		for _, n := range r.Opts.Queries {
			fmt.Fprintf(&b, "%9d", n)
			for _, pol := range core.Policies {
				for _, p := range r.Points {
					if p.ScanPct == pct && p.Queries == n && p.Policy == pol {
						fmt.Fprintf(&b, " %11.2f", p.AvgLatency)
					}
				}
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}

// ---- Figure 8 ---------------------------------------------------------------

// Fig8Opts parameterises the scheduling-cost experiment (§5.2.4): a 2 GB
// relation divided into 128..2048 chunks, 16 streams of 4 I/O-bound queries
// of one size (1, 10 or 100%), relevance policy, wall-clock measurement of
// scheduling decisions.
type Fig8Opts struct {
	TableBytes int64
	ChunkCount []int
	ScanPcts   []float64
	Streams    int
	QPS        int
	Seed       uint64
}

// DefaultFig8 is the paper's configuration.
func DefaultFig8() Fig8Opts {
	return Fig8Opts{
		TableBytes: 2 << 30,
		ChunkCount: []int{128, 256, 512, 1024, 2048},
		ScanPcts:   []float64{1, 10, 100},
		Streams:    16, QPS: 4, Seed: 8,
	}
}

// QuickFig8 is a scaled-down configuration.
func QuickFig8() Fig8Opts {
	return Fig8Opts{TableBytes: 512 << 20, ChunkCount: []int{64, 128}, ScanPcts: []float64{10},
		Streams: 4, QPS: 2, Seed: 8}
}

// Fig8Point reports the scheduling cost at one (chunk count, scan size).
type Fig8Point struct {
	Chunks      int
	ScanPct     float64
	PerQueryMS  float64 // wall-clock scheduling ms per executed query
	ExecFrac    float64 // scheduling time / (simulated) execution time
	PerDecision float64 // µs per scheduling decision
}

// Fig8Result carries both panels of Figure 8.
type Fig8Result struct {
	Opts   Fig8Opts
	Points []Fig8Point
}

// Fig8 measures the relevance policy's real decision cost while the
// simulated workload runs. The fraction panel compares wall-clock
// scheduling cost against the simulated execution time, mirroring the
// paper's real-machine ratio.
func Fig8(o Fig8Opts) *Fig8Result {
	out := &Fig8Result{Opts: o}
	for _, nChunks := range o.ChunkCount {
		chunkBytes := o.TableBytes / int64(nChunks)
		rows := o.TableBytes / int64(PAXTupleBytes)
		tab := tpch.LineitemTable(float64(rows) / tpch.RowsPerSF)
		layout := storage.NewNSMLayoutWidth(tab, chunkBytes, 0, PAXTupleBytes)
		for _, pct := range o.ScanPcts {
			var mix workload.Mix
			mix.Label = fmt.Sprintf("F-%g", pct)
			mix.Templates = []workload.Template{{Speed: workload.Fast, Percent: pct}}
			spec := workload.Spec{
				Layout:           layout,
				Core:             core.Config{Policy: core.Relevance, BufferBytes: o.TableBytes / 2, MeasureScheduling: true},
				Streams:          o.Streams,
				QueriesPerStream: o.QPS,
				StreamDelay:      1,
				Mix:              mix,
				Seed:             o.Seed,
			}
			res := spec.Run()
			nq := float64(len(res.Queries))
			pt := Fig8Point{Chunks: nChunks, ScanPct: pct}
			pt.PerQueryMS = float64(res.SchedTime) / 1e6 / nq
			if res.Elapsed > 0 {
				pt.ExecFrac = float64(res.SchedTime) / 1e9 / res.Elapsed
			}
			if res.SchedCalls > 0 {
				pt.PerDecision = float64(res.SchedTime) / 1e3 / float64(res.SchedCalls)
			}
			out.Points = append(out.Points, pt)
		}
	}
	return out
}

func (r *Fig8Result) String() string {
	var b strings.Builder
	header(&b, "Figure 8: relevance scheduling cost vs chunk count (wall clock)")
	fmt.Fprintf(&b, "%8s", "chunks")
	for _, pct := range r.Opts.ScanPcts {
		fmt.Fprintf(&b, " %8g%%-ms %8g%%-fr %8g%%-µs", pct, pct, pct)
	}
	fmt.Fprintln(&b)
	for _, n := range r.Opts.ChunkCount {
		fmt.Fprintf(&b, "%8d", n)
		for _, pct := range r.Opts.ScanPcts {
			for _, p := range r.Points {
				if p.Chunks == n && p.ScanPct == pct {
					fmt.Fprintf(&b, " %11.3f %11.5f %11.2f", p.PerQueryMS, p.ExecFrac, p.PerDecision)
				}
			}
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "(ms = scheduling ms per query; fr = fraction of execution time; µs = per decision)\n")
	return b.String()
}
