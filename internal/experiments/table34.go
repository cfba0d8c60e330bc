package experiments

import (
	"fmt"
	"math"
	"strings"

	"coopscan/internal/core"
	"coopscan/internal/storage"
	"coopscan/internal/workload"
)

// ---- Table 3 ----------------------------------------------------------------

// Table3Opts parameterises the DSM policy comparison (§6.3): lineitem at
// SF 40 (240 M tuples) in compressed column storage, a 1.5 GB buffer, 16
// streams of 4 queries, and a faster "slow" query than in NSM (the paper
// reduced its CPU cost so DSM runs are not fully CPU-bound).
type Table3Opts struct {
	SF               float64
	BufferBytes      int64
	Streams          int
	QueriesPerStream int
	Seed             uint64
	// FastCPUFactor and SlowCPUFactor are calibrated against the paper's
	// Table 3 cold times: FAST queries are dominated by per-column seeks
	// (four extents per chunk), SLOW ones by CPU, and the mix is neither
	// fully I/O- nor fully CPU-bound — the paper explicitly picked a
	// "faster slow query" so policy differences remain visible.
	FastCPUFactor float64
	SlowCPUFactor float64
}

// DefaultTable3 is the paper's configuration.
func DefaultTable3() Table3Opts {
	return Table3Opts{
		SF: 40, BufferBytes: 1536 << 20, Streams: 16, QueriesPerStream: 4,
		Seed: 2007, FastCPUFactor: 0.06, SlowCPUFactor: 0.3,
	}
}

// QuickTable3 is a scaled-down configuration.
func QuickTable3() Table3Opts {
	return Table3Opts{SF: 10, BufferBytes: 512 << 20, Streams: 8, QueriesPerStream: 3,
		Seed: 2007, FastCPUFactor: 0.06, SlowCPUFactor: 0.3}
}

// Table3Result holds one result per policy.
type Table3Result struct {
	Opts    Table3Opts
	Results []workload.Result
}

// Spec builds the DSM workload spec.
func (o Table3Opts) Spec() workload.Spec {
	return workload.Spec{
		Layout:           DSMLineitem(o.SF),
		Core:             core.Config{BufferBytes: o.BufferBytes},
		Streams:          o.Streams,
		QueriesPerStream: o.QueriesPerStream,
		Mix:              workload.StandardMix(),
		Seed:             o.Seed,
		FastCPUFactor:    o.FastCPUFactor,
		SlowCPUFactor:    o.SlowCPUFactor,
		Cols:             speedCols,
	}
}

// Table3 runs the DSM experiment under all four policies.
func Table3(o Table3Opts) *Table3Result {
	return &Table3Result{Opts: o, Results: o.Spec().RunAllPolicies()}
}

func (r *Table3Result) String() string {
	var b strings.Builder
	header(&b, fmt.Sprintf("Table 3: column-storage (DSM) policy comparison — SF %g, %d streams × %d queries, buffer %d MB",
		r.Opts.SF, r.Opts.Streams, r.Opts.QueriesPerStream, r.Opts.BufferBytes>>20))
	writePolicyTable(&b, r.Results)
	return b.String()
}

// ---- Table 4 ----------------------------------------------------------------

// Table4Opts parameterises the DSM column-overlap experiment (§6.3.1): a
// 200 M-tuple synthetic relation with ten 8-byte columns A..J, 1 GB buffer,
// 16 streams of 4 queries each scanning 3 adjacent columns over a 40% range.
type Table4Opts struct {
	Rows             int64
	BufferBytes      int64
	Streams          int
	QueriesPerStream int
	Seed             uint64
	ScanPct          float64
	// FastCPUFactor keeps the 3-column scans I/O-bound (the regime where
	// the paper's overlap effects show up in latency, not just I/O counts).
	FastCPUFactor float64
}

// DefaultTable4 is the paper's configuration.
func DefaultTable4() Table4Opts {
	return Table4Opts{Rows: 200_000_000, BufferBytes: 1 << 30, Streams: 16,
		QueriesPerStream: 4, Seed: 4, ScanPct: 40, FastCPUFactor: 0.1}
}

// QuickTable4 is a scaled-down configuration.
func QuickTable4() Table4Opts {
	return Table4Opts{Rows: 60_000_000, BufferBytes: 384 << 20, Streams: 6,
		QueriesPerStream: 2, Seed: 4, ScanPct: 40, FastCPUFactor: 0.1}
}

// Table4Variant is one row family of Table 4: the set of column triples the
// queries draw from.
type Table4Variant struct {
	Label   string
	Triples []string // e.g. "ABC", "BCD": adjacent column triples
}

// Table4Variants lists the paper's variants: non-overlapping query
// families, then partially-overlapping ones.
func Table4Variants() []Table4Variant {
	return []Table4Variant{
		{Label: "ABC", Triples: []string{"ABC"}},
		{Label: "ABC,DEF", Triples: []string{"ABC", "DEF"}},
		{Label: "ABC,BCD", Triples: []string{"ABC", "BCD"}},
		{Label: "ABC,BCD,CDE", Triples: []string{"ABC", "BCD", "CDE"}},
		{Label: "ABC,BCD,CDE,DEF", Triples: []string{"ABC", "BCD", "CDE", "DEF"}},
	}
}

// Table4Row is one measured variant under one policy.
type Table4Row struct {
	Variant    string
	Policy     core.Policy
	IORequests int
	BytesRead  int64
	Loads      int
	Evictions  int
	AvgLatency float64
	StdDev     float64
}

// Table4Result carries all variant × policy rows.
type Table4Result struct {
	Opts Table4Opts
	Rows []Table4Row
}

// syntheticTenColTable builds the A..J relation.
func SyntheticTenColTable(rows int64) *storage.DSMLayout {
	cols := make([]storage.Column, 10)
	for i := range cols {
		cols[i] = storage.Column{
			Name: string(rune('A' + i)), Type: storage.Int64, BitsPerValue: 64,
		}
	}
	tab := &storage.Table{Name: "synthetic10", Columns: cols, Rows: rows}
	// 1 M-tuple logical chunks (8 MB per column chunk), read in the paper's
	// 16 MB physical blocks: two adjacent chunks share every block.
	return storage.NewDSMLayout(tab, 1_000_000, ChunkBytes, 0)
}

// tripleCols converts "ABC" to a ColSet.
func tripleCols(triple string) storage.ColSet {
	var s storage.ColSet
	for _, r := range triple {
		s = s.Add(int(r - 'A'))
	}
	return s
}

// Table4 measures normal and relevance over each overlap variant.
func Table4(o Table4Opts) *Table4Result {
	out := &Table4Result{Opts: o}
	layout := SyntheticTenColTable(o.Rows)
	for _, variant := range Table4Variants() {
		var mix workload.Mix
		mix.Label = variant.Label
		for _, triple := range variant.Triples {
			mix.Templates = append(mix.Templates, workload.Template{
				Speed:   workload.Fast,
				Percent: o.ScanPct,
				Cols:    workload.ColSetOverride(tripleCols(triple)),
				Label:   triple,
			})
		}
		for _, pol := range []core.Policy{core.Normal, core.Relevance} {
			spec := workload.Spec{
				Layout:           layout,
				Core:             core.Config{Policy: pol, BufferBytes: o.BufferBytes},
				Streams:          o.Streams,
				QueriesPerStream: o.QueriesPerStream,
				Mix:              mix,
				Seed:             o.Seed,
				FastCPUFactor:    o.FastCPUFactor,
			}
			res := spec.Run()
			var sum, sum2 float64
			for _, q := range res.Queries {
				sum += q.Stats.Latency()
			}
			avg := sum / float64(len(res.Queries))
			for _, q := range res.Queries {
				d := q.Stats.Latency() - avg
				sum2 += d * d
			}
			out.Rows = append(out.Rows, Table4Row{
				Variant:    variant.Label,
				Policy:     pol,
				IORequests: res.IORequests,
				BytesRead:  res.BytesRead,
				Loads:      res.Loads,
				Evictions:  res.Evictions,
				AvgLatency: avg,
				StdDev:     sqrt(sum2 / float64(len(res.Queries))),
			})
		}
	}
	return out
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

func (r *Table4Result) String() string {
	var b strings.Builder
	header(&b, "Table 4: DSM column-overlap — 10×8B columns, 40% scans of 3 adjacent columns")
	fmt.Fprintf(&b, "%-18s %16s %28s\n", "queries (columns)", "Normal", "Relevance")
	fmt.Fprintf(&b, "%-18s %8s %10s±%-6s %8s %10s±%-6s\n", "", "IOs", "lat", "sd", "IOs", "lat", "sd")
	byVariant := map[string][]Table4Row{}
	var order []string
	for _, row := range r.Rows {
		if len(byVariant[row.Variant]) == 0 {
			order = append(order, row.Variant)
		}
		byVariant[row.Variant] = append(byVariant[row.Variant], row)
	}
	for _, v := range order {
		rows := byVariant[v]
		var n, rel Table4Row
		for _, row := range rows {
			if row.Policy == core.Normal {
				n = row
			} else {
				rel = row
			}
		}
		fmt.Fprintf(&b, "%-18s %8d %10.2f±%-6.2f %8d %10.2f±%-6.2f\n",
			v, n.IORequests, n.AvgLatency, n.StdDev, rel.IORequests, rel.AvgLatency, rel.StdDev)
	}
	return b.String()
}
