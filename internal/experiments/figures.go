package experiments

import (
	"fmt"
	"strings"

	"coopscan/internal/core"
	"coopscan/internal/workload"
)

// ---- Figure 2 ---------------------------------------------------------------

// Fig2Point is one curve point of Figure 2: the probability of finding at
// least one useful chunk in a randomly-filled buffer pool.
type Fig2Point struct {
	BufferPct int     // buffer pool size as % of the table
	Needed    int     // chunks the query needs (out of Table total)
	P         float64 // probability of at least one useful buffered chunk
}

// Fig2Result holds the analytic curves of the paper's formula (1).
type Fig2Result struct {
	TableChunks int
	Points      []Fig2Point
}

// ReuseProbability evaluates the paper's formula (1):
// P = 1 - Π_{i=0}^{CB-1} (CT-CQ-i)/(CT-i).
func ReuseProbability(tableChunks, queryChunks, bufferChunks int) float64 {
	p := 1.0
	for i := 0; i < bufferChunks; i++ {
		num := float64(tableChunks - queryChunks - i)
		den := float64(tableChunks - i)
		if num <= 0 || den <= 0 {
			return 1
		}
		p *= num / den
	}
	return 1 - p
}

// Fig2 computes the five curves of Figure 2 over a 100-chunk table.
func Fig2() *Fig2Result {
	const ct = 100
	r := &Fig2Result{TableChunks: ct}
	for _, bufPct := range []int{1, 5, 10, 20, 50} {
		cb := ct * bufPct / 100
		for cq := 1; cq <= ct; cq++ {
			r.Points = append(r.Points, Fig2Point{
				BufferPct: bufPct, Needed: cq, P: ReuseProbability(ct, cq, cb),
			})
		}
	}
	return r
}

func (r *Fig2Result) String() string {
	var b strings.Builder
	header(&b, "Figure 2: P(useful chunk in randomly-filled buffer), 100-chunk table")
	fmt.Fprintf(&b, "%8s", "needed")
	for _, bufPct := range []int{1, 5, 10, 20, 50} {
		fmt.Fprintf(&b, " %6d%%", bufPct)
	}
	fmt.Fprintln(&b)
	for cq := 10; cq <= 100; cq += 10 {
		fmt.Fprintf(&b, "%8d", cq)
		for _, bufPct := range []int{1, 5, 10, 20, 50} {
			for _, p := range r.Points {
				if p.BufferPct == bufPct && p.Needed == cq {
					fmt.Fprintf(&b, " %7.3f", p.P)
				}
			}
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// ---- Figure 4 ---------------------------------------------------------------

// Fig4Result carries the per-policy disk access traces of the Table 2 run:
// which chunk the disk served over time.
type Fig4Result struct {
	Opts   Table2Opts
	Traces map[string][]Fig4Point // policy name -> points
}

// Fig4Point is one disk request: at Time, chunk Chunk was read.
type Fig4Point struct {
	Time  float64
	Chunk int
}

// Fig4 replays the Table 2 workload per policy with disk tracing enabled.
func Fig4(o Table2Opts) *Fig4Result {
	out := &Fig4Result{Opts: o, Traces: make(map[string][]Fig4Point)}
	for _, pol := range core.Policies {
		spec := o.Spec()
		spec.Core.Policy = pol
		spec.TraceDisk = 1 << 20
		res := spec.Run()
		pts := make([]Fig4Point, 0, len(res.DiskTrace))
		for _, te := range res.DiskTrace {
			pts = append(pts, Fig4Point{Time: te.Start, Chunk: te.Chunk})
		}
		out.Traces[pol.String()] = pts
	}
	return out
}

func (r *Fig4Result) String() string {
	var b strings.Builder
	header(&b, "Figure 4: disk accesses over time (time_s chunk), per policy")
	for _, pol := range core.Policies {
		pts := r.Traces[pol.String()]
		fmt.Fprintf(&b, "\n# policy=%s requests=%d\n", pol, len(pts))
		// Sample at most 60 points for terminal display; the full series
		// is available programmatically.
		step := len(pts)/60 + 1
		for i := 0; i < len(pts); i += step {
			fmt.Fprintf(&b, "%9.2f %5d\n", pts[i].Time, pts[i].Chunk)
		}
	}
	return b.String()
}

// ---- Figure 5 ---------------------------------------------------------------

// Fig5Opts parameterises the query-mix scatter experiment (§5.2.1).
type Fig5Opts struct {
	SF           float64
	BufferChunks int
	Streams      int
	QPS          int
	Seed         uint64
	Mixes        []workload.Mix
}

// DefaultFig5 is the paper's configuration: all fifteen SPEED-SIZE mixes.
func DefaultFig5() Fig5Opts {
	return Fig5Opts{SF: 10, BufferChunks: 64, Streams: 16, QPS: 4, Seed: 5, Mixes: workload.Figure5Mixes()}
}

// QuickFig5 runs three representative mixes at small scale.
func QuickFig5() Fig5Opts {
	return Fig5Opts{SF: 2, BufferChunks: 16, Streams: 4, QPS: 2, Seed: 5,
		Mixes: []workload.Mix{workload.MustMix("SF-M"), workload.MustMix("F-S"), workload.MustMix("S-L")}}
}

// Fig5Point is one scatter point: a (policy, mix) run normalised to the
// relevance run of the same mix.
type Fig5Point struct {
	Policy          core.Policy
	Mix             string
	StreamTimeRatio float64 // avg stream time / relevance's
	NormLatRatio    float64 // avg normalised latency / relevance's
}

// Fig5Result is the scatter of Figure 5; relevance is the (1,1) point.
type Fig5Result struct {
	Opts   Fig5Opts
	Points []Fig5Point
}

// Fig5 runs every mix under every policy.
func Fig5(o Fig5Opts) *Fig5Result {
	out := &Fig5Result{Opts: o}
	for _, mix := range o.Mixes {
		spec := workload.Spec{
			Layout:           NSMLineitem(o.SF),
			Core:             core.Config{BufferBytes: int64(o.BufferChunks) * ChunkBytes},
			Streams:          o.Streams,
			QueriesPerStream: o.QPS,
			Mix:              mix,
			Seed:             o.Seed,
		}
		results := spec.RunAllPolicies()
		var rel workload.Result
		for _, r := range results {
			if r.Policy == core.Relevance {
				rel = r
			}
		}
		for _, r := range results {
			if r.Policy == core.Relevance {
				continue
			}
			out.Points = append(out.Points, Fig5Point{
				Policy:          r.Policy,
				Mix:             mix.Label,
				StreamTimeRatio: r.AvgStreamTime / rel.AvgStreamTime,
				NormLatRatio:    r.AvgNormLatency / rel.AvgNormLatency,
			})
		}
	}
	return out
}

func (r *Fig5Result) String() string {
	var b strings.Builder
	header(&b, "Figure 5: policy performance relative to relevance (stream-time ratio, norm-latency ratio)")
	fmt.Fprintf(&b, "%-8s", "mix")
	for _, pol := range []core.Policy{core.Normal, core.Attach, core.Elevator} {
		fmt.Fprintf(&b, " %9s-t %9s-l", pol, pol)
	}
	fmt.Fprintln(&b)
	byMix := map[string]map[core.Policy]Fig5Point{}
	var order []string
	for _, p := range r.Points {
		if byMix[p.Mix] == nil {
			byMix[p.Mix] = map[core.Policy]Fig5Point{}
			order = append(order, p.Mix)
		}
		byMix[p.Mix][p.Policy] = p
	}
	for _, mix := range order {
		fmt.Fprintf(&b, "%-8s", mix)
		for _, pol := range []core.Policy{core.Normal, core.Attach, core.Elevator} {
			p := byMix[mix][pol]
			fmt.Fprintf(&b, " %11.2f %11.2f", p.StreamTimeRatio, p.NormLatRatio)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "(relevance = 1.00, 1.00 by definition; ratios > 1 mean relevance wins)\n")
	return b.String()
}
