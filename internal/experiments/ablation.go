package experiments

import (
	"fmt"
	"strings"

	"coopscan/internal/core"
	"coopscan/internal/workload"
)

// AblationOpts parameterises the design-choice ablation study over the
// Table 2 workload: each row disables or re-tunes one ingredient of the
// relevance policy (or a framework knob) and reports the headline metrics.
type AblationOpts struct {
	Base Table2Opts
}

// DefaultAblation uses the full Table 2 configuration.
func DefaultAblation() AblationOpts { return AblationOpts{Base: DefaultTable2()} }

// QuickAblation uses the scaled-down configuration.
func QuickAblation() AblationOpts { return AblationOpts{Base: QuickTable2()} }

// AblationRow is one variant's outcome.
type AblationRow struct {
	Variant        string
	Policy         core.Policy
	AvgStreamTime  float64
	AvgNormLatency float64
	MaxLatency     float64
	IORequests     int
}

// AblationResult carries all variants.
type AblationResult struct {
	Opts AblationOpts
	Rows []AblationRow
}

// Ablation runs the variant table.
func Ablation(o AblationOpts) *AblationResult {
	base := o.Base.Spec()
	type variant struct {
		name   string
		mutate func(*workload.Spec)
	}
	variants := []variant{
		{"relevance (baseline)", func(s *workload.Spec) { s.Core.Policy = core.Relevance }},
		{"starve threshold=1", func(s *workload.Spec) { s.Core.Policy = core.Relevance; s.Core.StarveThreshold = 1 }},
		{"starve threshold=4", func(s *workload.Spec) { s.Core.Policy = core.Relevance; s.Core.StarveThreshold = 4 }},
		{"no short-query priority", func(s *workload.Spec) { s.Core.Policy = core.Relevance; s.Core.NoShortQueryPriority = true }},
		{"no wait promotion", func(s *workload.Spec) { s.Core.Policy = core.Relevance; s.Core.NoWaitPromotion = true }},
		{"normal, no prefetch", func(s *workload.Spec) { s.Core.Policy = core.Normal; s.Core.Prefetch = -1 }},
		{"normal, prefetch=2", func(s *workload.Spec) { s.Core.Policy = core.Normal; s.Core.Prefetch = 2 }},
		{"elevator window=2", func(s *workload.Spec) { s.Core.Policy = core.Elevator; s.Core.ElevatorWindow = 2 }},
		{"elevator window=16", func(s *workload.Spec) { s.Core.Policy = core.Elevator; s.Core.ElevatorWindow = 16 }},
	}
	out := &AblationResult{Opts: o}
	for _, v := range variants {
		spec := base
		v.mutate(&spec)
		res := spec.Run()
		worst := 0.0
		for _, q := range res.Queries {
			if l := q.Stats.Latency(); l > worst {
				worst = l
			}
		}
		out.Rows = append(out.Rows, AblationRow{
			Variant:        v.name,
			Policy:         spec.Core.Policy,
			AvgStreamTime:  res.AvgStreamTime,
			AvgNormLatency: res.AvgNormLatency,
			MaxLatency:     worst,
			IORequests:     res.IORequests,
		})
	}
	return out
}

func (r *AblationResult) String() string {
	var b strings.Builder
	header(&b, "Ablation: relevance-policy ingredients and framework knobs (Table 2 workload)")
	fmt.Fprintf(&b, "%-26s %12s %10s %10s %8s\n",
		"variant", "stream-t (s)", "norm-lat", "max-lat", "I/Os")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-26s %12.2f %10.2f %10.2f %8d\n",
			row.Variant, row.AvgStreamTime, row.AvgNormLatency, row.MaxLatency, row.IORequests)
	}
	return b.String()
}
