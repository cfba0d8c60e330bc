package experiments

import (
	"strings"
	"testing"

	"coopscan/internal/core"
)

func TestAblationRunsAllVariants(t *testing.T) {
	r := Ablation(QuickAblation())
	if len(r.Rows) != 9 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[string]AblationRow{}
	for _, row := range r.Rows {
		byName[row.Variant] = row
		if row.AvgStreamTime <= 0 || row.IORequests <= 0 {
			t.Errorf("%s: degenerate metrics %+v", row.Variant, row)
		}
	}
	base := byName["relevance (baseline)"]
	if base.Policy != core.Relevance {
		t.Error("baseline policy wrong")
	}
	// Removing short-query priority must not improve normalized latency.
	noPrio := byName["no short-query priority"]
	if noPrio.AvgNormLatency < base.AvgNormLatency*0.99 {
		t.Errorf("disabling short-query priority improved latency: %.3f vs %.3f",
			noPrio.AvgNormLatency, base.AvgNormLatency)
	}
	// Disabling prefetch must not speed up the normal policy.
	noPf := byName["normal, no prefetch"]
	pf2 := byName["normal, prefetch=2"]
	if noPf.AvgStreamTime < pf2.AvgStreamTime*0.95 {
		t.Errorf("no-prefetch (%.2f) beat prefetch=2 (%.2f)", noPf.AvgStreamTime, pf2.AvgStreamTime)
	}
	// Each single-knob pair must issue different I/O counts: a knob that
	// Spec.Core failed to reach the ABM would leave its variant identical
	// to its partner. ("no wait promotion" matches the baseline in quick
	// mode, so it cannot be checked this way.)
	for _, pair := range [][2]string{
		{"starve threshold=1", "starve threshold=4"},
		{"normal, no prefetch", "normal, prefetch=2"},
		{"elevator window=2", "elevator window=16"},
		{"no short-query priority", "relevance (baseline)"},
	} {
		a, b := byName[pair[0]], byName[pair[1]]
		if a.IORequests == b.IORequests {
			t.Errorf("%s and %s both issued %d I/Os: the knob did not reach the ABM",
				pair[0], pair[1], a.IORequests)
		}
	}
	if !strings.Contains(r.String(), "Ablation") {
		t.Error("rendering incomplete")
	}
}
