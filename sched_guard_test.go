// TestSchedScalingGuard is the regression fence around the flat relevance
// scheduler: it re-measures the simulator's q64 and q512 decision costs in
// one process and fails if the q512/q64 ratio regresses more than 2×
// against the recorded baseline. The guard compares the *ratio* rather than
// absolute nanoseconds — q64 measured in the same process is the
// machine-speed proxy, so the test is meaningful on a noisy CI box where
// the absolute ns/decision is not. The baseline is the median of 16
// best-of-three measurements on a 2-core x86-64 VM: q64 = 107.0 and
// q512 = 121.3 sched-ns/decision (ratio 1.13, i.e. the heap-based paths
// keep per-decision cost flat as queries grow 8×; the runs spread
// 0.88–1.30).
// A reintroduced per-decision walk over the registered queries makes q512
// scale with the query count and blows straight through the 2× fence.
package coopscan_test

import (
	"runtime"
	"testing"

	"coopscan/internal/experiments"
)

// The flat baseline: median sched-ns/decision at q64 (unbatched stream
// shape) and q512 (StreamBatch 16).
const (
	baselineQ64PerDecision  = 107.0
	baselineQ512PerDecision = 121.3
)

func TestSchedScalingGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("scheduling-cost guard needs real measurement; skipped in -short")
	}
	quick := experiments.QuickSchedScaling()

	measure := func(queries, batch int) float64 {
		opts := quick
		opts.Queries = []int{queries}
		opts.StreamBatch = batch
		// Start each run from a collected heap, so a GC cycle the previous
		// run left pending does not assist inside this run's decisions.
		runtime.GC()
		r := experiments.SchedScaling(opts)
		pd := r.Points[len(r.Points)-1].PerDecision
		if pd <= 0 {
			t.Fatalf("q%d: no decisions measured", queries)
		}
		return pd
	}

	// Best of three runs per point: per-decision cost is a mean over
	// ~25k–58k decisions already, but a GC pause or scheduler hiccup on a
	// busy box can still inflate a single run. The q64 and q512 runs
	// alternate, so a burst of load from other processes hits both points
	// rather than only the one measured while it lasts.
	var q64, q512 float64
	for i := 0; i < 3; i++ {
		if pd := measure(64, 1); i == 0 || pd < q64 {
			q64 = pd
		}
		if pd := measure(512, 16); i == 0 || pd < q512 {
			q512 = pd
		}
	}
	t.Logf("q64 = %.1f ns/decision, q512 = %.1f ns/decision (baseline %.1f / %.1f)",
		q64, q512, baselineQ64PerDecision, baselineQ512PerDecision)

	ratio := q512 / q64
	baseline := baselineQ512PerDecision / baselineQ64PerDecision
	if ratio > 2*baseline {
		t.Fatalf("q512 sched-ns/decision regressed: q512/q64 = %.3f, baseline %.3f, limit %.3f (2×) — a per-decision linear path is back",
			ratio, baseline, 2*baseline)
	}
}
