// Package workload reproduces the paper's benchmark methodology (§5.1):
// multiple query streams, each sequentially executing a random set of FAST
// (TPC-H Q6-like) and SLOW (Q1-like, CPU-heavy) queries over random table
// ranges, with a fixed delay between stream starts "to better simulate
// queries entering an already-working system".
//
// It provides the QUERY-PERCENTAGE notation (F-10 = FAST over 10% of the
// table), the SPEED-SIZE mix grammar of Figure 5 (e.g. "SF-M"), per-query
// and system-level metrics (average stream time, average normalised latency,
// total time, CPU use, I/O requests — the columns of Tables 2 and 3), and
// the cost models that make FAST I/O-bound and SLOW CPU-bound on the
// simulated 2-core machine.
//
// It also holds the one simulator assembly, Sim: environment, modelled
// disk, 2-core CPU pool and a core.Manager, with one stream helper, one
// scan call and one report. Spec.Run and Spec.Standalone run on it, and so
// does the root coopscan.System, so a workload becomes scans in one place.
// Spec's ABM knobs (policy, buffer size, the ablation switches, scheduling
// measurement) are one core.Config, Spec.Core.
//
// # Design notes
//
// The package decides *what* to run (query classes, ranges, stream
// composition, seeds) and *how to score it* (normalised latency divides
// each query's latency by its class's standalone cold-buffer time, so
// short and long scans are comparable); core's driver and the live
// engine's planner (engine.PlanWorkload) decide how each scan executes.
// Determinism is load-bearing everywhere: streams derive their RNG from
// (seed, stream index), so any experiment, CLI run or benchmark that
// names the same spec re-executes byte-identical workloads — which is
// what lets the decision-baseline golden pin scheduler behaviour across
// refactors, and lets `coopscan multi` report numbers for exactly the
// workload the recorded benchmarks ran.
package workload

import (
	"fmt"
	"strings"
)

// Speed is a query's processing-speed class.
type Speed int

// FAST is the paper's Q6-like aggregation; SLOW is Q1 with extra arithmetic.
const (
	Fast Speed = iota
	Slow
)

func (s Speed) String() string {
	if s == Fast {
		return "F"
	}
	return "S"
}

// Template describes one query class of a mix: a speed and the percentage
// of the table it scans, plus (optionally) an explicit DSM column set and a
// display label (the Table 4 experiments name classes after their columns,
// e.g. "ABC").
type Template struct {
	Speed   Speed
	Percent float64 // 0 < Percent <= 100

	// Cols, when non-zero, overrides the spec's per-speed column selection
	// for this class (DSM only).
	Cols ColSetOverride
	// Label, when non-empty, overrides the class display name.
	Label string
}

// ColSetOverride carries an optional column set; the zero value means "use
// the spec default". It is a distinct type so Template stays comparable.
type ColSetOverride uint64

// Name returns the paper's QUERY-PERCENTAGE notation, e.g. "F-10", unless a
// Label is set.
func (t Template) Name() string {
	if t.Label != "" {
		return t.Label
	}
	if t.Percent == float64(int(t.Percent)) {
		return fmt.Sprintf("%s-%02.0f", t.Speed, t.Percent)
	}
	return fmt.Sprintf("%s-%g", t.Speed, t.Percent)
}

// Mix is a pool of templates a stream draws from uniformly at random.
type Mix struct {
	Label     string
	Templates []Template
}

// Sizes of Figure 5's SIZE dimension: S(hort), M(ixed), L(ong) range sets.
var sizePercents = map[byte][]float64{
	'S': {1, 2, 5, 10, 20},
	'M': {1, 2, 10, 50, 100},
	'L': {10, 30, 50, 100},
}

// ParseMix parses Figure 5's "SPEED-SIZE" mix notation: SPEED is a string
// over {F, S} whose letter counts give the speed ratio (e.g. "FFS" = two
// fast per slow), SIZE is one of S, M, L.
func ParseMix(label string) (Mix, error) {
	parts := strings.Split(label, "-")
	if len(parts) != 2 || len(parts[1]) != 1 {
		return Mix{}, fmt.Errorf("workload: mix %q not in SPEED-SIZE form", label)
	}
	percents, ok := sizePercents[parts[1][0]]
	if !ok {
		return Mix{}, fmt.Errorf("workload: unknown size %q in %q", parts[1], label)
	}
	var speeds []Speed
	for _, r := range parts[0] {
		switch r {
		case 'F':
			speeds = append(speeds, Fast)
		case 'S':
			speeds = append(speeds, Slow)
		default:
			return Mix{}, fmt.Errorf("workload: unknown speed letter %q in %q", r, label)
		}
	}
	if len(speeds) == 0 {
		return Mix{}, fmt.Errorf("workload: empty speed in %q", label)
	}
	var m Mix
	m.Label = label
	for _, sp := range speeds {
		for _, pct := range percents {
			m.Templates = append(m.Templates, Template{Speed: sp, Percent: pct})
		}
	}
	return m, nil
}

// MustMix is ParseMix panicking on error; for experiment tables.
func MustMix(label string) Mix {
	m, err := ParseMix(label)
	if err != nil {
		panic(err)
	}
	return m
}

// StandardMix is the Table 2/3 query set: FAST and SLOW at 1/10/50/100%.
func StandardMix() Mix {
	var m Mix
	m.Label = "SF-1/10/50/100"
	for _, sp := range []Speed{Fast, Slow} {
		for _, pct := range []float64{1, 10, 50, 100} {
			m.Templates = append(m.Templates, Template{Speed: sp, Percent: pct})
		}
	}
	return m
}

// Figure5Mixes lists the fifteen SPEED-SIZE combinations of Figure 5.
func Figure5Mixes() []Mix {
	var out []Mix
	for _, speed := range []string{"SF", "S", "F", "SSF", "FFS"} {
		for _, size := range []string{"S", "M", "L"} {
			out = append(out, MustMix(speed+"-"+size))
		}
	}
	return out
}

// RNG is the deterministic splitmix64 PRNG used for workload choices
// (stdlib math/rand would also do, but an explicit generator keeps runs
// stable across Go versions). Exported so the live engine's workload
// planner draws from the same stream shape as the simulated streams.
type RNG struct{ state uint64 }

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed ^ 0x9E3779B97F4A7C15} }

func (r *RNG) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with non-positive n")
	}
	return int(r.next() % uint64(n))
}
