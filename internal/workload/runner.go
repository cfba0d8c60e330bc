package workload

import (
	"fmt"
	"math"
	"sort"

	"coopscan/internal/core"
	"coopscan/internal/disk"
	"coopscan/internal/sim"
	"coopscan/internal/storage"
)

// Spec parameterises one benchmark run: one policy over one layout and one
// stream workload. Zero values get the paper's defaults.
type Spec struct {
	Layout     storage.Layout
	DiskParams disk.Params
	// Core configures the ABM: Policy and BufferBytes, plus the knobs the
	// ablations and Figure 8 set (StarveThreshold, ElevatorWindow,
	// Prefetch, NoShortQueryPriority, NoWaitPromotion, MeasureScheduling).
	Core core.Config

	Streams          int     // default 16
	QueriesPerStream int     // default 4
	StreamDelay      float64 // seconds between stream starts; default 3
	// StreamBatch starts streams in batches of this size: batch k enters at
	// k*StreamDelay, so a 512-stream sweep does not spend 512 delays just
	// ramping up. Default 1 (one stream per delay step, the paper's
	// methodology and the shape every recorded decision baseline ran).
	StreamBatch int

	Mix  Mix
	Seed uint64

	// FastCPUFactor and SlowCPUFactor set per-chunk CPU cost as a multiple
	// of the full-row chunk transfer time. Defaults (0.5, 1.85) calibrate
	// FAST to be I/O-bound and SLOW CPU-bound, matching the standalone
	// time ratio of the paper's Table 2 (F-100 20.4s vs S-100 35.3s).
	FastCPUFactor float64
	SlowCPUFactor float64

	// Cols maps a speed class to the DSM column set it reads (ignored for
	// NSM). Nil selects Q6-ish columns for FAST and Q1-ish for SLOW.
	Cols func(Speed) storage.ColSet

	// TraceDisk enables the disk request trace (Figure 4).
	TraceDisk int // max entries; 0 disables
}

func (s Spec) withDefaults() Spec {
	if s.Streams == 0 {
		s.Streams = 16
	}
	if s.QueriesPerStream == 0 {
		s.QueriesPerStream = 4
	}
	if s.StreamDelay == 0 {
		s.StreamDelay = 3
	}
	if s.StreamBatch <= 0 {
		s.StreamBatch = 1
	}
	if s.FastCPUFactor == 0 {
		s.FastCPUFactor = 0.5
	}
	if s.SlowCPUFactor == 0 {
		s.SlowCPUFactor = 1.85
	}
	return s
}

// QueryOutcome is one executed query with its class and normalised latency.
type QueryOutcome struct {
	Template Template
	Stream   int
	Stats    core.Stats
	// Normalized is latency divided by the class's standalone cold time.
	Normalized float64
}

// ClassStats aggregates outcomes per query class (one row of Table 2).
type ClassStats struct {
	Template   Template
	Count      int
	Standalone float64 // solo cold-buffer latency (the "cold time" column)
	AvgLatency float64
	StdDev     float64
	AvgNorm    float64
	AvgIOs     float64
}

// Result is one policy's benchmark outcome (one column of Table 2/3).
type Result struct {
	Policy core.Policy
	Mix    string

	AvgStreamTime  float64
	AvgNormLatency float64

	Queries []QueryOutcome
	Classes []ClassStats

	// SimReport holds the run's totals: elapsed virtual time, CPU use, the
	// ABM and disk counters, the disk trace and the scheduling cost.
	SimReport
}

// cpuPerChunk is the CPU cost of one full chunk for a speed class: its
// factor times the transfer time of one full-width chunk of logical data.
// For DSM this uses the compressed per-column densities, not the
// block-rounded physical extents: CPU cost tracks tuples processed, not I/O
// units.
func (s Spec) cpuPerChunk(sm *Sim, speed Speed) float64 {
	bytes := float64(s.Layout.ChunkBytes(0, 0))
	if d, ok := s.Layout.(*storage.DSMLayout); ok {
		perTuple := 0.0
		for _, c := range s.Layout.Table().Columns {
			perTuple += c.BitsPerValue / 8
		}
		bytes = perTuple * float64(d.TuplesPerChunk())
	}
	factor := s.FastCPUFactor
	if speed == Slow {
		factor = s.SlowCPUFactor
	}
	return factor * sm.dsk.TransferTime(int64(bytes))
}

// defaultCols selects DSM columns per speed: Q6 reads 4 columns, Q1 seven.
func defaultCols(layout storage.Layout, speed Speed) storage.ColSet {
	n := layout.Table().NumColumns()
	take := 4
	if speed == Slow {
		take = 7
	}
	if take > n {
		take = n
	}
	return storage.AllCols(take)
}

// chunksFor is a template's range length in chunks: its percentage of the
// table, at least one chunk and at most all of them.
func chunksFor(layout storage.Layout, t Template) int {
	n := layout.NumChunks()
	return min(max(int(math.Round(float64(n)*t.Percent/100)), 1), n)
}

// rangeFor draws the random chunk range for a template ("reading X% of the
// full relation from a random location").
func rangeFor(layout storage.Layout, t Template, r *RNG) storage.RangeSet {
	n, chunks := layout.NumChunks(), chunksFor(layout, t)
	start := 0
	if n > chunks {
		start = r.Intn(n - chunks + 1)
	}
	return storage.NewRangeSet(storage.Range{Start: start, End: start + chunks})
}

// Standalone runs template t alone with a cold buffer under the spec's
// substrate (normal policy) and returns its latency: the normalisation
// baseline of the paper's "norm. lat." columns.
func (s Spec) Standalone(t Template) float64 {
	s = s.withDefaults()
	cfg := s.Core
	cfg.Policy = core.Normal
	sm := NewSim(cfg, s.DiskParams, 0, s.Layout)
	sc := Scan{
		Name:        t.Name(),
		Ranges:      storage.NewRangeSet(storage.Range{Start: 0, End: chunksFor(s.Layout, t)}),
		Columns:     s.colsFor(t),
		CPUPerChunk: s.cpuPerChunk(sm, t.Speed),
	}
	var latency float64
	sm.Stream(0, func(p *sim.Proc) { latency = sm.RunScan(p, sc).Latency() })
	if _, err := sm.Run(); err != nil {
		panic(fmt.Sprintf("workload: standalone run stuck: %v", err))
	}
	return latency
}

func (s Spec) colsFor(t Template) storage.ColSet {
	if !s.Layout.Columnar() {
		return 0
	}
	if t.Cols != 0 {
		return storage.ColSet(t.Cols)
	}
	if s.Cols != nil {
		return s.Cols(t.Speed)
	}
	return defaultCols(s.Layout, t.Speed)
}

// Run executes the benchmark and computes all metrics. Baselines for
// normalised latency are computed (once per class) with standalone runs.
func (s Spec) Run() Result {
	s = s.withDefaults()
	if len(s.Mix.Templates) == 0 {
		panic("workload: empty mix")
	}
	baselines := make(map[string]float64)
	for _, t := range s.Mix.Templates {
		if _, ok := baselines[t.Name()]; !ok {
			baselines[t.Name()] = s.Standalone(t)
		}
	}

	sm := NewSim(s.Core, s.DiskParams, s.TraceDisk, s.Layout)
	outcomes := make([]QueryOutcome, 0, s.Streams*s.QueriesPerStream)
	streamTimes := make([]float64, s.Streams)
	for st := 0; st < s.Streams; st++ {
		streamRNG := NewRNG(s.Seed*1_000_003 + uint64(st))
		sm.Stream(float64(st/s.StreamBatch)*s.StreamDelay, func(p *sim.Proc) {
			start := p.Now()
			for qi := 0; qi < s.QueriesPerStream; qi++ {
				t := s.Mix.Templates[streamRNG.Intn(len(s.Mix.Templates))]
				stats := sm.RunScan(p, Scan{
					Name:        fmt.Sprintf("%s#s%dq%d", t.Name(), st, qi),
					Ranges:      rangeFor(s.Layout, t, streamRNG),
					Columns:     s.colsFor(t),
					CPUPerChunk: s.cpuPerChunk(sm, t.Speed),
				})
				outcomes = append(outcomes, QueryOutcome{
					Template:   t,
					Stream:     st,
					Stats:      stats,
					Normalized: stats.Latency() / baselines[t.Name()],
				})
			}
			streamTimes[st] = p.Now() - start
		})
	}
	rep, err := sm.Run()
	if err != nil {
		panic(fmt.Sprintf("workload: %v run stuck: %v", s.Core.Policy, err))
	}

	res := Result{Policy: s.Core.Policy, Mix: s.Mix.Label, Queries: outcomes, SimReport: rep}
	for _, t := range streamTimes {
		res.AvgStreamTime += t
	}
	res.AvgStreamTime /= float64(s.Streams)
	for _, o := range outcomes {
		res.AvgNormLatency += o.Normalized
	}
	res.AvgNormLatency /= float64(len(outcomes))
	res.Classes = classStats(outcomes, baselines)
	return res
}

// classStats folds outcomes into per-class rows, ordered F before S, then
// ascending percentage (Table 2's row order).
func classStats(outcomes []QueryOutcome, baselines map[string]float64) []ClassStats {
	byName := map[string]*ClassStats{}
	for _, o := range outcomes {
		cs, ok := byName[o.Template.Name()]
		if !ok {
			cs = &ClassStats{Template: o.Template, Standalone: baselines[o.Template.Name()]}
			byName[o.Template.Name()] = cs
		}
		cs.Count++
		cs.AvgLatency += o.Stats.Latency()
		cs.AvgNorm += o.Normalized
		cs.AvgIOs += float64(o.Stats.IOs)
	}
	out := make([]ClassStats, 0, len(byName))
	for _, cs := range byName {
		n := float64(cs.Count)
		cs.AvgLatency /= n
		cs.AvgNorm /= n
		cs.AvgIOs /= n
		out = append(out, *cs)
	}
	// Standard deviation needs a second pass.
	for i := range out {
		var ss float64
		for _, o := range outcomes {
			if o.Template == out[i].Template {
				d := o.Stats.Latency() - out[i].AvgLatency
				ss += d * d
			}
		}
		if out[i].Count > 1 {
			out[i].StdDev = math.Sqrt(ss / float64(out[i].Count))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Template.Speed != out[j].Template.Speed {
			return out[i].Template.Speed == Fast
		}
		return out[i].Template.Percent < out[j].Template.Percent
	})
	return out
}

// RunAllPolicies executes the spec under every policy, reusing the same
// workload choices (same seed), and returns results in policy order.
func (s Spec) RunAllPolicies() []Result {
	out := make([]Result, 0, len(core.Policies))
	for _, pol := range core.Policies {
		sp := s
		sp.Core.Policy = pol
		out = append(out, sp.Run())
	}
	return out
}
