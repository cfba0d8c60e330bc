package core

import (
	"time"

	"coopscan/internal/sim"
)

// CostModel returns the CPU seconds a query spends processing one chunk;
// the workload package calibrates FAST (Q6-like) and SLOW (Q1-like) models
// against the layout's tuples-per-chunk.
type CostModel func(chunk int, tuples int64) float64

// ScanOptions configures one CScan execution.
type ScanOptions struct {
	// CPU, when non-nil, is the core pool processing time is charged to.
	CPU *sim.Resource
	// Cost is the per-chunk CPU cost model; nil means zero CPU cost.
	Cost CostModel
	// Quantum, when positive, charges CPU in slices of at most this many
	// seconds, modelling preemptive time-sharing: without it a long chunk
	// computation would hold a core in one FIFO grant and short queries
	// would see unrealistic CPU queueing.
	Quantum float64
	// OnChunk, when non-nil, observes every delivered chunk in delivery
	// order (e.g. to drive real query execution over generated data).
	OnChunk func(chunk int)
}

// RunCScan registers q, consumes its whole range under the ABM's policy,
// charging CPU per chunk, and returns the query's statistics. It must be
// called from within a simulation process.
func RunCScan(p *sim.Proc, a *ABM, q *Query, opts ScanOptions) Stats {
	a.Register(q)
	for {
		c, ok := a.Next(p, q)
		if !ok {
			break
		}
		if opts.OnChunk != nil {
			opts.OnChunk(c)
		}
		if opts.Cost != nil {
			if d := opts.Cost(c, a.layout.ChunkTuples(c)); d > 0 {
				chargeCPU(p, opts.CPU, d, opts.Quantum)
			}
		}
		a.Release(q, c)
	}
	return a.Finish(q)
}

// Next delivers the next chunk for q (pinned) or ok=false at end of scan.
// The sequential policies assemble their chunks on demand (normal and
// attach scans issue their own reads, the paper's baseline); under the
// central policies the query consumes whatever the loader made available,
// blocking until something is (the paper's waitForChunk).
func (a *ABM) Next(p *sim.Proc, q *Query) (int, bool) {
	if s, ok := a.strat.(*seqStrategy); ok {
		return s.next(p, q)
	}
	for {
		if q.finished() {
			return 0, false
		}
		if c := a.strat.PickAvailable(q); c >= 0 {
			a.Pin(q, c)
			return c, true
		}
		// The loader is woken by the broadcasts that accompany every
		// registration, release and load completion.
		q.SetBlocked(true)
		a.activity.Wait(p)
		q.SetBlocked(false)
	}
}

// loader is the central ABM loader process of the elevator and relevance
// policies: decide (NextLoad, metered for Figure 8), make room
// (EnsureSpace), commit and load, then yield for one tick so the queries
// just signalled can pin the chunk before the next decision considers
// evicting it. It blocks on the activity signal whenever nothing is
// loadable or no space can be freed.
//
// Unlike the live engine's IssueLoad, the space check neither shields the
// chunk's resident sibling parts nor skips EnsureSpace for a decision that
// needs no cold bytes while the pool is over budget. The paper tables and
// the decision golden were measured with this check; IssueLoad's changes
// relevance decisions.
func (a *ABM) loader(p *sim.Proc) {
	for !a.closed {
		var start time.Duration
		if a.cfg.MeasureScheduling {
			start = a.schedStart()
		}
		d, ok := a.strat.NextLoad()
		if a.cfg.MeasureScheduling {
			a.schedEnd(start)
		}
		if !ok {
			a.activity.Wait(p)
			continue
		}
		need := a.coldBytesFor(d.Chunk, d.Cols)
		if a.cache.free() < need && !a.strat.EnsureSpace(need, d.Query) {
			a.activity.Wait(p)
			continue
		}
		a.strat.CommitLoad(d)
		a.loadParts(p, d.Chunk, d.Cols, d.Query)
		p.Wait(0)
	}
}

// chargeCPU consumes d seconds of one core, optionally in preemption-sized
// quanta so concurrent queries interleave fairly.
func chargeCPU(p *sim.Proc, cpu *sim.Resource, d, quantum float64) {
	if cpu == nil {
		p.Wait(d)
		return
	}
	if quantum <= 0 || quantum >= d {
		cpu.Use(p, 1, d)
		return
	}
	for remaining := d; remaining > 0; remaining -= quantum {
		slice := quantum
		if remaining < slice {
			slice = remaining
		}
		cpu.Use(p, 1, slice)
	}
}
