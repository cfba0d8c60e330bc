package core

import "coopscan/internal/storage"

// This file defines the simulation-free decision core of the scheduling
// policies. Historically every policy lived inside the discrete-event
// simulator: its scoring and selection logic was interleaved with virtual-
// time blocking (sim.Signal waits) and simulated disk reads. The live
// engine (internal/engine) executes cooperative scans over real files with
// real goroutines, and must make the *same* decisions — so the decision
// logic is factored behind SchedulerPolicy, which both worlds call:
//
//   - the sim driver (driver.go: one ABM loader process and one delivery
//     loop, plus the sequential policies' demand reads) calls
//     NextLoad/CommitLoad/PickAvailable/EnsureSpace between virtual-time
//     waits;
//   - the live engine's scheduler goroutine issues loads through
//     ABM.IssueLoad (NextLoad/EnsureSpace/CommitLoad) around real file
//     reads, and its per-query goroutines call PickAvailable between
//     condition-variable waits.
//
// Every method is synchronous and non-blocking: it reads and updates ABM
// bookkeeping (registered queries, residency bit sets, interest counters,
// availability lists) and returns immediately. All virtual- or wall-clock
// waiting stays in the callers.

// Clock is the scheduler's notion of time, in seconds: virtual time in the
// simulator (sim.Env implements it), wall-clock seconds since engine start
// in the live engine. The ABM uses it for LRU recency, waiting-time
// promotion and per-query latency accounting.
type Clock interface {
	Now() float64
}

// LoadDecision is one scheduler choice: make chunk Chunk resident for the
// part-column set Cols (zero for NSM layouts), attributing the I/O to Query
// (nil when no specific query triggered the load).
type LoadDecision struct {
	Query *Query
	Chunk int
	Cols  storage.ColSet
}

// SchedulerPolicy is the decision core of one scheduling policy over one
// ABM's state. Callers must serialise all calls (the simulator is single-
// threaded by construction; the live engine holds its mutex).
type SchedulerPolicy interface {
	// Register installs policy-specific state for a newly registered query
	// (e.g. the attach policy picks the overlapping scan to join).
	Register(q *Query)
	// Unregister drops the query's policy state.
	Unregister(q *Query)
	// Consumed is invoked after q released chunk c.
	Consumed(q *Query, c int)

	// NextLoad picks the most valuable chunk to load right now, or ok=false
	// when nothing is loadable (nothing starved, window full, or all
	// remaining work already resident or in flight).
	NextLoad() (LoadDecision, bool)
	// CommitLoad records that the decision is about to be executed (buffer
	// space has been ensured): the elevator logs the interested queries and
	// advances its cursor here. Callers must invoke it exactly once per
	// executed decision, after EnsureSpace and before the load.
	CommitLoad(d LoadDecision)
	// PickAvailable returns the resident chunk q should consume next, or -1
	// if none is deliverable. Policies may advance per-query cursor state,
	// so callers must pin and deliver the returned chunk.
	PickAvailable(q *Query) int
	// EnsureSpace evicts parts under the policy's eviction rules until need
	// bytes are free; false means it could not (everything pinned or
	// protected), and the caller should wait for releases and retry.
	EnsureSpace(need int64, trigger *Query) bool
}
