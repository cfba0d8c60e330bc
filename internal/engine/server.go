package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"coopscan/internal/bufferpool"
	"coopscan/internal/core"
	"coopscan/internal/obs"
	"coopscan/internal/storage"
)

// ErrClosed is returned by ScanWith when the engine shuts down mid-scan, and
// immediately by a ScanWith entered after Close.
var ErrClosed = errors.New("engine: closed")

// ErrChunkUnavailable is returned by ScanWith when a part the scan still
// needs was quarantined: a load of it exhausted its retries against a
// persistent fault. Only scans whose remaining range and column set touch
// the quarantined part fail; sibling queries, other chunks and other tables
// keep running. The error chain includes the final load failure (e.g.
// ErrChecksum or the device error), so errors.Is can classify the cause.
var ErrChunkUnavailable = errors.New("engine: chunk unavailable")

// Scan argument validation errors; test with errors.Is. A scan that names a
// table the server does not serve, a range beyond the table, or a column
// set the table does not store is rejected up front with one of these — it
// never registers with an ABM, so it cannot wedge the scheduler or silently
// scan nothing.
var (
	// ErrUnknownTable: the table index is not served by this server.
	ErrUnknownTable = errors.New("engine: unknown table")
	// ErrInvalidRange: the range set is empty or extends beyond the table.
	ErrInvalidRange = errors.New("engine: invalid scan range")
	// ErrInvalidColumns: the column set is empty or names columns the table
	// does not store.
	ErrInvalidColumns = errors.New("engine: invalid column set")
	// ErrInvalidWeight: the scan's SLO weight is negative.
	ErrInvalidWeight = errors.New("engine: invalid scan weight")
)

// Runtime attach/detach errors; test with errors.Is.
var (
	// ErrTableDetached: the scan names a table that was detached from the
	// running server, or the table was detaching while the scan ran.
	ErrTableDetached = errors.New("engine: table detached")
	// ErrTableExists: Attach under a name already serving a live table (or
	// one still draining out of a DetachTable in progress).
	ErrTableExists = errors.New("engine: table already attached")
	// ErrAttachIncompatible: the table cannot run under this server — its
	// pages are smaller than the frame size the shared pool was built for,
	// or the buffer budget cannot cover the two-chunk floor of every
	// attached table plus this one.
	ErrAttachIncompatible = errors.New("engine: table incompatible with server")
)

// pageStride namespaces buffer-pool PageIDs per table: table t's page p
// has the global id t*pageStride + p. One pool serves every table — the
// paper's premise that all scans compete for a single underlying buffer
// manager — and the stride keeps per-table page spaces disjoint (no real
// table comes near 2^40 stripes).
const pageStride = int64(1) << 40

// ServerConfig parameterises a multi-table live server.
type ServerConfig struct {
	// Policy is the scheduling policy every table's ABM runs (all four of
	// the paper's policies work; they share the core.SchedulerPolicy
	// decision core with the simulator).
	Policy core.Policy
	// BufferBytes is the *shared* buffer budget across all tables. The
	// budget arbiter (core.Manager.Rebalance) re-divides it between the
	// per-table ABMs as demand shifts; it must cover at least two chunks
	// of every attached table.
	BufferBytes int64
	// InFlightDepth bounds the number of chunk loads the scheduler may
	// have outstanding at once, across all tables. Depth 1 reproduces the
	// original one-read-at-a-time loop; the default is 4, so the device
	// sees overlapping requests even when a single stream cannot saturate
	// it.
	InFlightDepth int
	// StarveThreshold, ElevatorWindow and Prefetch forward to core.Config.
	StarveThreshold int
	ElevatorWindow  int
	Prefetch        int
	// MeasureScheduling forwards to core.Config: every table's ABM then
	// meters the wall-clock cost of its scheduling decisions (NextLoad,
	// EnsureSpace, PickAvailable), surfaced per table in ServerStats — the
	// live-engine counterpart of the simulator's Figure-8 measurement.
	MeasureScheduling bool
	// ReadBandwidth, when positive, models the device: each in-flight load
	// stream is limited to this many bytes per second (the worker sleeps
	// off the residual after the real read), so the aggregate device
	// bandwidth scales with InFlightDepth up to depth × ReadBandwidth —
	// the "one stream cannot saturate the device" regime of real RAIDs
	// and SSDs. Zero disables the model: loads run at page-cache/disk
	// speed, under which buffer-cached files make every policy look alike
	// because re-reads cost nothing. Benchmarks set it to the simulator's
	// ~200 MiB/s RAID figure so live numbers are comparable to the
	// paper's.
	ReadBandwidth int64
	// LoadRetries caps how many times a failed load's reads and pins are
	// retried before the parts it covers are quarantined (default 4, so a
	// load gets 5 attempts in total — enough to outlast any transient fault
	// an injector caps at 2 failures per offset).
	LoadRetries int
	// RetryBackoff is the base of the exponential retry backoff (default
	// 1ms): attempt k sleeps base × 2^k, jittered to [50%, 150%), capped at
	// 100 × base. Tests shrink it to keep fault soaks fast.
	RetryBackoff time.Duration
	// Obs, when non-nil, is the metrics registry the server instruments
	// itself into: scheduler decision latency, load read/verify/pin latency
	// and bytes, in-flight depth, fault counters, per-scan wall latency,
	// the shared pool's occupancy and the arbiter's grants. One registry may
	// serve several sequential servers (counters accumulate, Prometheus
	// style). Nil disables metrics at nil-check cost.
	Obs *obs.Registry
	// Trace, when non-nil, receives the scan-timeline trace: one track per
	// query stream, per-table load-pipeline lanes, and instant events for
	// scheduler decisions, evictions, rebalances and quarantines. The caller
	// owns the tracer (and its Close). Nil disables tracing.
	Trace *obs.Tracer
}

const (
	defaultInFlightDepth = 4
	defaultLoadRetries   = 4
	defaultRetryBackoff  = time.Millisecond
	// attachFrameSlack reserves pool frames for the integer-rounding
	// crumbs of tables attached at runtime (construction sizes one crumb
	// per initial table; Attach cannot grow the pool, so the headroom is
	// banked up front).
	attachFrameSlack = 16
)

// TableStats is one table's share of a server's counters.
type TableStats struct {
	Name string
	// ABM holds the table's chunk-level decision counters.
	ABM core.SystemStats
	// BudgetBytes is the table's current arbiter grant.
	BudgetBytes int64
	// SchedNanos/SchedCalls meter the table's scheduling decisions (zero
	// unless ServerConfig.MeasureScheduling).
	SchedNanos int64
	SchedCalls int64
	// DiskBytesRead is the stored bytes load workers transferred for this
	// table: compressed widths on compressed files, so it diverges from
	// ABM.BytesRead (which accounts the decompressed pool footprint)
	// exactly by the compression ratio.
	DiskBytesRead int64
	// ChunksPruned counts chunks removed from scan registrations by
	// zonemap pruning — work the scheduler never saw.
	ChunksPruned int64
}

// FaultStats counts the server's fault-handling activity. All fields are
// cumulative since server start.
type FaultStats struct {
	// Retries is the number of load attempts repeated after a read, verify
	// or pin failure.
	Retries int64
	// ChecksumErrors counts load attempts rejected by page checksum
	// verification (ErrChecksum somewhere in the failure chain).
	ChecksumErrors int64
	// QuarantinedParts counts (chunk, column) parts taken out of service
	// after a load exhausted its retries.
	QuarantinedParts int64
	// FailedScans counts scans that returned ErrChunkUnavailable because
	// their range needed a quarantined part.
	FailedScans int64
	// CancelledScans counts scans that returned early because their context
	// was cancelled or timed out.
	CancelledScans int64
}

// ServerStats aggregates a run's counters: per-table ABM decisions plus the
// shared page pool's real I/O and the fault-handling counters.
type ServerStats struct {
	Tables []TableStats
	Pool   bufferpool.Stats
	Faults FaultStats
}

// partID identifies one pinned unit in a table's view map: a (chunk,
// column) part in DSM, the whole chunk (col == -1) in NSM — mirroring the
// ABM's part keys, so the evict hook's (chunk, col) maps directly to the
// view to release.
type partID struct{ chunk, col int }

// serverTable is one attached table: its file, its live ABM (own chunk map,
// query registry and policy state, per the paper's §7.1 "separate
// statistics and meta-data for each" table) and its pinned part views.
type serverTable struct {
	idx  int
	tf   *TableFile
	abm  *core.ABM
	pol  core.SchedulerPolicy
	name string
	// views maps each ABM-resident part to its pinned page range in the
	// shared pool: one view per NSM chunk, one view per DSM (chunk, column)
	// part — so a column part can be evicted (view released) while a
	// sibling column of the same chunk stays pinned and resident.
	views map[partID]*bufferpool.ChunkView
	// quarantine holds the parts whose loads exhausted their retries,
	// mapped to the final failure. The scheduler refuses decisions naming
	// them and scans that still need them fail with ErrChunkUnavailable;
	// everything else proceeds. Guarded by the server mutex.
	quarantine map[partID]error
	// streams maps each registered query to its stream's private condition
	// variable. Wakes are targeted: a chunk landing wakes exactly the
	// streams whose queries gained availability (via core's per-query
	// waker), a quarantine wakes this table's streams, and only shutdown
	// wakes everyone — so thousands of parked streams no longer stampede
	// the lock on every load completion. Guarded by the server mutex.
	streams map[*core.Query]*sync.Cond
	// o holds the table's pre-resolved metric series and trace-lane
	// freelist (see internal/engine/obs.go); zero when observability is off.
	o tableObs
	// inflight counts this table's issued-but-uncommitted loads; a
	// detaching table is finalised only once it reaches zero. Guarded by
	// the server mutex.
	inflight int
	// diskRead accumulates the stored bytes load workers transferred for
	// this table (compressed widths on compressed files); pruned
	// accumulates the chunks zonemap pruning removed from scan
	// registrations. Both are
	// atomics because they are bumped outside the server mutex (workers
	// and the pre-registration scan path).
	diskRead atomic.Int64
	pruned   atomic.Int64
	// detaching is set by DetachTable: the scheduler stops issuing the
	// table's loads, queued and future registrations fail with
	// ErrTableDetached, and parked streams wake to observe it. detached is
	// set when the scheduler finalises the quiesced table (views released,
	// quarantine cleared, grant returned to the arbiter, ABM shut down);
	// the slot then stays behind as a tombstone — table indexes are never
	// reused, so per-table pool page namespaces stay disjoint for the
	// server's lifetime.
	detaching, detached bool
}

// partPages returns the global pool-page run backing one part.
func (t *serverTable) partPages(chunk, col int) (first bufferpool.PageID, count int) {
	f, n := t.tf.PartPages(chunk, col)
	return bufferpool.PageID(int64(t.idx)*pageStride + f), n
}

// eachPart invokes fn for every ABM part of a load job: the single
// pseudo-column part in NSM, one part per marked column in DSM.
func (t *serverTable) eachPart(marked storage.ColSet, fn func(col int)) {
	if t.tf.Format() == NSM {
		fn(-1)
		return
	}
	marked.Each(fn)
}

// decisionQuarantined reports whether a load decision names a quarantined
// part; such decisions are never committed.
func (t *serverTable) decisionQuarantined(d core.LoadDecision) bool {
	if t.tf.Format() == NSM {
		_, bad := t.quarantine[partID{chunk: d.Chunk, col: -1}]
		return bad
	}
	bad := false
	d.Cols.Each(func(col int) {
		if _, q := t.quarantine[partID{chunk: d.Chunk, col: col}]; q {
			bad = true
		}
	})
	return bad
}

// loadJob is one issued load travelling from the scheduler to a worker: the
// decision is already committed and its buffer space reserved (BeginLoad),
// so the worker only performs the file reads and lands the completion.
// marked is the column set BeginLoad actually transitioned to loading (zero
// for NSM); the worker reads, pins and finishes exactly those parts, so an
// overlapping in-flight load of a sibling column is never committed early.
type loadJob struct {
	t       *serverTable
	d       core.LoadDecision
	marked  storage.ColSet
	missing []bufferpool.PageID
	// lane is the job's load-pipeline trace track (zero, and thus no-op,
	// when tracing is off); issuedAt timestamps the issue for the queued
	// span and is set only when observability is enabled.
	lane     obs.Track
	issuedAt time.Time
}

// wallClock is the live ABM clock: seconds since server start.
type wallClock struct{ start time.Time }

func (w wallClock) Now() float64 { return time.Since(w.start).Seconds() }

// Server executes cooperative scans over multiple table files in wall-clock
// time, under one shared buffer budget — the multi-table runtime the
// paper's §7.1 asks of "a production-quality implementation".
//
// Concurrency model: one goroutine per ScanWith call (the query streams), one
// scheduler goroutine that owns every load and eviction *decision* across
// all tables, and InFlightDepth worker goroutines that execute the issued
// loads' file reads. The scheduler round-robins NextLoad over the per-table
// ABMs and keeps up to InFlightDepth loads outstanding; each BeginLoad
// reserves its buffer space up front, so the decision state stays coherent
// while several reads are in flight, and completions commit (FinishLoad +
// pin) in whatever order the reads land. A freshly landed chunk is
// eviction-protected until first pinned, per load — the same rule the
// single-load engine enforced, now held for every member of the in-flight
// set.
//
// Tables are NSM or DSM per file. On an NSM table a load is the whole
// chunk; on a DSM table a load is the per-column extents of the decision's
// column set (the relevance policy loads the union of the overlapping
// starved queries' columns, Figure 11), each extent read with one
// positioned read and pinned as its own view — so queries pay only for the
// columns they project, and eviction retires column parts independently.
//
// All shared state (the ABMs, the policy state, the shared page pool, the
// part views and the budget arbiter) is guarded by mu; workers drop the
// lock for the real file reads and queries drop it while processing
// delivered chunks, so decision making, I/O depth and query CPU all
// overlap.
//
// The budget arbiter (core.Manager.Rebalance) runs inside the scheduler
// loop: whenever demand shifts, tables with starving streams are granted
// budget taken from idle or coasting ones, with the constraint that a
// table's grant never drops below its current usage — shrinks materialise
// as the table drains. The shared pool is sized for the total budget, so
// the arbiter's invariant (grants sum to the budget) is what keeps every
// PinRange satisfiable.
type Server struct {
	cfg ServerConfig

	mu sync.Mutex
	// cond is the scheduler's private condition variable — the scheduler
	// goroutine is its only waiter, so every wake site uses Signal. Query
	// streams park on their own per-stream conds (serverTable.streams) and
	// are woken individually by the ABM's availability waker.
	cond   *sync.Cond
	mgr    *core.Manager
	tables []*serverTable
	// names maps each live table's registration name to its slot in
	// tables. DetachTable removes the name as soon as the detach begins;
	// detached slots stay in tables as tombstones but are unreachable by
	// name, so a detached name can be reattached (to a fresh slot) once
	// its drain completes. Guarded by mu.
	names map[string]int
	// detachCond wakes DetachTable callers when the scheduler finalises a
	// quiesced detach, and on shutdown so no caller waits on a dead
	// scheduler.
	detachCond *sync.Cond
	// minPage is the page size the pool's frame capacity was computed
	// from; Attach rejects tables with smaller pages, which could need
	// more frames than the pool owns (bufferpool.ErrNoFrame is fatal).
	minPage int64
	pool    *bufferpool.Pool
	// regQueue holds stream registrations awaiting the scheduler: streams
	// append a request, signal the scheduler and park on the request's own
	// cond; the scheduler drains the whole batch at its loop top under one
	// arbiter pass, so a thousand streams starting together cost one
	// rebalance instead of a thundering herd of them.
	regQueue []*regRequest
	// staging carries pre-read page contents from the workers' unlocked
	// file reads into the pool's reader; accessed only under mu.
	staging map[bufferpool.PageID][]byte
	// rr rotates the scheduler's table scan so no table monopolises the
	// load queue.
	rr int
	// inFlight counts issued-but-uncommitted loads; bounded by
	// cfg.InFlightDepth.
	inFlight int
	// demand is the last weight vector the arbiter ran with (per table,
	// remaining demand bytes); rebalancing re-runs when a table's demand
	// shifts materially (see demandShifted) or while a clamped shrink is
	// still draining.
	demand []int64

	closed bool
	err    error

	// start anchors wall-clock uptime (and the ABM clock's zero).
	start time.Time
	// o holds the server's metric handles and tracer (nil-safe throughout;
	// see internal/engine/obs.go).
	o serverObs

	// faults are the fault-handling counters (retries, quarantines,
	// cancellations); guarded by mu.
	faults FaultStats
	// jitter randomises retry backoff so concurrent failed loads do not
	// retry in lockstep; drawn under mu.
	jitter *rand.Rand

	loadCh    chan loadJob
	schedDone chan struct{}
	workerWG  sync.WaitGroup
	closeOnce sync.Once

	// stripeBufs holds one recycle list per page size: workers draw a
	// standalone buffer per page they read (coalesced runs included), and
	// the pool's evict observer and aborted loads hand buffers back. Every
	// buffer is thus resident, in flight or on its list, so at steady state
	// (pool full, every load evicting) the read path allocates nothing and
	// the buffers ever allocated stay bounded by the pool's frames plus the
	// in-flight loads' pages. Workers read the map without the server lock,
	// so a runtime Attach introducing a new page size publishes a fresh
	// copy through the atomic pointer instead of mutating in place.
	stripeBufs atomic.Pointer[map[int64]*pageBufs]

	// loadHook, when set (tests only), runs in a worker goroutine between
	// the unlocked read and the locked completion of every load — the seam
	// used to force loads to complete out of issue order.
	loadHook func(table, chunk int)
}

// NewServer creates a server over the given table files and starts its
// scheduler and load workers. Close must be called to stop them. The table
// files are adopted in the given order (their index is ScanRequest.Table)
// but remain owned by the caller. NSM and DSM tables mix freely under the
// one shared budget.
func NewServer(cfg ServerConfig, tfs ...*TableFile) (*Server, error) {
	if len(tfs) == 0 {
		return nil, errors.New("engine: NewServer with no tables")
	}
	if cfg.InFlightDepth <= 0 {
		cfg.InFlightDepth = defaultInFlightDepth
	}
	if cfg.LoadRetries <= 0 {
		cfg.LoadRetries = defaultLoadRetries
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = defaultRetryBackoff
	}
	var floor int64
	minPage := tfs[0].ColStripeBytes(0)
	for _, tf := range tfs {
		floor += 2 * tf.ChunkBytes()
		for j := 0; j < NumCols; j++ {
			if s := tf.ColStripeBytes(j); s < minPage {
				minPage = s
			}
		}
	}
	if cfg.BufferBytes < floor {
		return nil, fmt.Errorf("engine: buffer %d bytes < two chunks per table (%d)", cfg.BufferBytes, floor)
	}
	s := &Server{
		cfg:       cfg,
		names:     make(map[string]int),
		staging:   make(map[bufferpool.PageID][]byte),
		jitter:    rand.New(rand.NewSource(1)),
		loadCh:    make(chan loadJob, cfg.InFlightDepth),
		schedDone: make(chan struct{}),
		start:     time.Now(),
		minPage:   minPage,
	}
	s.cond = sync.NewCond(&s.mu)
	s.detachCond = sync.NewCond(&s.mu)
	s.o = newServerObs(cfg.Obs, cfg.Trace)
	s.mgr = core.NewLiveManager(wallClock{start: s.start}, core.Config{
		Policy:            cfg.Policy,
		StarveThreshold:   cfg.StarveThreshold,
		ElevatorWindow:    cfg.ElevatorWindow,
		Prefetch:          cfg.Prefetch,
		MeasureScheduling: cfg.MeasureScheduling,
	})
	s.mgr.SetMetrics(managerMetrics(cfg.Obs))
	empty := make(map[int64]*pageBufs)
	s.stripeBufs.Store(&empty)
	for i, tf := range tfs {
		name := fmt.Sprintf("%s#%d", tf.Layout().Table().Name, i)
		s.tables = append(s.tables, s.newTable(i, name, tf))
		s.names[name] = i
		s.addStripeSizes(tf)
	}
	s.mgr.Rebalance(cfg.BufferBytes)
	// The shared pool is sized for the whole budget (in frames of the
	// smallest page), plus slack for the arbiter's integer-rounding
	// crumbs (one per table, plus headroom for runtime attaches) and the
	// in-flight loads' staging turnover.
	frames := int(cfg.BufferBytes/minPage) + cfg.InFlightDepth*NumCols + len(tfs) + attachFrameSlack
	s.pool = bufferpool.New(frames, bufferpool.LRU, s.readPage)
	s.pool.SetMetrics(poolMetrics(cfg.Obs))
	s.pool.SetEvictObserver(func(_ bufferpool.PageID, data []byte) { s.recycle(data) })
	for i := 0; i < cfg.InFlightDepth; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	go s.scheduler()
	return s, nil
}

// newTable builds one attached table's runtime state and registers its ABM
// with the budget arbiter at the two-chunk floor (the arbiter grants the
// rest of the budget by demand as soon as streams register). Shared by
// construction and runtime Attach; callers of the latter hold mu.
func (s *Server) newTable(idx int, name string, tf *TableFile) *serverTable {
	t := &serverTable{
		idx: idx, tf: tf, name: name,
		views:      make(map[partID]*bufferpool.ChunkView),
		quarantine: make(map[partID]error),
		streams:    make(map[*core.Query]*sync.Cond),
	}
	t.abm = s.mgr.AttachAs(name, tf.Layout(), 2*tf.ChunkBytes())
	// Normalise relevance waiting time by a ~1 GB/s chunk load.
	t.abm.SetChunkCost(float64(tf.ChunkBytes()) / 1e9)
	t.pol = t.abm.Policy()
	t.abm.SetEvictHook(func(chunk, col int) {
		// The ABM evicted one part — an NSM chunk (col -1) or a DSM
		// column part: release its pinned page range so the shared pool
		// may reuse the frames. Sibling columns of the same chunk keep
		// their own views. Runs under mu, from an EnsureSpace inside
		// the scheduler.
		k := partID{chunk: chunk, col: col}
		if v := t.views[k]; v != nil {
			v.Release()
			delete(t.views, k)
		}
		if s.o.tracer != nil {
			s.o.schedTrack.Instant("evict", obs.Args{"table": t.name, "chunk": chunk, "col": col})
		}
	})
	t.o.sched = s.o.schedSeconds.With(name, s.cfg.Policy.String())
	t.o.scan = s.o.scanSeconds.With(name, s.cfg.Policy.String())
	t.o.useful = s.o.usefulBytes.With(name)
	t.o.pruned = s.o.prunedChunks.With(name, s.cfg.Policy.String())
	return t
}

// pageBufs is the recycle list of one page size. Unlike a sync.Pool it
// never drops a buffer (not at GC, not under the race detector), so a
// buffer is allocated only when every buffer of its size is resident or in
// flight, and the list's retained memory is bounded by the buffer pool it
// feeds.
type pageBufs struct {
	size         int64
	gets, allocs *obs.Counter
	mu           sync.Mutex
	free         [][]byte
}

// get draws a buffer, allocating one only when the list is empty.
func (b *pageBufs) get() []byte {
	b.gets.Inc()
	b.mu.Lock()
	defer b.mu.Unlock()
	if n := len(b.free); n > 0 {
		buf := b.free[n-1]
		b.free = b.free[:n-1]
		return buf
	}
	b.allocs.Inc()
	return make([]byte, b.size)
}

// put returns a buffer drawn by get.
func (b *pageBufs) put(buf []byte) {
	b.mu.Lock()
	b.free = append(b.free, buf)
	b.mu.Unlock()
}

// bufPool returns the recycle list for page buffers of the given size, or
// nil if no attached table uses it. Safe without the server lock: the map
// behind the atomic pointer is never mutated after publication.
func (s *Server) bufPool(size int64) *pageBufs {
	return (*s.stripeBufs.Load())[size]
}

// recycle returns a page buffer drawn from a recycle list to that list.
func (s *Server) recycle(buf []byte) { s.bufPool(int64(len(buf))).put(buf) }

// addStripeSizes publishes recycle lists for any of tf's page sizes not yet
// registered, copy-on-write so unlocked workers keep reading a consistent
// map. Callers hold mu (which serialises writers).
func (s *Server) addStripeSizes(tf *TableFile) {
	old := *s.stripeBufs.Load()
	var fresh map[int64]*pageBufs
	for j := 0; j < NumCols; j++ {
		size := tf.ColStripeBytes(j)
		if _, ok := old[size]; ok {
			continue
		}
		if fresh == nil {
			fresh = make(map[int64]*pageBufs, len(old)+NumCols)
			for k, v := range old {
				fresh[k] = v
			}
		}
		if _, ok := fresh[size]; ok {
			continue
		}
		fresh[size] = &pageBufs{size: size, gets: s.o.recycleGets, allocs: s.o.recycleAllocs}
	}
	if fresh != nil {
		s.stripeBufs.Store(&fresh)
	}
}

// readPage is the shared pool's miss handler. Workers pre-read cold pages
// outside the server lock and park them in staging; the synchronous
// fallback below is reachable only when PinRange itself victimises a
// not-yet-pinned resident page of the very part it is pinning (the
// worker's pre-commit probe catches every earlier eviction), so it reads
// at most a page or two, rarely.
func (s *Server) readPage(id bufferpool.PageID) ([]byte, error) {
	if b, ok := s.staging[id]; ok {
		delete(s.staging, id)
		return b, nil
	}
	t := s.tables[int(int64(id)/pageStride)]
	local := int64(id) % pageStride
	buf := s.bufPool(t.tf.PageBytes(local)).get()
	if err := t.tf.ReadPage(local, buf); err != nil {
		s.recycle(buf)
		return nil, err
	}
	return buf, nil
}

// scheduler is the live ABM decision loop: it drains the registration
// queue, keeps the budget arbiter current and up to InFlightDepth loads
// issued across the tables, then parks until a completion, release or
// registration changes the world.
func (s *Server) scheduler() {
	defer close(s.schedDone)
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed {
		s.drainRegs()
		s.finalizeDetaches()
		s.maybeRebalance()
		if s.inFlight < s.cfg.InFlightDepth && s.issueOne() {
			continue
		}
		s.cond.Wait()
	}
	// Shutdown: registrations still queued can never be served — fail them
	// (req.q stays nil) so their streams wake and return ErrClosed.
	for _, r := range s.regQueue {
		r.done = true
		r.w.Signal()
	}
	s.regQueue = nil
}

// regRequest is one stream registration in flight from ScanWith to the
// scheduler. The stream parks on w until done; q is nil when the server
// closed (err nil) or the table detached (err set) before the registration
// was served.
type regRequest struct {
	t      *serverTable
	name   string
	ranges storage.RangeSet
	cols   storage.ColSet
	weight float64
	w      *sync.Cond
	q      *core.Query
	err    error
	done   bool
}

// drainRegs registers every queued stream in one batch under the lock the
// scheduler already holds: the arbiter then runs once for the batch (from
// the caller's maybeRebalance) instead of once per stream. Each query's
// waker is wired to its stream's private cond before the stream can park.
func (s *Server) drainRegs() {
	if len(s.regQueue) == 0 {
		return
	}
	regs := s.regQueue
	s.regQueue = nil
	for _, r := range regs {
		if r.t.detaching || r.t.detached {
			r.err = fmt.Errorf("engine: scan %q: %w: table %s", r.name, ErrTableDetached, r.t.name)
			r.done = true
			r.w.Signal()
			continue
		}
		q := r.t.abm.NewQuery(r.name, r.ranges, r.cols)
		if r.weight > 0 && r.weight != 1 {
			q.SetWeight(r.weight)
		}
		r.t.abm.Register(q)
		r.t.streams[q] = r.w
		q.SetWaker(r.w.Signal)
		r.q = q
		r.done = true
		r.w.Signal()
	}
}

// wakeAllStreams signals every registered stream's cond — the shutdown
// path's replacement for the old global broadcast. Callers hold mu.
func (s *Server) wakeAllStreams() {
	for _, t := range s.tables {
		for _, w := range t.streams {
			w.Signal()
		}
	}
}

// AuditTables cross-checks every table ABM's incrementally maintained
// scheduler structures (counters, demand sums, availability and candidate
// heaps, victim heap) against a linear recomputation from first principles,
// under the server lock. It is the soak harness's mid-flight invariant
// probe; production code never calls it.
func (s *Server) AuditTables() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tables {
		if t.detached {
			continue
		}
		if err := t.abm.AuditIncremental(); err != nil {
			return fmt.Errorf("engine: table %s: %w", t.name, err)
		}
	}
	return nil
}

// AuditDrained checks the quiescent-state invariants once every scan has
// returned and no load is in flight: no pins or loading parts left behind,
// no leaked assembly marks, byte accounting intact, and no table over its
// budget. Like AuditTables it exists for the soak harness.
func (s *Server) AuditDrained() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tables {
		if t.detached {
			// A tombstoned slot must hold no pinned views (finalisation
			// released them) — a leak here would strand pool frames forever.
			if len(t.views) != 0 {
				return fmt.Errorf("engine: detached table %s still holds %d views", t.name, len(t.views))
			}
			continue
		}
		if err := t.abm.AuditDrained(); err != nil {
			return fmt.Errorf("engine: table %s: %w", t.name, err)
		}
		if free := t.abm.FreeBytes(); free < 0 {
			return fmt.Errorf("engine: table %s over budget after drain: free = %d", t.name, free)
		}
	}
	return nil
}

// maybeRebalance re-runs the budget arbiter when some table's demand (the
// bytes its streams still have to scan, starved streams doubled) has
// shifted materially, or while some table still uses more than the total
// would grant it (a clamped shrink that must be re-applied as the table
// drains).
func (s *Server) maybeRebalance() {
	changed := false
	if len(s.demand) != len(s.tables) {
		s.demand = make([]int64, len(s.tables))
		changed = true
	}
	draining := false
	for i, t := range s.tables {
		if t.detached {
			s.demand[i] = 0
			continue
		}
		if w := t.abm.DemandBytes(); demandShifted(s.demand[i], w) {
			s.demand[i] = w
			changed = true
		}
		if t.abm.FreeBytes() < 0 {
			// Over a shrunk grant. A table with queries drains through its
			// own EnsureSpace calls; one without queries never loads, so
			// evict its excess here or the usage clamp in Rebalance would
			// strand the bytes against the demanding tables forever.
			if active, _ := t.abm.Demand(); active == 0 {
				t.abm.DrainExcess()
			}
			draining = true
		}
	}
	if changed || draining {
		grants := s.mgr.Rebalance(s.cfg.BufferBytes)
		if s.o.tracer != nil {
			s.o.schedTrack.Instant("rebalance", obs.Args{"grants": grants})
		}
	}
}

// demandShifted reports whether a table's demand weight moved enough to
// re-run the arbiter: any zero/non-zero flip, or a shift of at least an
// eighth of the previous weight. Byte demand shrinks with every consumed
// chunk, so rebalancing on every delta would churn budgets for
// integer-crumb gains; the hysteresis keeps arbiter runs proportional to
// real load shifts.
func demandShifted(old, new int64) bool {
	if old == new {
		return false
	}
	if old == 0 || new == 0 {
		return true
	}
	d := new - old
	if d < 0 {
		d = -d
	}
	return d*8 >= old
}

// issueOne asks the tables round-robin for their next load decision,
// commits the first one whose buffer space can be ensured, and hands the
// read to a worker. It reports whether a load was issued.
func (s *Server) issueOne() bool {
	n := len(s.tables)
	for off := 0; off < n; off++ {
		i := (s.rr + off) % n
		t := s.tables[i]
		if t.detaching || t.detached {
			continue
		}
		var decStart time.Time
		if s.o.enabled {
			decStart = time.Now()
		}
		d, ok := t.pol.NextLoad()
		if !ok {
			continue
		}
		if len(t.quarantine) > 0 && t.decisionQuarantined(d) {
			// The decision names an unloadable part. Don't commit it —
			// leave the table parked until the affected scans observe the
			// quarantine (they are woken when it is imposed), fail, and
			// unregister; the policy's next decision then no longer wants
			// the dead part. Other tables still get their turn below.
			continue
		}
		need := t.abm.ColdBytes(d.Chunk, d.Cols)
		if need > 0 && t.abm.FreeBytes() < need {
			// Shield the chunk's resident sibling parts while evicting: a
			// DSM chunk can be partially resident, and victimising those
			// parts would widen the load beyond the `need` just ensured
			// (the §6.2 mark-as-used rule; see core.MarkAssembling).
			t.abm.MarkAssembling(d.Chunk, d.Cols)
			ok := t.pol.EnsureSpace(need, d.Query)
			t.abm.UnmarkAssembling(d.Chunk, d.Cols)
			if !ok {
				// Everything evictable in this table is pinned or protected:
				// skip it until a release, but let other tables proceed.
				continue
			}
		}
		t.pol.CommitLoad(d)
		marked := t.abm.BeginLoad(d)
		var missing []bufferpool.PageID
		t.eachPart(marked, func(col int) {
			first, count := t.partPages(d.Chunk, col)
			for id := first; id < first+bufferpool.PageID(count); id++ {
				if !s.pool.Contains(id) {
					missing = append(missing, id)
				}
			}
		})
		s.inFlight++
		t.inflight++
		s.o.inflight.Add(1)
		s.rr = (i + 1) % n
		job := loadJob{t: t, d: d, marked: marked, missing: missing}
		if s.o.enabled {
			job.issuedAt = time.Now()
			t.o.sched.Observe(job.issuedAt.Sub(decStart).Seconds())
			if s.o.tracer != nil {
				job.lane = t.acquireLane(s.o.tracer)
				s.o.schedTrack.Instant("load", obs.Args{"table": t.name, "chunk": d.Chunk})
			}
		}
		// Never blocks: inFlight < depth == cap(loadCh) and workers drain.
		s.loadCh <- job
		return true
	}
	return false
}

// worker executes issued loads: the real file reads happen without the
// server lock, then the completion — staging the bytes into the pool,
// pinning the marked parts' page ranges and FinishLoad — commits under it.
// Completions land in read-completion order, not issue order; the ABM's
// part states (marked loading at issue) keep the two decoupled.
//
// A load is its own fault domain. A failed read, checksum verification or
// pin retries with bounded exponential backoff (the job stays counted in
// inFlight, so the scheduler never over-issues while it heals); a load that
// exhausts its retries — or fails during shutdown — is aborted: its ABM
// reservation is rolled back (core.AbortLoad, so the budget never leaks)
// and the failing part is quarantined. Only bufferpool.ErrNoFrame still
// takes the whole server down: it means the frame accounting itself is
// violated, which no retry can mend.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for job := range s.loadCh {
		bufs, iost, err := s.readMissing(job.t, job.missing)
		if job.lane != (obs.Track{}) {
			// Lane spans: queue wait, then the load's read, verify,
			// decompress and device-model times in the order each page
			// run passes through them, accumulated over its runs.
			if iost.bytes > 0 {
				job.lane.SpanAt("queued", job.issuedAt, iost.start, nil)
				readEnd := iost.end.Add(-iost.verify - iost.decomp - iost.model)
				job.lane.SpanAt("read", iost.start, readEnd, obs.Args{"bytes": iost.bytes, "disk": iost.diskBytes})
				verifyEnd := readEnd.Add(iost.verify)
				job.lane.SpanAt("verify", readEnd, verifyEnd, nil)
				decompEnd := verifyEnd.Add(iost.decomp)
				if iost.decomp > 0 {
					job.lane.SpanAt("decompress", verifyEnd, decompEnd, nil)
				}
				if iost.model > 0 {
					job.lane.SpanAt("device_model", decompEnd, iost.end, nil)
				}
			} else {
				job.lane.Span("queued", job.issuedAt, nil)
			}
		}
		if s.loadHook != nil {
			s.loadHook(job.t.idx, job.d.Chunk)
		}
		s.mu.Lock()
		for id, b := range bufs {
			s.staging[id] = b
		}
		for attempt := 0; ; attempt++ {
			if err == nil {
				if err = s.completeLoad(job); err == nil {
					break // committed
				}
			}
			if errors.Is(err, ErrChecksum) || errors.Is(err, ErrCorrupt) {
				s.faults.ChecksumErrors++
				s.o.checksumErrors.Inc()
			}
			if errors.Is(err, bufferpool.ErrNoFrame) {
				// Frame accounting invariant violated — not an I/O fault,
				// and retrying cannot help. The one load failure that still
				// fails the whole server, with table/chunk context.
				s.abortJob(job, nil)
				s.fail(fmt.Errorf("engine: load %s chunk %d: %w", job.t.name, job.d.Chunk, err))
				break
			}
			if s.closed || attempt >= s.cfg.LoadRetries {
				s.abortJob(job, err)
				break
			}
			s.faults.Retries++
			s.o.retries.Inc()
			pause := s.retryPause(attempt)
			s.mu.Unlock()
			time.Sleep(pause)
			s.mu.Lock()
			err = nil
		}
		job.t.releaseLane(job.lane)
		s.inFlight--
		job.t.inflight--
		s.o.inflight.Add(-1)
		// A slot freed: only the scheduler cares. Streams interested in the
		// landed chunk were woken by their queries' wakers in FinishLoad.
		s.cond.Signal()
		s.mu.Unlock()
	}
}

// completeLoad lands one issued load under the server lock: top up any page
// that went missing while the read was in flight, pin the marked parts'
// page ranges, and FinishLoad. On any failure it unwinds the pins it took
// and returns the error for the worker's retry loop; already-staged pages
// stay staged, so a retry re-reads only what is actually missing.
func (s *Server) completeLoad(job loadJob) error {
	// Pages resident at issue time may have been pool-evicted while the
	// read was in flight (they are unpinned, so prime LRU victims under
	// load churn). Re-read any such page without the lock — and under
	// the device model — before committing, so the locked PinRange
	// below stays free of synchronous I/O.
	for {
		var gone []bufferpool.PageID
		job.t.eachPart(job.marked, func(col int) {
			first, count := job.t.partPages(job.d.Chunk, col)
			for id := first; id < first+bufferpool.PageID(count); id++ {
				if _, staged := s.staging[id]; !staged && !s.pool.Contains(id) {
					gone = append(gone, id)
				}
			}
		})
		if len(gone) == 0 {
			break
		}
		s.mu.Unlock()
		more, _, err := s.readMissing(job.t, gone)
		s.mu.Lock()
		for id, b := range more {
			s.staging[id] = b
		}
		if err != nil {
			return err
		}
	}
	var pinStart time.Time
	if s.o.enabled {
		pinStart = time.Now()
	}
	var pinned []partID
	var pinErr error
	job.t.eachPart(job.marked, func(col int) {
		if pinErr != nil {
			return
		}
		first, count := job.t.partPages(job.d.Chunk, col)
		view, err := s.pool.PinRange(first, first+bufferpool.PageID(count))
		if err != nil {
			pinErr = fmt.Errorf("engine: pin %s chunk %d col %d: %w", job.t.name, job.d.Chunk, col, err)
			return
		}
		k := partID{chunk: job.d.Chunk, col: col}
		job.t.views[k] = view
		pinned = append(pinned, k)
	})
	if pinErr != nil {
		for _, k := range pinned {
			job.t.views[k].Release()
			delete(job.t.views, k)
		}
		return pinErr
	}
	// Commit only the parts this job marked: a sibling in-flight load
	// of the same chunk's other columns finishes its own parts.
	// FinishLoad fires the waker of every query that gained availability,
	// so exactly the interested streams wake; the worker signals the
	// scheduler when it returns the in-flight slot.
	fin := job.d
	fin.Cols = job.marked
	job.t.abm.FinishLoad(fin)
	if s.o.enabled {
		now := time.Now()
		s.o.pinSeconds.Observe(now.Sub(pinStart).Seconds())
		if job.lane != (obs.Track{}) {
			job.lane.SpanAt("pin", pinStart, now, obs.Args{"chunk": job.d.Chunk})
		}
	}
	return nil
}

// retryPause returns the backoff before retry `attempt`: exponential in the
// configured base, capped at 100×, jittered to [50%, 150%). Called under mu.
func (s *Server) retryPause(attempt int) time.Duration {
	d := s.cfg.RetryBackoff
	for i := 0; i < attempt && d < 100*s.cfg.RetryBackoff; i++ {
		d *= 2
	}
	if max := 100 * s.cfg.RetryBackoff; d > max {
		d = max
	}
	return time.Duration(float64(d) * (0.5 + s.jitter.Float64()))
}

// abortJob rolls back a load that cannot complete: its staged pages return
// to the recycle pools, its ABM reservation is released (AbortLoad — the
// space un-reserve that keeps the budget from leaking), and, when cause is
// non-nil, the failing part is quarantined so the scheduler stops
// re-proposing it and the scans that need it fail fast. Blocked scans are
// woken to observe the quarantine. Called under mu.
func (s *Server) abortJob(job loadJob, cause error) {
	job.t.eachPart(job.marked, func(col int) {
		first, count := job.t.partPages(job.d.Chunk, col)
		for id := first; id < first+bufferpool.PageID(count); id++ {
			if b, ok := s.staging[id]; ok {
				delete(s.staging, id)
				s.recycle(b)
			}
		}
	})
	fin := job.d
	fin.Cols = job.marked
	job.t.abm.AbortLoad(fin)
	if cause == nil {
		return
	}
	for _, k := range s.quarantineTargets(job, cause) {
		if _, dup := job.t.quarantine[k]; !dup {
			job.t.quarantine[k] = cause
			s.faults.QuarantinedParts++
			s.o.quarantined.Inc()
			if s.o.tracer != nil {
				s.o.schedTrack.Instant("quarantine", obs.Args{"table": job.t.name, "chunk": k.chunk, "col": k.col})
			}
		}
	}
	// Wake this table's streams so scans needing the dead part observe the
	// quarantine and fail; other tables' streams are unaffected.
	for _, w := range job.t.streams {
		w.Signal()
	}
}

// quarantineTargets picks the parts to quarantine for a dead load: the
// exact part of the failing page when the error chain carries one (reads
// and checksum verification tag failures with *PageError), else — for
// errors with no page attribution — every part the job covered.
func (s *Server) quarantineTargets(job loadJob, cause error) []partID {
	var pe *PageError
	if errors.As(cause, &pe) {
		chunk, col := job.t.tf.PagePart(pe.Page)
		return []partID{{chunk: chunk, col: col}}
	}
	var out []partID
	job.t.eachPart(job.marked, func(col int) {
		out = append(out, partID{chunk: job.d.Chunk, col: col})
	})
	return out
}

// ioStats carries one readMissing call's measurements out for metric
// observation and trace rendering: the read's wall interval, the bytes
// handed back, and the slices of the interval spent verifying checksums,
// decoding compressed extents and sleeping in the device model (accumulated
// across the call's page runs). diskBytes is what the device transferred —
// the stored (compressed or raw) widths — and is counted even when
// observability is off, because the per-table disk accounting feeds
// TableStats; everything else is zero when the call had nothing to read or
// observability is off.
type ioStats struct {
	start, end time.Time
	bytes      int64 // decompressed bytes staged into page buffers
	diskBytes  int64 // stored bytes the device actually served
	verify     time.Duration
	decomp     time.Duration
	model      time.Duration // ReadBandwidth sleep
}

// readMissing reads the listed pages from the table file into recycled
// page buffers. Runs of consecutive page indexes — an NSM chunk's stripes,
// or the multi-stripe extent of a wide DSM column — are coalesced into a
// single positioned read, so a part load costs one pread per on-disk extent
// rather than one per stripe. A failing run does not stop the others: the
// successfully read pages come back alongside the first error, so the retry
// loop stages them and each retry re-reads only what is still missing —
// every faulty extent advances through its transient-fault window in
// parallel instead of one extent per retry. Called without the server lock;
// multiple workers read concurrently through ReadAt. When observability is
// enabled it also observes the read, verify, decompress, device-model and
// byte metrics and reports its measurements; the read time is what is left
// of the wall interval after the other three, so on a raw table it includes
// copying the stored pages into their buffers.
func (s *Server) readMissing(t *serverTable, missing []bufferpool.PageID) (map[bufferpool.PageID][]byte, ioStats, error) {
	if len(missing) == 0 {
		return nil, ioStats{}, nil
	}
	var iost ioStats
	if s.o.enabled {
		iost.start = time.Now()
	}
	out := make(map[bufferpool.PageID][]byte, len(missing))
	var firstErr error
	for i := 0; i < len(missing); {
		j := i + 1
		for j < len(missing) && missing[j] == missing[j-1]+1 {
			j++
		}
		if err := s.readRun(t, missing[i:j], out, &iost); err != nil && firstErr == nil {
			firstErr = err
		}
		i = j
	}
	t.diskRead.Add(iost.diskBytes)
	if s.o.enabled {
		iost.end = time.Now()
		for _, b := range out {
			iost.bytes += int64(len(b))
		}
		s.o.readBytes.Add(iost.diskBytes)
		s.o.decodedBytes.Add(iost.bytes)
		s.o.readSeconds.Observe((iost.end.Sub(iost.start) - iost.verify - iost.decomp - iost.model).Seconds())
		s.o.verifySeconds.Observe(iost.verify.Seconds())
		if t.tf.Compressed() {
			s.o.decompressSeconds.Observe(iost.decomp.Seconds())
		}
		if s.cfg.ReadBandwidth > 0 {
			s.o.modelSeconds.Observe(iost.model.Seconds())
		}
	}
	return out, iost, firstErr
}

// readRun reads one run of consecutive pages with one positioned read,
// every page into its own buffer drawn from the recycle list of its size —
// the same for a single page and for a whole NSM chunk, so every buffer the
// pool evicts can carry a later load. Buffers are always decompressed
// (fixed-width) pages — on a compressed table the read path decodes the
// stored extents on the way in — while disk, the device-bandwidth model and
// iost.diskBytes pay the stored widths. With observability on, the verify,
// decompress and device-model times accumulate into iost.
func (s *Server) readRun(t *serverTable, run []bufferpool.PageID, out map[bufferpool.PageID][]byte, iost *ioStats) error {
	start := time.Now()
	first := int64(run[0]) % pageStride
	stored := t.tf.StoredRunBytes(first, len(run))
	iost.diskBytes += stored
	var verify, decomp *time.Duration
	if s.o.enabled {
		verify = &iost.verify
		if t.tf.Compressed() {
			decomp = &iost.decomp
		}
	}
	bufs := make([][]byte, len(run))
	for i := range bufs {
		bufs[i] = s.bufPool(t.tf.PageBytes(first + int64(i))).get()
	}
	if err := t.tf.readPages(first, bufs, verify, decomp); err != nil {
		for _, b := range bufs {
			s.recycle(b)
		}
		return fmt.Errorf("engine: read %s pages [%d,%d): %w", t.name, first, first+int64(len(run)), err)
	}
	for i, id := range run {
		out[id] = bufs[i]
	}
	if bw := s.cfg.ReadBandwidth; bw > 0 {
		// Device model: this load stream moves at bw bytes/s over the
		// stored widths — a compressed extent costs its compressed size.
		// Sleep off whatever the page cache served faster than that.
		if budget := time.Duration(float64(stored) / float64(bw) * float64(time.Second)); budget > 0 {
			if spent := time.Since(start); spent < budget {
				time.Sleep(budget - spent)
				iost.model += time.Since(start) - spent
			}
		}
	}
	return nil
}

// fail records a fatal, server-wide error and wakes everyone. This is the
// last resort reserved for violated invariants (frame accounting); ordinary
// I/O failures stay inside their load's fault domain (retry → quarantine)
// and never come here. Callers hold mu.
func (s *Server) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.closed = true
	s.cond.Signal()
	s.detachCond.Broadcast()
	s.wakeAllStreams()
}

// quarantineError returns the typed failure for the first quarantined part
// scan q still needs — its remaining range covers the part's chunk and (in
// DSM) its projection includes the part's column — or nil. The fast path is
// one map-length test, so fault-free scans pay nothing.
func (s *Server) quarantineError(t *serverTable, q *core.Query) error {
	if len(t.quarantine) == 0 {
		return nil
	}
	for k, cause := range t.quarantine {
		if !q.Needs(k.chunk) {
			continue
		}
		if k.col >= 0 && !q.Cols.Has(k.col) {
			continue
		}
		if k.col < 0 {
			return fmt.Errorf("%w: %s chunk %d: %w", ErrChunkUnavailable, t.name, k.chunk, cause)
		}
		return fmt.Errorf("%w: %s chunk %d col %d: %w", ErrChunkUnavailable, t.name, k.chunk, k.col, cause)
	}
	return nil
}

// NumTables returns the number of table slots, tombstoned (detached) slots
// included: table indexes are stable for the server's lifetime.
func (s *Server) NumTables() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tables)
}

// Table returns the table file at index i (the file of a detached slot is
// still returned; it remains owned by the caller who attached it).
func (s *Server) Table(i int) *TableFile {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tables[i].tf
}

// Lookup returns the slot serving the named live table. Detached tables are
// not found — their names are freed the moment the detach begins.
func (s *Server) Lookup(name string) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.names[name]
	return i, ok
}

// TableName returns the registration name of table slot i.
func (s *Server) TableName(i int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tables[i].name
}

// PredRange is one conjunct of a scan's predicate: column Col's value lies
// in [Lo, Hi], inclusive. The engine uses it only to prune — chunks whose
// persisted zonemap bounds cannot intersect the interval are dropped from
// the registration — so a predicate is always safe to pass: tuple-level
// filtering stays the kernel's job, and on a column without bounds (the
// comment filler) the predicate simply prunes nothing.
type PredRange struct {
	Col    int
	Lo, Hi int64
}

// ScanRequest names everything one cooperative scan needs: the table slot,
// a diagnostic name, the chunk ranges, the column projection and an
// optional SLO weight.
type ScanRequest struct {
	Table  int
	Name   string
	Ranges storage.RangeSet
	Cols   storage.ColSet
	// Weight is the scan's starvation weight under the relevance policy:
	// the scheduler ranks the query as if it had remaining/Weight chunks
	// left, so higher-weight (interactive) scans cannot be starved by
	// floods of weight-1 (batch) ones. Zero means the default 1, which is
	// exactly the paper's unweighted formula.
	Weight float64
	// Preds are the scan's predicate ranges (§2(2) of the paper: chunk
	// metadata such as min/max values lets table scans skip chunks). Every
	// conjunct prunes independently; the query registers with the
	// intersection, so the scheduler's interest sets shrink to the chunks
	// that can actually match.
	Preds []PredRange
}

// ScanWith executes one cooperative scan — the engine's one scan entry
// point — over req.Ranges of table req.Table in the calling goroutine,
// invoking onChunk for every delivered chunk in the policy's delivery order
// (out-of-order for elevator and relevance). req.Cols is the scan's
// projection: on a DSM table only those columns are loaded, delivered and
// paid for; on an NSM table the whole chunk is loaded regardless (and
// delivered in full), but the declared projection still drives the
// useful-bytes accounting in the returned stats. req.Preds prune the range
// through the table's zonemaps before the query registers, and req.Weight
// sets its relevance starvation weight.
//
// ScanWith blocks until the scan has consumed its whole range and returns
// the query's statistics (times are wall-clock seconds since server start).
// When ctx is cancelled or its deadline passes, the scan — even one parked
// on its stream's condition variable waiting for a chunk that may never
// load — wakes, unregisters its query, releases nothing it still holds
// (pins are only held inside a delivery, never across the wait), and
// returns ctx's error. Cancellation is observed between chunk deliveries:
// an onChunk already in progress runs to completion. A nil ctx is
// Background.
func (s *Server) ScanWith(ctx context.Context, req ScanRequest, onChunk func(chunk int, data ChunkData)) (core.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if req.Weight < 0 {
		return core.Stats{}, fmt.Errorf("%w: scan %q weight %v", ErrInvalidWeight, req.Name, req.Weight)
	}
	s.mu.Lock()
	if req.Table < 0 || req.Table >= len(s.tables) {
		n := len(s.tables)
		s.mu.Unlock()
		return core.Stats{}, fmt.Errorf("%w: scan %q over table %d of %d", ErrUnknownTable, req.Name, req.Table, n)
	}
	t := s.tables[req.Table]
	s.mu.Unlock()
	// Validate before touching shared state: core.NewQuery panics on these,
	// and a panic while holding s.mu would wedge the whole server. The
	// table file is immutable, so these reads are safe without the lock;
	// a concurrent detach is caught at registration.
	if req.Ranges.Empty() {
		return core.Stats{}, fmt.Errorf("%w: scan %q over empty range set", ErrInvalidRange, req.Name)
	}
	if min := req.Ranges.Min(); min < 0 {
		return core.Stats{}, fmt.Errorf("%w: scan %q range %v starts below zero", ErrInvalidRange, req.Name, req.Ranges)
	}
	if req.Ranges.Max() >= t.tf.NumChunks() {
		return core.Stats{}, fmt.Errorf("%w: scan %q range %v beyond table (%d chunks)", ErrInvalidRange, req.Name, req.Ranges, t.tf.NumChunks())
	}
	if req.Cols.Empty() {
		return core.Stats{}, fmt.Errorf("%w: scan %q declares no columns", ErrInvalidColumns, req.Name)
	}
	if bad := req.Cols.Minus(storage.AllCols(NumCols)); !bad.Empty() {
		return core.Stats{}, fmt.Errorf("%w: scan %q reads columns %v beyond the stored %d", ErrInvalidColumns, req.Name, bad, NumCols)
	}
	// Zonemap pruning: drop every chunk whose persisted bounds exclude a
	// predicate before the query ever reaches the scheduler. Predicates
	// over the comment filler, which has no bounds, prune nothing —
	// predicates are hints, never filters, so correctness cannot depend on
	// them. An empty Lo>Hi interval legitimately prunes everything (e.g. a
	// quantity filter below the column's domain).
	if len(req.Preds) > 0 {
		for _, p := range req.Preds {
			if p.Col < 0 || p.Col >= NumCols {
				return core.Stats{}, fmt.Errorf("%w: scan %q predicate on column %d of %d", ErrInvalidColumns, req.Name, p.Col, NumCols)
			}
		}
		kept := req.Ranges
		for _, p := range req.Preds {
			zm := t.tf.ZoneMap(p.Col)
			if zm == nil {
				continue
			}
			kept = kept.Intersect(zm.Prune(p.Lo, p.Hi))
		}
		if skipped := req.Ranges.Len() - kept.Len(); skipped > 0 {
			t.pruned.Add(int64(skipped))
			t.o.pruned.Add(int64(skipped))
		}
		if kept.Empty() {
			// Every requested chunk's bounds exclude the predicate: the
			// scan is complete with zero chunks, no query registered.
			return core.Stats{Query: req.Name}, nil
		}
		req.Ranges = kept
	}
	if !s.o.enabled {
		return s.scanStream(ctx, t, req, onChunk)
	}
	// With observability on, label the stream's goroutine so CPU and
	// goroutine profiles attribute work to the scan and its table.
	var st core.Stats
	var err error
	pprof.Do(ctx, pprof.Labels("scan", req.Name, "table", t.name), func(ctx context.Context) {
		st, err = s.scanStream(ctx, t, req, onChunk)
	})
	return st, err
}

// scanStream is the body of one query stream: it queues its registration
// for the scheduler's batch drain, then loops pick → pin → deliver →
// release until the range is consumed, parking on its own condition
// variable while blocked (woken by the query's availability waker).
func (s *Server) scanStream(ctx context.Context, t *serverTable, req ScanRequest, onChunk func(chunk int, data ChunkData)) (core.Stats, error) {
	name, ranges, cols := req.Name, req.Ranges, req.Cols
	// w is this stream's private condition variable: the stream parks on it
	// (never on the scheduler's cond) and is woken individually — by its
	// query's availability waker, a quarantine on its table, its context
	// watcher, or shutdown.
	w := sync.NewCond(&s.mu)
	if done := ctx.Done(); done != nil {
		// Watcher: a context firing must unblock a scan parked in w.Wait.
		// Skipped entirely for non-cancellable contexts, so the fault-free
		// fast path (a Background context) pays nothing for cancellability. Taking mu orders
		// the signal after the stream's park: the stream holds mu from its
		// ctx.Err() check until the Wait releases it.
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-done:
				s.mu.Lock()
				w.Signal()
				s.mu.Unlock()
			case <-stop:
			}
		}()
	}
	dsm := t.tf.Format() == DSM
	projBytes := ProjectionBytes(cols)
	var scratch [][]byte
	if dsm {
		scratch = make([][]byte, NumCols)
	}
	if s.o.enabled {
		scanStart := time.Now()
		defer func() { t.o.scan.Observe(time.Since(scanStart).Seconds()) }()
	}
	var track obs.Track
	if s.o.tracer != nil {
		track = s.o.tracer.NewTrack("scan " + name + " [" + t.name + "]")
	}
	var useful int64
	// waitStart is nonzero while a traced blocked period is open. The waker
	// fires on every availability gain, which the policy's picker may still
	// decline (e.g. the sequential cursor wants a specific chunk), so a
	// blocked stream can wake more than once per delivered chunk;
	// consecutive blocked loop iterations coalesce into ONE wait span,
	// closed when the stream unblocks (or exits).
	var waitStart time.Time
	closeWait := func() {
		if !waitStart.IsZero() {
			track.Span("wait", waitStart, nil)
			waitStart = time.Time{}
		}
	}
	s.mu.Lock()
	if s.closed {
		// A scan entered after Close (or after a fatal failure) must not
		// register a query on a dead server: the scheduler is gone, so the
		// query could never be served or unregistered.
		err := s.err
		s.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return core.Stats{}, err
	}
	// Queue the registration for the scheduler and park until it is served:
	// the scheduler drains the whole queue in one batch (one arbiter pass
	// for any number of simultaneous arrivals) and wires the query's waker
	// to w before this stream can ever block on availability.
	if t.detaching || t.detached {
		s.mu.Unlock()
		return core.Stats{}, fmt.Errorf("engine: scan %q: %w: table %s", name, ErrTableDetached, t.name)
	}
	reg := &regRequest{t: t, name: name, ranges: ranges, cols: cols, weight: req.Weight, w: w}
	s.regQueue = append(s.regQueue, reg)
	s.cond.Signal()
	for !reg.done {
		w.Wait()
	}
	if reg.q == nil {
		// The server closed — or the table detached — before the
		// registration was served.
		err := reg.err
		if err == nil {
			err = s.err
		}
		s.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return core.Stats{}, err
	}
	q := reg.q
	for !q.Finished() {
		if s.closed {
			closeWait()
			delete(t.streams, q)
			st := t.abm.Finish(q)
			err := s.err
			s.mu.Unlock()
			if err == nil {
				err = ErrClosed
			}
			st.BytesUseful = useful
			return st, err
		}
		if cerr := ctx.Err(); cerr != nil {
			closeWait()
			delete(t.streams, q)
			st := t.abm.Finish(q)
			s.faults.CancelledScans++
			s.o.cancelledScans.Inc()
			s.cond.Signal()
			s.mu.Unlock()
			st.BytesUseful = useful
			return st, fmt.Errorf("engine: scan %q: %w", name, cerr)
		}
		if t.detaching {
			// The table is being detached: unregister so the scheduler can
			// quiesce and finalise it, and fail typed.
			closeWait()
			delete(t.streams, q)
			st := t.abm.Finish(q)
			s.cond.Signal()
			s.mu.Unlock()
			st.BytesUseful = useful
			return st, fmt.Errorf("engine: scan %q: %w: table %s", name, ErrTableDetached, t.name)
		}
		if qerr := s.quarantineError(t, q); qerr != nil {
			closeWait()
			delete(t.streams, q)
			st := t.abm.Finish(q)
			s.faults.FailedScans++
			s.o.failedScans.Inc()
			s.cond.Signal()
			s.mu.Unlock()
			st.BytesUseful = useful
			return st, qerr
		}
		c := t.pol.PickAvailable(q)
		if c < 0 {
			// The blocked flag must be visible to the scheduler before it
			// re-evaluates eviction (the relevance relaxation passes fire
			// only when every registered query is blocked), so wake it —
			// then park on the stream's own cond until the query's waker
			// (or a quarantine, cancellation or shutdown) fires.
			q.SetBlocked(true)
			s.cond.Signal()
			if s.o.tracer != nil && waitStart.IsZero() {
				waitStart = time.Now()
			}
			w.Wait()
			q.SetBlocked(false)
			continue
		}
		closeWait()
		var deliverStart time.Time
		if s.o.enabled {
			deliverStart = time.Now()
		}
		t.abm.Pin(q, c)
		// The pin lifts the chunk's fresh-load eviction protection: wake a
		// scheduler parked on a failed EnsureSpace so the next load
		// overlaps with this chunk's processing.
		s.cond.Signal()
		tuples := t.tf.Layout().ChunkTuples(c)
		var data ChunkData
		if dsm {
			// Per-column views: deliver exactly the projection.
			cols.Each(func(col int) {
				scratch[col] = t.views[partID{chunk: c, col: col}].Data[0]
			})
			data = ChunkData{stripes: scratch, cols: cols, tuples: tuples}
		} else {
			// The NSM chunk view's pages are the stripes in column order.
			data = ChunkData{stripes: t.views[partID{chunk: c, col: -1}].Data, cols: storage.AllCols(NumCols), tuples: tuples}
		}
		useful += tuples * projBytes
		t.o.useful.Add(tuples * projBytes)
		if s.o.tracer != nil {
			track.SpanAt("deliver", deliverStart, time.Now(), obs.Args{"chunk": c})
		}
		s.mu.Unlock()
		var procStart time.Time
		if s.o.tracer != nil {
			procStart = time.Now()
		}
		if onChunk != nil {
			onChunk(c, data)
		}
		if s.o.tracer != nil {
			track.SpanAt("process", procStart, time.Now(), obs.Args{"chunk": c})
		}
		s.mu.Lock()
		t.abm.Release(q, c)
		// The release unpins the chunk: a scheduler parked on a failed
		// EnsureSpace may now find a victim. Availability of other streams
		// only shrinks here, so no stream wake is needed.
		s.cond.Signal()
	}
	delete(t.streams, q)
	st := t.abm.Finish(q)
	s.cond.Signal()
	s.mu.Unlock()
	st.BytesUseful = useful
	return st, nil
}

// Stats returns the server's counters: one entry per table plus the shared
// pool's totals.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

func (s *Server) statsLocked() ServerStats {
	out := ServerStats{Pool: s.pool.Stats(), Faults: s.faults}
	for _, t := range s.tables {
		if t.detached {
			continue
		}
		schedDur, schedCalls := t.abm.SchedulingCost()
		out.Tables = append(out.Tables, TableStats{
			Name:          t.name,
			ABM:           t.abm.Stats(),
			BudgetBytes:   t.abm.BufferBytes(),
			SchedNanos:    schedDur.Nanoseconds(),
			SchedCalls:    schedCalls,
			DiskBytesRead: t.diskRead.Load(),
			ChunksPruned:  t.pruned.Load(),
		})
	}
	return out
}

// PoolStatus is the shared pool's slice of a Status snapshot: the cumulative
// Stats counters plus the instantaneous occupancy.
type PoolStatus struct {
	bufferpool.Stats
	Resident int
	Pinned   int
}

// Status is the server's live snapshot — the JSON document /statusz serves
// and the CLIs' shared report renders: identity (policy, uptime), the
// instantaneous scheduler state, and the same per-table/pool/fault counters
// Stats returns.
type Status struct {
	Policy        string       `json:"policy"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	InFlight      int          `json:"in_flight"`
	Tables        []TableStats `json:"tables"`
	Pool          PoolStatus   `json:"pool"`
	Faults        FaultStats   `json:"faults"`
}

// StatusSnapshot returns the server's current Status.
func (s *Server) StatusSnapshot() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.statsLocked()
	return Status{
		Policy:        s.cfg.Policy.String(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		InFlight:      s.inFlight,
		Tables:        st.Tables,
		Pool:          PoolStatus{Stats: st.Pool, Resident: s.pool.Resident(), Pinned: s.pool.Pinned()},
		Faults:        st.Faults,
	}
}

// Budgets returns the current arbiter grants in table-slot order (zero for
// detached slots).
func (s *Server) Budgets() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int64, len(s.tables))
	for i, t := range s.tables {
		if !t.detached {
			out[i] = t.abm.BufferBytes()
		}
	}
	return out
}

// Close is a graceful drain: it stops the scheduler from issuing new
// loads, lets the workers finish (commit) or abort their in-flight loads
// — a load mid-retry aborts instead of sleeping out its backoff — wakes
// every waiter, joins the workers, and releases all part views.
// Outstanding Scans are woken and return ErrClosed; scans entered after
// Close return ErrClosed immediately. The returned error is nil unless the
// server died of a fatal invariant violation (Server.fail).
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.cond.Signal()
		s.detachCond.Broadcast()
		s.wakeAllStreams()
		s.mu.Unlock()
		<-s.schedDone
		close(s.loadCh)
		s.workerWG.Wait()
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, t := range s.tables {
			for k, v := range t.views {
				v.Release()
				delete(t.views, k)
			}
		}
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
