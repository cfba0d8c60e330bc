// Package coopscan is a reproduction of "Cooperative Scans: Dynamic
// Bandwidth Sharing in a DBMS" (Zukowski, Héman, Nes, Boncz — VLDB 2007).
//
// It implements the paper's Cooperative Scans framework — the CScan scan
// operator plus an Active Buffer Manager (ABM) that dynamically schedules
// chunk-granularity disk I/O across all concurrent scans of a table — with
// all four scheduling policies studied in the paper (normal, attach,
// elevator and the new relevance policy), over both row-wise (NSM/PAX) and
// column-wise (DSM) storage layouts.
//
// Everything runs on a deterministic discrete-event simulation of the
// paper's benchmark hardware (a ~210 MB/s RAID and a 2-core CPU), so
// experiments are exactly reproducible and complete in seconds. Real query
// processing (TPC-H Q6/Q1-style aggregation, ordered aggregation under
// out-of-order delivery, cooperative merge join) can be attached to scans
// via the OnChunk hook, computing true results over synthetic TPC-H data.
//
// The typical flow is:
//
//	layout := coopscan.NewRowLayout(coopscan.Lineitem(1), 16<<20)
//	sys := coopscan.NewSystem(coopscan.Config{
//		Policy:      coopscan.Relevance,
//		BufferBytes: 64 * 16 << 20,
//	}, layout)
//	sys.AddStream(0, coopscan.Scan{Name: "q1", Ranges: coopscan.FullTable(layout)})
//	sys.AddStream(3, coopscan.Scan{Name: "q2", Ranges: coopscan.FullTable(layout)})
//	report, err := sys.Run()
//
// A System over several layouts runs scans of several tables against one
// disk, one CPU pool and one buffer budget (§7.1); each Scan then names its
// table.
//
// See the examples/ directory for complete programs, and cmd/coopscan for
// the experiment harness that regenerates every table and figure of the
// paper's evaluation.
package coopscan

import (
	"fmt"

	"coopscan/internal/core"
	"coopscan/internal/disk"
	"coopscan/internal/sim"
	"coopscan/internal/storage"
)

// Policy selects the I/O scheduling policy (the paper's §3-§4).
type Policy = core.Policy

// The four policies of the paper.
const (
	// Normal is per-query sequential scanning over an LRU buffer pool.
	Normal = core.Normal
	// Attach is circular/shared scans (SQLServer, RedBrick, Teradata).
	Attach = core.Attach
	// Elevator is a single strictly-sequential system-wide cursor.
	Elevator = core.Elevator
	// Relevance is the paper's contribution: relevance-function scheduling.
	Relevance = core.Relevance
)

// Policies lists all policies in presentation order.
var Policies = core.Policies

// Re-exported building blocks, so applications need only this package.
type (
	// Table is logical table metadata (name, columns, row count).
	Table = storage.Table
	// Column describes one attribute, including its DSM compression.
	Column = storage.Column
	// Layout is a physical table layout (row- or column-wise).
	Layout = storage.Layout
	// Range is a half-open chunk interval.
	Range = storage.Range
	// RangeSet is a normalised set of chunk ranges (a scan request).
	RangeSet = storage.RangeSet
	// ColSet is a set of column indices (DSM scans).
	ColSet = storage.ColSet
	// ZoneMap is per-chunk min/max metadata used to prune scan ranges.
	ZoneMap = storage.ZoneMap
	// ScanStats reports one finished scan.
	ScanStats = core.Stats
	// SystemStats aggregates buffer-manager counters.
	SystemStats = core.SystemStats
	// DiskParams describes the simulated device.
	DiskParams = disk.Params
	// DiskStats aggregates device activity.
	DiskStats = disk.Stats
)

// NewRangeSet, Cols and AllCols build scan requests.
var (
	NewRangeSet = storage.NewRangeSet
	Cols        = storage.Cols
	AllCols     = storage.AllCols
)

// NewRowLayout lays a table out row-wise (NSM/PAX) in fixed-size chunks.
func NewRowLayout(t *Table, chunkBytes int64) *storage.NSMLayout {
	return storage.NewNSMLayout(t, chunkBytes, 0)
}

// NewRowLayoutWidth is NewRowLayout with an explicit effective tuple width,
// modelling PAX pages with lightweight compression.
func NewRowLayoutWidth(t *Table, chunkBytes int64, tupleBytes float64) *storage.NSMLayout {
	return storage.NewNSMLayoutWidth(t, chunkBytes, 0, tupleBytes)
}

// NewColumnLayout lays a table out column-wise (DSM) with logical chunks of
// tuplesPerChunk rows over pageBytes pages; per-column physical densities
// come from each Column's compression scheme.
func NewColumnLayout(t *Table, tuplesPerChunk, pageBytes int64) *storage.DSMLayout {
	return storage.NewDSMLayout(t, tuplesPerChunk, pageBytes, 0)
}

// FullTable returns the range set covering every chunk of the layout.
func FullTable(l Layout) RangeSet {
	return NewRangeSet(Range{Start: 0, End: l.NumChunks()})
}

// Config parameterises a System.
type Config struct {
	// Policy is the scheduling policy; the zero value is Normal.
	Policy Policy
	// BufferBytes is the total ABM pool capacity; required.
	BufferBytes int64
	// Disk overrides the device model; zero value uses the paper-like
	// defaults (~210 MB/s sequential, 8 ms seek).
	Disk DiskParams
}

// The simulated CPU: the paper's dual-core machine, time-shared in 10 ms
// preemption slices.
const (
	cpuCores   = 2
	cpuQuantum = 0.01
)

// Scan describes one cooperative scan to execute.
type Scan struct {
	// Name labels the scan in statistics.
	Name string
	// Table names the layout the scan reads (its Table().Name); it may be
	// empty when the system has one table.
	Table string
	// Ranges is the set of chunks to read; required.
	Ranges RangeSet
	// Columns is the DSM column set; ignored for row layouts.
	Columns ColSet
	// CPUPerChunk is the simulated processing cost of one full chunk in
	// seconds (scaled down pro rata for a short final chunk).
	CPUPerChunk float64
	// OnChunk, when non-nil, is invoked for every delivered chunk with the
	// table row range it covers, in delivery order — the hook where real
	// query processing (e.g. exec-style aggregation) plugs in. Delivery
	// order is policy-dependent and generally not sequential.
	OnChunk func(chunk int, firstRow, rows int64)
}

// System is an assembled simulation: a disk, a CPU pool, one ABM per table
// layout under a core.Manager (each with its own chunk map, query registry
// and policy state — the paper's §7.1 requirement that a production CScan
// "keep track of multiple tables, keeping separate statistics and
// meta-data for each"), and a set of query streams. Build with NewSystem,
// add streams, then call Run exactly once.
type System struct {
	env *sim.Env
	dsk *disk.Disk
	cpu *sim.Resource
	mgr *core.Manager

	layouts  map[string]Layout
	only     string // the table name of a one-table system, else ""
	nStreams int
	pending  int
	results  []scanSlot
	ran      bool
}

type scanSlot struct {
	stream int
	stats  ScanStats
}

// NewSystem creates a system over one or more layouts, keyed by table name.
// A single layout's ABM gets all of Config.BufferBytes; several layouts
// divide it proportionally to size, with a one-chunk floor each.
func NewSystem(cfg Config, layouts ...Layout) *System {
	if len(layouts) == 0 {
		panic("coopscan: NewSystem with no layouts")
	}
	if cfg.Disk.Bandwidth == 0 {
		cfg.Disk = disk.DefaultParams()
	}
	env := sim.NewEnv()
	d := disk.New(env, cfg.Disk)
	s := &System{
		env: env, dsk: d, cpu: env.NewResource("cpu", cpuCores),
		mgr:     core.NewManager(env, d, core.Config{Policy: cfg.Policy}),
		layouts: make(map[string]Layout, len(layouts)),
	}
	shares := []int64{cfg.BufferBytes}
	if len(layouts) > 1 {
		// Floor each table's share at one full-width chunk so every ABM
		// can make progress.
		var maxChunk int64 = 1
		for _, l := range layouts {
			maxChunk = max(maxChunk, l.ChunkBytes(0, AllCols(min(l.Table().NumColumns(), 64))))
		}
		shares = core.SplitBuffer(cfg.BufferBytes, maxChunk, layouts...)
	} else {
		s.only = layouts[0].Table().Name
	}
	for i, l := range layouts {
		s.layouts[l.Table().Name] = l
		s.mgr.Attach(l, shares[i])
	}
	return s
}

// UseCScan reports whether scans of the named table go through the
// cooperative machinery (§7.1: small tables fall back to plain Scan —
// which in this implementation is simply a one-query normal-policy pass,
// so the answer is advisory).
func (s *System) UseCScan(table string) bool { return s.mgr.UseCScan(table) }

// AddStream schedules scans to run sequentially, starting at virtual time
// startAt seconds — the paper's notion of a query stream.
func (s *System) AddStream(startAt float64, scans ...Scan) {
	if s.ran {
		panic("coopscan: AddStream after Run")
	}
	if len(scans) == 0 {
		panic("coopscan: empty stream")
	}
	scans = append([]Scan(nil), scans...)
	for i := range scans {
		sc := &scans[i]
		if sc.Table == "" {
			sc.Table = s.only
		}
		if _, ok := s.layouts[sc.Table]; !ok {
			panic(fmt.Sprintf("coopscan: scan %q names unknown table %q", sc.Name, sc.Table))
		}
		if sc.Ranges.Empty() {
			panic(fmt.Sprintf("coopscan: scan %q has no ranges", sc.Name))
		}
	}
	streamIdx := s.nStreams
	s.nStreams++
	base := len(s.results)
	for range scans {
		s.results = append(s.results, scanSlot{stream: streamIdx})
	}
	s.pending++
	s.env.ProcessAt(fmt.Sprintf("stream-%d", streamIdx), startAt, func(p *sim.Proc) {
		for i, sc := range scans {
			s.results[base+i].stats = s.runScan(p, sc)
		}
		s.pending--
		if s.pending == 0 {
			s.mgr.Shutdown()
		}
	})
}

// runScan executes one scan of a stream as a CScan over its table's ABM.
func (s *System) runScan(p *sim.Proc, sc Scan) ScanStats {
	layout := s.layouts[sc.Table]
	abm, _ := s.mgr.For(sc.Table)
	fullTuples := layout.ChunkTuples(0)
	opts := core.ScanOptions{CPU: s.cpu, Quantum: cpuQuantum}
	if sc.CPUPerChunk > 0 {
		per := sc.CPUPerChunk
		opts.Cost = func(_ int, tuples int64) float64 {
			if fullTuples <= 0 {
				return per
			}
			return per * float64(tuples) / float64(fullTuples)
		}
	}
	if sc.OnChunk != nil {
		hook := sc.OnChunk
		opts.OnChunk = func(chunk int) {
			hook(chunk, int64(chunk)*fullTuples, layout.ChunkTuples(chunk))
		}
	}
	return core.RunCScan(p, abm, abm.NewQuery(sc.Name, sc.Ranges, sc.Columns), opts)
}

// Report is the outcome of a Run.
type Report struct {
	// Scans holds per-scan statistics in AddStream order.
	Scans []ScanStats
	// Streams maps each entry of Scans to its stream index.
	Streams []int
	// System sums the ABM counters over every table; Disk aggregates
	// device activity.
	System SystemStats
	Disk   DiskStats
	// Elapsed is the total virtual time, CPUUtilisation the mean busy
	// fraction of the core pool over it.
	Elapsed        float64
	CPUUtilisation float64
}

// Run executes all streams to completion and returns the report. It can be
// called once per System.
func (s *System) Run() (*Report, error) {
	if s.ran {
		return nil, fmt.Errorf("coopscan: Run called twice")
	}
	if s.nStreams == 0 {
		return nil, fmt.Errorf("coopscan: no streams added")
	}
	s.ran = true
	if err := s.env.Run(0); err != nil {
		return nil, fmt.Errorf("coopscan: simulation stuck: %w", err)
	}
	rep := &Report{
		System:         s.mgr.Stats(),
		Disk:           s.dsk.Stats(),
		Elapsed:        s.env.Now(),
		CPUUtilisation: s.cpu.Utilisation(),
	}
	for _, slot := range s.results {
		rep.Scans = append(rep.Scans, slot.stats)
		rep.Streams = append(rep.Streams, slot.stream)
	}
	return rep, nil
}

// Pace makes Run sleep factor×(virtual seconds) of wall time between
// events, so examples can animate a simulation; call before Run.
func (s *System) Pace(factor float64) { s.env.Pace = factor }
