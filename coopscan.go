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
	"coopscan/internal/workload"
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

// Scan describes one cooperative scan to execute: its table, chunk ranges,
// DSM columns, per-chunk CPU cost and an optional per-chunk OnChunk hook.
type Scan = workload.Scan

// System is an assembled simulation: a disk, a CPU pool, one ABM per table
// layout under a core.Manager (each with its own chunk map, query registry
// and policy state — the paper's §7.1 requirement that a production CScan
// "keep track of multiple tables, keeping separate statistics and
// meta-data for each"), and a set of query streams. Build with NewSystem,
// add streams, then call Run exactly once.
type System struct {
	sim     *workload.Sim
	scans   []ScanStats // per scan, in AddStream order
	streams []int       // each scan's stream index
	ran     bool
}

// NewSystem creates a system over one or more layouts, keyed by table name.
// A single layout's ABM gets all of Config.BufferBytes; several layouts
// divide it proportionally to size, with a one-chunk floor each.
func NewSystem(cfg Config, layouts ...Layout) *System {
	if len(layouts) == 0 {
		panic("coopscan: NewSystem with no layouts")
	}
	abm := core.Config{Policy: cfg.Policy, BufferBytes: cfg.BufferBytes}
	return &System{sim: workload.NewSim(abm, cfg.Disk, 0, layouts...)}
}

// UseCScan reports whether scans of the named table go through the
// cooperative machinery (§7.1: small tables fall back to plain Scan —
// which in this implementation is simply a one-query normal-policy pass,
// so the answer is advisory).
func (s *System) UseCScan(table string) bool { return s.sim.UseCScan(table) }

// AddStream schedules scans to run sequentially, starting at virtual time
// startAt seconds — the paper's notion of a query stream.
func (s *System) AddStream(startAt float64, scans ...Scan) {
	if s.ran {
		panic("coopscan: AddStream after Run")
	}
	if len(scans) == 0 {
		panic("coopscan: empty stream")
	}
	for _, sc := range scans {
		if _, ok := s.sim.ABM(sc.Table); !ok {
			panic(fmt.Sprintf("coopscan: scan %q names unknown table %q", sc.Name, sc.Table))
		}
		if sc.Ranges.Empty() {
			panic(fmt.Sprintf("coopscan: scan %q has no ranges", sc.Name))
		}
	}
	scans = append([]Scan(nil), scans...)
	base := len(s.scans)
	s.scans = append(s.scans, make([]ScanStats, len(scans))...)
	stream := s.sim.Stream(startAt, func(p *sim.Proc) {
		for i, sc := range scans {
			s.scans[base+i] = s.sim.RunScan(p, sc)
		}
	})
	for range scans {
		s.streams = append(s.streams, stream)
	}
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
	if len(s.scans) == 0 {
		return nil, fmt.Errorf("coopscan: no streams added")
	}
	s.ran = true
	out, err := s.sim.Run()
	if err != nil {
		return nil, fmt.Errorf("coopscan: simulation stuck: %w", err)
	}
	return &Report{
		Scans:          s.scans,
		Streams:        s.streams,
		System:         out.SystemStats,
		Disk:           out.Disk,
		Elapsed:        out.Elapsed,
		CPUUtilisation: out.CPUUtilisation,
	}, nil
}

// Pace makes Run sleep factor×(virtual seconds) of wall time between
// events, so examples can animate a simulation; call before Run.
func (s *System) Pace(factor float64) { s.sim.Pace(factor) }
