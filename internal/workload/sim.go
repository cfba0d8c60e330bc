package workload

import (
	"fmt"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/disk"
	"coopscan/internal/sim"
	"coopscan/internal/storage"
)

// The simulated CPU: the paper's dual-core machine, time-shared in 10 ms
// preemption slices so short queries are not stuck behind whole-chunk
// computations of long ones.
const (
	cpuCores   = 2
	cpuQuantum = 0.01
)

// Sim is the one simulator assembly: an environment, a disk, a CPU pool
// and a core.Manager with one ABM per table layout, plus the query streams
// that run on them. Spec.Run, Spec.Standalone and the root coopscan.System
// all build a Sim, add streams that call RunScan, and Run it once.
type Sim struct {
	env  *sim.Env
	dsk  *disk.Disk
	cpu  *sim.Resource
	mgr  *core.Manager
	only string // the table name of a one-table Sim, else ""

	streams int // streams added
	live    int // streams not yet finished
}

// NewSim assembles a simulation over one or more layouts. A zero dp uses
// disk.DefaultParams; traceDisk > 0 records up to that many disk requests.
// A single layout's ABM gets all of cfg.BufferBytes; several layouts divide
// it proportionally to size, with a one-chunk floor each.
func NewSim(cfg core.Config, dp disk.Params, traceDisk int, layouts ...storage.Layout) *Sim {
	if dp.Bandwidth == 0 {
		dp = disk.DefaultParams()
	}
	env := sim.NewEnv()
	d := disk.New(env, dp)
	if traceDisk > 0 {
		d.EnableTrace(traceDisk)
	}
	s := &Sim{env: env, dsk: d, cpu: env.NewResource("cpu", cpuCores), mgr: core.NewManager(env, d, cfg)}
	shares := []int64{cfg.BufferBytes}
	if len(layouts) > 1 {
		// Floor each table's share at one full-width chunk so every ABM
		// can make progress.
		var maxChunk int64 = 1
		for _, l := range layouts {
			maxChunk = max(maxChunk, l.ChunkBytes(0, storage.AllCols(min(l.Table().NumColumns(), storage.MaxColumns))))
		}
		shares = core.SplitBuffer(cfg.BufferBytes, maxChunk, layouts...)
	} else {
		s.only = layouts[0].Table().Name
	}
	for i, l := range layouts {
		s.mgr.Attach(l, shares[i])
	}
	return s
}

// ABM returns the named table's ABM; "" names the only table of a
// one-table Sim.
func (s *Sim) ABM(table string) (*core.ABM, bool) {
	if table == "" {
		table = s.only
	}
	return s.mgr.For(table)
}

// UseCScan reports the manager's small-table advice (§7.1).
func (s *Sim) UseCScan(table string) bool { return s.mgr.UseCScan(table) }

// Pace makes Run sleep factor×(virtual seconds) of wall time between
// events.
func (s *Sim) Pace(factor float64) { s.env.Pace = factor }

// Stream starts body as a query stream at virtual time startAt — the
// paper's notion of a stream; body runs its scans with RunScan. When the
// last stream ends the manager shuts down, so Run returns. Stream returns
// the stream's index, counting from 0.
func (s *Sim) Stream(startAt float64, body func(p *sim.Proc)) int {
	s.live++
	s.env.ProcessAt(fmt.Sprintf("stream-%d", s.streams), startAt, func(p *sim.Proc) {
		body(p)
		s.live--
		if s.live == 0 {
			s.mgr.Shutdown()
		}
	})
	s.streams++
	return s.streams - 1
}

// Scan describes one cooperative scan to execute.
type Scan struct {
	// Name labels the scan in statistics.
	Name string
	// Table names the layout the scan reads (its Table().Name); it may be
	// empty when the system has one table.
	Table string
	// Ranges is the set of chunks to read; required.
	Ranges storage.RangeSet
	// Columns is the DSM column set; ignored for row layouts.
	Columns storage.ColSet
	// CPUPerChunk is the simulated processing cost of one full chunk in
	// seconds (scaled down pro rata for a short final chunk).
	CPUPerChunk float64
	// OnChunk, when non-nil, is invoked for every delivered chunk with the
	// table row range it covers, in delivery order — the hook where real
	// query processing (e.g. exec-style aggregation) plugs in. Delivery
	// order is policy-dependent and generally not sequential.
	OnChunk func(chunk int, firstRow, rows int64)
}

// RunScan executes sc as a CScan over its table's ABM from within a stream
// and returns its statistics. The table must exist.
func (s *Sim) RunScan(p *sim.Proc, sc Scan) core.Stats {
	abm, _ := s.ABM(sc.Table)
	layout := abm.Layout()
	fullTuples := layout.ChunkTuples(0)
	opts := core.ScanOptions{CPU: s.cpu, Quantum: cpuQuantum}
	if per := sc.CPUPerChunk; per > 0 {
		opts.Cost = func(_ int, tuples int64) float64 {
			if fullTuples <= 0 {
				return per
			}
			return per * float64(tuples) / float64(fullTuples)
		}
	}
	if hook := sc.OnChunk; hook != nil {
		opts.OnChunk = func(chunk int) {
			hook(chunk, int64(chunk)*fullTuples, layout.ChunkTuples(chunk))
		}
	}
	return core.RunCScan(p, abm, abm.NewQuery(sc.Name, sc.Ranges, sc.Columns), opts)
}

// SimReport is the outcome of a Sim run.
type SimReport struct {
	// Elapsed is the total virtual time, CPUUtilisation the mean busy
	// fraction of the core pool over it.
	Elapsed        float64
	CPUUtilisation float64
	// SystemStats sums the ABM counters over every table.
	core.SystemStats
	// Disk aggregates device activity; DiskTrace holds the recorded
	// requests when tracing was enabled.
	Disk      disk.Stats
	DiskTrace []disk.TraceEntry
	// SchedTime and SchedCalls sum the wall-clock time and count of
	// scheduling decisions over every table (core.Config.MeasureScheduling).
	SchedTime  time.Duration
	SchedCalls int64
}

// Run executes every stream to completion; call it once.
func (s *Sim) Run() (SimReport, error) {
	if err := s.env.Run(0); err != nil {
		return SimReport{}, err
	}
	rep := SimReport{
		Elapsed:        s.env.Now(),
		CPUUtilisation: s.cpu.Utilisation(),
		SystemStats:    s.mgr.Stats(),
		Disk:           s.dsk.Stats(),
		DiskTrace:      s.dsk.Trace(),
	}
	for _, name := range s.mgr.Tables() {
		a, _ := s.mgr.For(name)
		d, n := a.SchedulingCost()
		rep.SchedTime += d
		rep.SchedCalls += n
	}
	return rep, nil
}
