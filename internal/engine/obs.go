package engine

import (
	"fmt"

	"coopscan/internal/bufferpool"
	"coopscan/internal/core"
	"coopscan/internal/obs"
)

// serverObs bundles the server's resolved metric series and its tracer.
// Every handle is nil-safe (see internal/obs), so instrumented code updates
// them without guards; the enabled flag gates only the work that exists to
// feed a metric — time.Now() pairs and trace-arg construction — so a server
// built without ServerConfig.Obs/Trace pays nil checks and nothing else.
//
// Trace layout: one "scheduler" track carries instant events for every
// decision the scheduler goroutine takes (load issues, evictions, arbiter
// rebalances, quarantines); each query stream gets its own track from
// scanStream (wait → deliver → process spans); and each table's load
// pipeline renders on a small set of per-table "lane" tracks — a load job
// claims a lane at issue and returns it at completion, so the queued → read
// → verify → decompress → device_model → pin spans of concurrent loads never
// overlap within a track. The verify, decompress and device-model times are
// accumulated across a load's page runs (each run is read, verified,
// decoded, then slept off in turn) and rendered as spans trailing the read
// they belong to; the load's wall time is exact, the boundaries between the
// stages are the accumulated split.
type serverObs struct {
	enabled bool
	tracer  *obs.Tracer

	inflight          *obs.Gauge
	readSeconds       *obs.Histogram
	verifySeconds     *obs.Histogram
	decompressSeconds *obs.Histogram
	modelSeconds      *obs.Histogram
	pinSeconds        *obs.Histogram
	readBytes         *obs.Counter
	decodedBytes      *obs.Counter
	recycleGets       *obs.Counter
	recycleAllocs     *obs.Counter

	// Fault counters mirror FaultStats one to one and stay unlabelled, so a
	// registry scrape can be compared exactly against Server.Stats().Faults.
	retries        *obs.Counter
	checksumErrors *obs.Counter
	quarantined    *obs.Counter
	failedScans    *obs.Counter
	cancelledScans *obs.Counter

	schedSeconds *obs.HistogramVec // {table, policy}
	scanSeconds  *obs.HistogramVec // {table, policy}
	usefulBytes  *obs.CounterVec   // {table}
	prunedChunks *obs.CounterVec   // {table, policy}

	schedTrack obs.Track
}

// tableObs is one table's pre-resolved slice of the server metrics — the
// label lookups happen once at construction, keeping the hot paths at plain
// atomic updates — plus the table's trace-lane freelist (guarded by the
// server mutex, like the rest of the per-table state).
type tableObs struct {
	sched  *obs.Histogram
	scan   *obs.Histogram
	useful *obs.Counter
	pruned *obs.Counter

	lanes     []obs.Track
	laneCount int
}

// newServerObs resolves the server's metric series from reg and allocates
// the scheduler trace track. Both arguments may be nil.
func newServerObs(reg *obs.Registry, tracer *obs.Tracer) serverObs {
	o := serverObs{enabled: reg != nil || tracer != nil, tracer: tracer}
	if reg != nil {
		o.inflight = reg.Gauge("coopscan_load_inflight",
			"Loads issued to workers and not yet completed or aborted.")
		o.readSeconds = reg.Histogram("coopscan_load_read_seconds",
			"Wall time of coalesced load reads, verify, decompress and device-model time excluded.", obs.IOBuckets)
		o.verifySeconds = reg.Histogram("coopscan_load_verify_seconds",
			"Wall time of per-page checksum verification, accumulated per load read.", obs.IOBuckets)
		o.decompressSeconds = reg.Histogram("coopscan_load_decompress_seconds",
			"Wall time spent decoding compressed extents into page buffers, accumulated per load read.", obs.IOBuckets)
		o.modelSeconds = reg.Histogram("coopscan_load_device_model_seconds",
			"Wall time load reads slept in the ReadBandwidth device model, accumulated per load read.", obs.IOBuckets)
		o.pinSeconds = reg.Histogram("coopscan_load_pin_seconds",
			"Wall time of a load completion's pin-and-commit section.", obs.SchedBuckets)
		o.readBytes = reg.Counter("coopscan_load_read_bytes_total",
			"Bytes read from table files by load workers (stored/disk bytes: compressed widths on compressed tables).")
		o.decodedBytes = reg.Counter("coopscan_load_decoded_bytes_total",
			"Bytes staged into page buffers after decompression (equals read bytes on raw tables).")
		o.recycleGets = reg.Counter("coopscan_recycle_gets_total",
			"Page buffers drawn from the recycle pools.")
		o.recycleAllocs = reg.Counter("coopscan_recycle_allocs_total",
			"Recycle-pool draws that allocated a fresh buffer (recycle misses).")
		o.retries = reg.Counter("coopscan_fault_retries_total",
			"Load attempts repeated after a read, verify or pin failure.")
		o.checksumErrors = reg.Counter("coopscan_fault_checksum_errors_total",
			"Load attempts rejected by page checksum verification.")
		o.quarantined = reg.Counter("coopscan_fault_quarantined_parts_total",
			"Parts taken out of service after a load exhausted its retries.")
		o.failedScans = reg.Counter("coopscan_fault_failed_scans_total",
			"Scans failed because their range needed a quarantined part.")
		o.cancelledScans = reg.Counter("coopscan_fault_cancelled_scans_total",
			"Scans that returned early on context cancellation.")
		o.schedSeconds = reg.HistogramVec("coopscan_sched_decision_seconds",
			"Wall time of scheduler decisions that committed a load.", obs.SchedBuckets, "table", "policy")
		o.scanSeconds = reg.HistogramVec("coopscan_scan_seconds",
			"Wall latency of whole scans, registration to finish.", obs.ScanBuckets, "table", "policy")
		o.usefulBytes = reg.CounterVec("coopscan_scan_useful_bytes_total",
			"Delivered bytes the scans' projections actually needed.", "table")
		o.prunedChunks = reg.CounterVec("coopscan_chunks_pruned_total",
			"Chunks zonemap-pruned out of scan registrations before reaching the scheduler.", "table", "policy")
	}
	if tracer != nil {
		o.schedTrack = tracer.NewTrack("scheduler")
	}
	return o
}

// poolMetrics resolves the shared page pool's metric series (all nil when
// reg is).
func poolMetrics(reg *obs.Registry) bufferpool.Metrics {
	if reg == nil {
		return bufferpool.Metrics{}
	}
	return bufferpool.Metrics{
		Resident: reg.Gauge("coopscan_pool_resident_pages",
			"Pages resident in the shared pool."),
		Pinned: reg.Gauge("coopscan_pool_pinned_pages",
			"Resident pages with at least one pin."),
		Hits: reg.Counter("coopscan_pool_hits_total",
			"Page pins served from a resident frame."),
		Misses: reg.Counter("coopscan_pool_misses_total",
			"Page pins that had to load the page."),
		Evictions: reg.Counter("coopscan_pool_evictions_total",
			"Frames evicted to make room."),
		BytesLoaded: reg.Counter("coopscan_pool_loaded_bytes_total",
			"Bytes entering the pool on misses."),
	}
}

// managerMetrics resolves the budget arbiter's metric series (all nil when
// reg is).
func managerMetrics(reg *obs.Registry) core.ManagerMetrics {
	if reg == nil {
		return core.ManagerMetrics{}
	}
	return core.ManagerMetrics{
		Rebalances: reg.Counter("coopscan_arbiter_rebalances_total",
			"Budget arbiter runs."),
		GrantBytes: reg.GaugeVec("coopscan_arbiter_grant_bytes",
			"Current arbiter grant per table.", "table"),
	}
}

// acquireLane claims a free load-pipeline trace lane for the table,
// allocating a new track when all lanes are busy. Returns the zero Track
// (whose span methods no-op) when tracing is off. Called under the server
// mutex.
func (t *serverTable) acquireLane(tracer *obs.Tracer) obs.Track {
	if tracer == nil {
		return obs.Track{}
	}
	if n := len(t.o.lanes); n > 0 {
		l := t.o.lanes[n-1]
		t.o.lanes = t.o.lanes[:n-1]
		return l
	}
	t.o.laneCount++
	return tracer.NewTrack(fmt.Sprintf("load %s lane %d", t.name, t.o.laneCount))
}

// releaseLane returns a lane to the table's freelist. Called under the
// server mutex.
func (t *serverTable) releaseLane(l obs.Track) {
	if l == (obs.Track{}) {
		return
	}
	t.o.lanes = append(t.o.lanes, l)
}
