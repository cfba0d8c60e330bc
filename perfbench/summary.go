package main

import (
	"fmt"
	"time"

	"coopscan/internal/engine"
	"coopscan/internal/serve"
)

// summary is one measured run of a workload and the metrics derived from
// it.
type summary struct {
	wl       workload
	closed   closedResult
	serve    serveResult
	sessions serve.SessionsStatus
	stats    engine.ServerStats
	rssMiB   float64
	setupS   float64

	attempted, failed int64
	errs              []error
	delivered         int64 // projected bytes handed to kernels (or receipts)
	window            time.Duration
	samples           [3]int // scans: all, interactive, batch
	metrics           map[string]metric
}

// layerUnits lists every per-layer metric with its unit. Metrics of a layer
// a workload does not reach from outside read 0 (see README.md).
var layerUnits = []struct{ name, unit string }{
	{"engine.first_chunk_ms_p50", "ms"},
	{"engine.first_chunk_s", "s"},
	{"engine.deliver_wait_s", "s"},
	{"engine.finish_s", "s"},
	{"engine.scan_wall_s", "s"},
	{"exec.kernel_s", "s"},
	{"exec.ns_per_tuple", "ns"},
	{"core.loads", "count"},
	{"core.io_requests", "count"},
	{"core.evictions", "count"},
	{"core.buffer_hits", "count"},
	{"core.useful_frac", "ratio"},
	{"core.sched_ns_per_decision", "ns"},
	{"bufferpool.hit_ratio", "ratio"},
	{"bufferpool.evictions", "count"},
	{"tablefile.pread_calls", "count"},
	{"tablefile.pread_mib", "MiB"},
	{"tablefile.pread_s", "s"},
	{"tablefile.model_s", "s"},
	{"tablefile.decoded_mib", "MiB"},
	{"compress.pfor.ns_per_decoded_mib", "ns/MiB"},
	{"compress.pfor-delta.ns_per_decoded_mib", "ns/MiB"},
	{"compress.pdict.ns_per_decoded_mib", "ns/MiB"},
	{"compress.identity.ns_per_decoded_mib", "ns/MiB"},
	{"serve.admit_ms_p50", "ms"},
	{"serve.first_chunk_ms_p50", "ms"},
	{"serve.stream_ms_p50", "ms"},
	{"serve.queued", "count"},
	{"serve.shed", "count"},
	{"serve.gen_late_ms_max", "ms"},
	{"trace_overhead_frac", "ratio"},
}

// collect derives the end-to-end metrics and the failure count.
//
// Closed-loop percentiles are over every scan of the run. Open-loop
// percentiles are the median over openWindows equal spans of due time of
// each span's percentile.
func (s *summary) collect() {
	nw := 1
	if s.wl.serve && s.wl.streams == 0 {
		nw = openWindows
	}
	scan, inter, batch := make([][]float64, nw), make([][]float64, nw), make([][]float64, nw)
	add := func(w int, err error, bytes int64, scanMS, latMS float64, isBatch bool) {
		s.attempted++
		if err != nil {
			s.errs = append(s.errs, err)
		}
		s.delivered += bytes
		scan[w] = append(scan[w], scanMS)
		if isBatch {
			batch[w] = append(batch[w], latMS)
			s.samples[2]++
		} else {
			inter[w] = append(inter[w], latMS)
			s.samples[1]++
		}
	}
	if !s.wl.serve {
		s.window = s.closed.window
		for _, r := range s.closed.scans {
			add(0, r.err, r.bytes, ms(r.wall), ms(r.wall), r.slow)
		}
	} else {
		s.window = s.serve.window
		for _, r := range s.serve.reqs {
			w := min(int(r.due.Sub(s.serve.start)*time.Duration(nw)/s.serve.dur), nw-1)
			add(w, r.err, r.bytes, ms(r.done.Sub(r.header)), ms(r.done.Sub(r.due)), r.batch)
		}
	}
	s.failed = int64(len(s.errs))
	s.samples[0] = int(s.attempted)
	s.metrics = map[string]metric{
		"delivered_mib_s":    {ratio(mib(s.delivered), s.window.Seconds()), "MiB/s"},
		"scan_p50_ms":        {windowed(scan, 0.5), "ms"},
		"scan_p90_ms":        {windowed(scan, 0.9), "ms"},
		"interactive_p50_ms": {windowed(inter, 0.5), "ms"},
		"interactive_p99_ms": {windowed(inter, 0.99), "ms"},
		"batch_p50_ms":       {windowed(batch, 0.5), "ms"},
		"max_rss_mib":        {s.rssMiB, "MiB"},
	}
}

// openWindows is how many equal spans of due time an open-loop run's
// latency percentiles are taken over. Poisson arrivals come in bursts, and
// one burst can double a whole run's p99; the median over the spans'
// percentiles follows the typical span instead. Three spans of a 20 s run
// at 200 requests/s hold 1,200 interactive sessions each, so each span's
// p99 has 12 samples beyond it.
const openWindows = 3

// windowed is the median over windows of each window's q-quantile.
func windowed(ws [][]float64, q float64) float64 {
	per := make([]float64, len(ws))
	for i, xs := range ws {
		per[i] = quantile(xs, q)
	}
	return median(per)
}

// layers replaces the metrics with the per-layer ones of this traced run;
// base is the untraced run of the same workload and seed.
func (s *summary) layers(e *env, base *summary, passes int) error {
	m := map[string]metric{}
	for _, l := range layerUnits {
		m[l.name] = metric{0, l.unit}
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }

	if !s.wl.serve {
		var first []float64
		var firstSum, wait, finish, kernel, wall time.Duration
		var tuples int64
		for _, r := range s.closed.scans {
			first = append(first, ms(r.first))
			firstSum += r.first
			wait += r.wait
			finish += r.finish
			kernel += r.kernel
			wall += r.wall
			tuples += r.tuples
			if r.first+r.wait+r.kernel+r.finish != r.wall {
				return fmt.Errorf("scan phases %v+%v+%v+%v do not sum to its wall time %v", r.first, r.wait, r.kernel, r.finish, r.wall)
			}
		}
		set("engine.first_chunk_ms_p50", quantile(first, 0.5))
		set("engine.first_chunk_s", firstSum.Seconds())
		set("engine.deliver_wait_s", wait.Seconds())
		set("engine.finish_s", finish.Seconds())
		set("engine.scan_wall_s", wall.Seconds())
		set("exec.kernel_s", kernel.Seconds())
		set("exec.ns_per_tuple", ratio(float64(kernel.Nanoseconds()), float64(tuples)))
		set("trace_overhead_frac", 1-ratio(s.metrics["delivered_mib_s"].Value, base.metrics["delivered_mib_s"].Value))
	} else {
		var admit, first, stream []float64
		for _, r := range s.serve.reqs {
			if r.err != nil {
				continue
			}
			admit = append(admit, ms(r.header.Sub(r.due)))
			first = append(first, ms(r.first.Sub(r.header)))
			stream = append(stream, ms(r.done.Sub(r.first)))
		}
		set("serve.admit_ms_p50", quantile(admit, 0.5))
		set("serve.first_chunk_ms_p50", quantile(first, 0.5))
		set("serve.stream_ms_p50", quantile(stream, 0.5))
		var queued, shed int64
		for _, t := range s.sessions.Tiers {
			queued += t.Queued
			shed += t.Shed
		}
		set("serve.queued", float64(queued))
		set("serve.shed", float64(shed))
		set("serve.gen_late_ms_max", ms(s.serve.lateMax))
		set("trace_overhead_frac", 1-ratio(s.metrics["delivered_mib_s"].Value, base.metrics["delivered_mib_s"].Value))
		if s.wl.streams == 0 {
			// Open-loop throughput is fixed by the arrival schedule, so
			// the tracing cost shows in latency instead.
			set("trace_overhead_frac", ratio(s.metrics["interactive_p50_ms"].Value, base.metrics["interactive_p50_ms"].Value)-1)
		}
	}

	t := s.stats.Tables[0]
	set("core.loads", float64(t.ABM.Loads))
	set("core.io_requests", float64(t.ABM.IORequests))
	set("core.evictions", float64(t.ABM.Evictions))
	set("core.buffer_hits", float64(t.ABM.BufferHits))
	set("core.useful_frac", ratio(float64(s.delivered), float64(t.ABM.BytesRead)))
	set("core.sched_ns_per_decision", ratio(float64(t.SchedNanos), float64(t.SchedCalls)))
	p := s.stats.Pool
	set("bufferpool.hit_ratio", ratio(float64(p.Hits), float64(p.Hits+p.Misses)))
	set("bufferpool.evictions", float64(p.Evictions))

	set("tablefile.pread_calls", float64(e.pread.calls.Load()))
	set("tablefile.pread_mib", mib(e.pread.bytes.Load()))
	set("tablefile.pread_s", time.Duration(e.pread.nanos.Load()).Seconds())
	if s.wl.readBW > 0 {
		set("tablefile.model_s", float64(e.pread.bytes.Load())/float64(s.wl.readBW))
	}
	set("tablefile.decoded_mib", mib(t.ABM.BytesRead))

	cal, err := calibrate(e.tf, passes)
	if err != nil {
		return err
	}
	for _, label := range schemeLabels {
		set("compress."+label+".ns_per_decoded_mib", cal[label])
	}

	s.attempted += base.attempted
	s.failed += base.failed
	s.metrics = m
	return nil
}

// endToEnd is the untraced run's result line.
func (s *summary) endToEnd() result {
	s.metrics["setup_s"] = metric{s.setupS, "s"}
	return s.result()
}

func (s *summary) result() result {
	return result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: s.metrics}
}

// counts states the run's sample counts for the human-readable report.
func (s *summary) counts() string {
	return fmt.Sprintf("%d scans (%d interactive, %d batch) in %.2fs, %d failed (failed_frac %.4f)",
		s.samples[0], s.samples[1], s.samples[2], s.window.Seconds(), s.failed, ratio(float64(s.failed), float64(s.attempted)))
}
