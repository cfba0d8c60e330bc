package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"coopscan/internal/engine"
	"coopscan/internal/exec"
	"coopscan/internal/obs"
)

// planLen is the number of planned queries per stream: more than a stream
// completes in a run, so every scan of a run is a fresh draw and the
// seed's query mix averages out instead of repeating (a stream that does
// finish its plan starts it again).
const planLen = 4096

// scanRec is one ScanWith call seen from outside. Its wall time splits
// exactly into four phases: first (call → first onChunk: registration plus
// the first load), kernel (time inside the callbacks), wait (gaps between
// callbacks: the stream waiting inside the engine) and finish (last
// callback → return).
type scanRec struct {
	slow                              bool
	start                             time.Time
	wall, first, kernel, wait, finish time.Duration
	tuples, bytes                     int64
	err                               error
}

// delivery is one onChunk call's entry and exit, kept for the trace.
type delivery struct {
	chunk   int
	in, out time.Time
}

// closedResult is a closed-loop run: every scan, and the wall window from
// the first call to the last return.
type closedResult struct {
	scans  []scanRec
	window time.Duration
}

// runClosed drives wl.streams closed-loop streams of engine.PlanWorkload
// queries against e for dur: each stream issues its next query as soon as
// the previous one returns, and stops issuing at the deadline. Every scan
// is checked against the oracle as it completes.
func runClosed(e *env, wl workload, o *oracle, seed uint64, dur time.Duration, sp *spans) closedResult {
	plan := engine.PlanWorkload(e.tf.NumChunks(), wl.streams, planLen, seed)
	recs := make([][]scanRec, wl.streams)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for s := range plan {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := sp.track(fmt.Sprintf("stream %d", s))
			var buf []delivery
			for i := 0; time.Now().Before(deadline); i++ {
				var rec scanRec
				rec, buf = runScan(e.srv, plan[s][i%len(plan[s])], i, o, buf)
				if sp != nil {
					traceScan(tk, sp.nextReq(), rec, buf)
				}
				recs[s] = append(recs[s], rec)
			}
		}()
	}
	wg.Wait()
	res := closedResult{window: time.Since(start)}
	for _, r := range recs {
		res.scans = append(res.scans, r...)
	}
	return res
}

// runScan executes one planned query through Server.ScanWith with the
// engine's own Q6/Q1 kernels as callbacks, times its phases, and checks
// every delivery against the oracle. buf is reused for the per-chunk
// delivery times.
func runScan(srv *engine.Server, q engine.PlannedQuery, iter int, o *oracle, buf []delivery) (scanRec, []delivery) {
	rec := scanRec{slow: q.Slow}
	seen := make([]int, len(o.tuples))
	var bad []int
	buf = buf[:0]
	pred := exec.DefaultQ6()
	width := engine.ProjectionBytes(q.Cols)
	start := time.Now()
	rec.start = start
	last := start
	onChunk := func(c int, d engine.ChunkData) {
		in := time.Now()
		if len(buf) == 0 {
			rec.first = in.Sub(start)
		} else {
			rec.wait += in.Sub(last)
		}
		var ok bool
		if q.Slow {
			ok = sameQ1(engine.Q1Chunk(d, q1DateMax, q1Arith), o.q1[c])
		} else {
			ok = engine.Q6Chunk(d, pred) == o.q6[c]
		}
		if !ok {
			bad = append(bad, c)
		}
		seen[c]++
		rec.tuples += d.Tuples()
		last = time.Now()
		rec.kernel += last.Sub(in)
		buf = append(buf, delivery{chunk: c, in: in, out: last})
	}
	_, err := srv.ScanWith(context.Background(), engine.ScanRequest{
		Name: fmt.Sprintf("%s/%d", q.Name, iter), Ranges: q.Ranges, Cols: q.Cols,
	}, onChunk)
	end := time.Now()
	rec.wall = end.Sub(start)
	if len(buf) == 0 {
		rec.first = rec.wall
	} else {
		rec.finish = end.Sub(last)
	}
	rec.bytes = rec.tuples * width
	if err == nil {
		err = o.checkScan(q.Ranges, seen, bad)
	}
	if err != nil {
		rec.err = fmt.Errorf("scan %s/%d: %w", q.Name, iter, err)
	}
	return rec, buf
}

// traceScan writes one scan's phase spans to its stream's row.
func traceScan(tk obs.Track, req int64, rec scanRec, ds []delivery) {
	start, end := rec.start, rec.start.Add(rec.wall)
	tk.SpanAt("engine.scan", start, end, obs.Args{"req": req, "chunks": len(ds), "slow": rec.slow})
	if len(ds) == 0 {
		return
	}
	tk.SpanAt("engine.first_chunk", start, ds[0].in, obs.Args{"req": req})
	for i, d := range ds {
		if i > 0 {
			tk.SpanAt("engine.wait", ds[i-1].out, d.in, obs.Args{"req": req})
		}
		tk.SpanAt("exec.kernel", d.in, d.out, obs.Args{"req": req, "chunk": d.chunk})
	}
	tk.SpanAt("engine.finish", ds[len(ds)-1].out, end, obs.Args{"req": req})
}
