package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"time"

	"coopscan/internal/engine"
	"coopscan/internal/obs"
	"coopscan/internal/serve"
	"coopscan/internal/storage"
)

// maxLateness is the generator lateness beyond which an open-loop run is
// invalid rather than slow: past it, the arrival process measured the
// client, not the server.
const maxLateness = 100 * time.Millisecond

// arrival is one scheduled request: its due offset from the run's start
// and its tier.
type arrival struct {
	due   time.Duration
	batch bool
}

// schedule draws a Poisson arrival process at rate requests/s over dur
// from seed, conditioned on its expected count: n = rate×dur arrival times
// drawn uniformly and sorted (the order statistics of a Poisson process
// with n arrivals). Batch exports are spread evenly through it — every
// arrival whose running batch quota share×(i+1) crosses a whole
// number — and the rest are interactive Q6s. Fixing the counts and the
// spacing of the heavy exports keeps the offered work the same across
// seeds and within a run; only the arrival times vary.
func schedule(seed uint64, rate, share float64, dur time.Duration) []arrival {
	rng := rand.New(rand.NewPCG(seed, 0x0b5e55ed))
	n := int(math.Round(rate * dur.Seconds()))
	out := make([]arrival, n)
	for i := range out {
		out[i].due = time.Duration(rng.Int64N(int64(dur)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].due < out[j].due })
	for i := range out {
		out[i].batch = math.Floor(share*float64(i+1)) > math.Floor(share*float64(i))
	}
	return out
}

// reqRec is one serve session seen from the client: its tier and chunk
// range, its due time, when the header line, the first chunk receipt and
// the trailer arrived, and the protocol it ran over. A closed-loop session
// is due when it is sent.
type reqRec struct {
	batch                    bool
	start, end               int
	due, header, first, done time.Time
	proto                    int
	bytes                    int64
	err                      error
}

// serveResult is a run of serve sessions: every session, the run's start
// and measured span, the window from the start to the last trailer, and
// (open loop only) the generator's worst lateness.
type serveResult struct {
	reqs    []reqRec
	start   time.Time
	dur     time.Duration
	window  time.Duration
	lateMax time.Duration
}

// runOpen plays the seeded arrival schedule of whole-table sessions
// against the front-end over one h2c connection, checking every session's
// receipts and trailer against the oracle.
func runOpen(e *env, wl workload, o *oracle, seed uint64, dur time.Duration, sp *spans) serveResult {
	sched := schedule(seed, serveRate, batchShare, dur)
	client := newClient()
	defer client.CloseIdleConnections()
	lanes := sp.pool("serve.session")

	start := time.Now()
	res := serveResult{reqs: make([]reqRec, len(sched)), start: start, dur: dur}
	var wg sync.WaitGroup
	for i, a := range sched {
		due := start.Add(a.due)
		time.Sleep(time.Until(due))
		res.lateMax = max(res.lateMax, time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &res.reqs[i]
			*r = reqRec{batch: a.batch, start: 0, end: len(o.tuples), due: due}
			r.err = session(client, e, o, fmt.Sprintf("r%d", i), r, wl.prune)
			if lanes != nil {
				traceSession(lanes, sp.nextReq(), r)
			}
		}()
	}
	wg.Wait()
	res.window = lastDone(res.reqs, start)
	return res
}

// runServeClosed drives wl.streams closed-loop clients of
// engine.PlanWorkload queries through the front-end over one h2c
// connection: FAST queries are interactive agg=q6 sessions over the
// planned range, SLOW ones batch cols=q1 exports. Each client sends its
// next session when the previous trailer arrives and stops at the
// deadline.
func runServeClosed(e *env, wl workload, o *oracle, seed uint64, dur time.Duration, sp *spans) serveResult {
	plan := engine.PlanWorkload(len(o.tuples), wl.streams, planLen, seed)
	client := newClient()
	defer client.CloseIdleConnections()
	lanes := sp.pool("serve.session")

	start := time.Now()
	deadline := start.Add(dur)
	recs := make([][]reqRec, wl.streams)
	var wg sync.WaitGroup
	for s := range plan {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				q := plan[s][i%len(plan[s])]
				r := reqRec{batch: q.Slow, start: q.Ranges.Min(), end: q.Ranges.Max() + 1, due: time.Now()}
				r.err = session(client, e, o, fmt.Sprintf("%s/%d", q.Name, i), &r, wl.prune)
				if lanes != nil {
					traceSession(lanes, sp.nextReq(), &r)
				}
				recs[s] = append(recs[s], r)
			}
		}()
	}
	wg.Wait()
	res := serveResult{start: start, dur: dur}
	for _, rs := range recs {
		res.reqs = append(res.reqs, rs...)
	}
	res.window = lastDone(res.reqs, start)
	return res
}

// lastDone is the span from start to the last trailer.
func lastDone(reqs []reqRec, start time.Time) time.Duration {
	var w time.Duration
	for _, r := range reqs {
		w = max(w, r.done.Sub(start))
	}
	return w
}

// session runs one /scan request with serve.RunScan and verifies it: the
// receipts must cover exactly the range (minus the chunks zonemap pruning
// drops, when the front-end prunes) once each, with the reference tuple
// counts and CRCs, and an interactive trailer must carry the range's
// reference Q6 aggregate.
func session(client *http.Client, e *env, o *oracle, name string, r *reqRec, prune bool) error {
	p := serve.ScanParams{Table: e.table, Name: name, Start: r.start, End: r.end}
	want := storage.NewRangeSet(storage.Range{Start: r.start, End: r.end})
	crcs, cols := o.crcQ6, engine.Q6Cols()
	if r.batch {
		p.Tier, p.Cols = serve.TierBatch, "q1"
		crcs, cols = o.crcQ1, engine.Q1Cols()
	} else {
		p.Tier, p.Cols, p.AggQ6 = serve.TierInteractive, "q6", true
		if prune {
			want = want.Intersect(o.q6Kept)
		}
	}
	ctx := context.WithValue(context.Background(), recKey{}, r)
	res, err := serve.RunScan(ctx, client, e.url, p, func(serve.Chunk) {
		if r.first.IsZero() {
			r.first = time.Now()
		}
	})
	r.done = time.Now()
	if r.first.IsZero() {
		r.first = r.done
	}
	if err != nil {
		return fmt.Errorf("session %s: %w", name, err)
	}
	if r.proto != 2 {
		return fmt.Errorf("session %s: served over HTTP/%d, want HTTP/2", name, r.proto)
	}
	seen := make([]int, len(o.tuples))
	for _, c := range res.Chunks {
		if c.Chunk < 0 || c.Chunk >= len(seen) {
			return fmt.Errorf("session %s: receipt for chunk %d of %d", name, c.Chunk, len(seen))
		}
		if c.Tuples != o.tuples[c.Chunk] || c.CRC != crcs[c.Chunk] {
			return fmt.Errorf("session %s: chunk %d receipt (tuples %d, crc %#x) differs from the oracle (%d, %#x)",
				name, c.Chunk, c.Tuples, c.CRC, o.tuples[c.Chunk], crcs[c.Chunk])
		}
		seen[c.Chunk]++
		r.bytes += c.Tuples * engine.ProjectionBytes(cols)
	}
	if err := o.checkScan(want, seen, nil); err != nil {
		return fmt.Errorf("session %s: %w", name, err)
	}
	if ref := o.q6Range(r.start, r.end); !r.batch && (res.Trailer.Q6Revenue != ref.Revenue || res.Trailer.Q6Rows != ref.Rows) {
		return fmt.Errorf("session %s: trailer Q6 (%d, %d) differs from the oracle (%d, %d)",
			name, res.Trailer.Q6Revenue, res.Trailer.Q6Rows, ref.Revenue, ref.Rows)
	}
	return nil
}

// traceSession writes one session's phase spans to a free lane.
func traceSession(lanes *lanePool, req int64, r *reqRec) {
	tk := lanes.get()
	defer lanes.put(tk)
	args := obs.Args{"req": req, "batch": r.batch}
	tk.SpanAt("serve.session", r.due, r.done, args)
	if r.header.IsZero() {
		return
	}
	tk.SpanAt("serve.admit", r.due, r.header, args)
	tk.SpanAt("serve.first_chunk", r.header, r.first, args)
	tk.SpanAt("serve.stream", r.first, r.done, args)
}

// newClient returns an HTTP client that speaks only h2c (HTTP/2 with
// prior knowledge) over at most one connection, so every session
// multiplexes over it; without the cap, requests that arrive while the
// first dial is in flight dial connections of their own.
func newClient() *http.Client {
	var protos http.Protocols
	protos.SetUnencryptedHTTP2(true)
	return &http.Client{Transport: timingTransport{&http.Transport{Protocols: &protos, MaxConnsPerHost: 1}}}
}

// recKey carries a session's reqRec through the request context to
// timingTransport.
type recKey struct{}

// timingTransport records each response's protocol and the arrival of its
// first body bytes (the NDJSON header line) into the request's reqRec.
type timingTransport struct{ base *http.Transport }

func (t timingTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

func (t timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if r, ok := req.Context().Value(recKey{}).(*reqRec); ok {
		r.proto = resp.ProtoMajor
		resp.Body = &firstByteBody{ReadCloser: resp.Body, at: &r.header}
	}
	return resp, nil
}

// firstByteBody stamps *at when the first body bytes are read.
type firstByteBody struct {
	io.ReadCloser
	at *time.Time
}

func (b *firstByteBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if n > 0 && b.at.IsZero() {
		*b.at = time.Now()
	}
	return n, err
}
