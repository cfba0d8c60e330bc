package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/engine"
	"coopscan/internal/serve"
)

// workload is one named traffic mix. Every workload runs the same lineitem
// rows; what differs is the storage format, the device model, the buffer
// size relative to the scans' projections, and how load arrives.
type workload struct {
	name string
	// compressed selects the v4 DSM file (PFOR, PFOR-DELTA and PDICT
	// columns) over the raw NSM one.
	compressed bool
	rows, tpc  int64
	// bufferChunks sizes the buffer budget in whole (all-column) chunks.
	bufferChunks int
	// readBW is the ReadBandwidth device model per in-flight load (0 =
	// page-cache speed).
	readBW int64
	// streams > 0 runs that many closed-loop PlanWorkload streams;
	// streams == 0 runs the open-loop serve mix.
	streams int
	// serve puts the HTTP front-end in front of the engine: the streams
	// (or the open-loop arrivals) are /scan sessions over one h2c
	// connection instead of direct ScanWith calls. prune turns on the
	// front-end's zonemap pruning of agg=q6 sessions.
	serve, prune bool
}

const (
	benchRows = 786_432
	benchTPC  = 16_384 // 48 chunks of 1.75 MiB: an 84 MiB raw table
	// loadDepth is every workload's in-flight load depth.
	loadDepth = 4
	// serveRate is the serve mix's arrival rate (requests/s), about half
	// of what the front-end sustains on a 2-core machine; batchShare of
	// the arrivals are batch exports.
	serveRate  = 200
	batchShare = 0.1
)

// workloads are the benchmark's traffic mixes; the README says why each
// exists and which layer dominates it.
var workloads = []workload{
	{name: "paper-io", rows: benchRows, tpc: benchTPC, bufferChunks: 8, readBW: 200 << 20, streams: 16},
	{name: "decode-cpu", compressed: true, rows: benchRows, tpc: benchTPC, bufferChunks: 8, streams: 8},
	{name: "serve-mixed", compressed: true, rows: benchRows, tpc: benchTPC, bufferChunks: 16, serve: true, prune: true},
	{name: "serve-io", compressed: true, rows: benchRows, tpc: benchTPC, bufferChunks: 8, readBW: 8 << 20, streams: 16, serve: true},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is one set-up instance of a workload: the table file, the engine
// server and, for the serve mix, the HTTP front-end on a loopback port.
type env struct {
	path  string
	tf    *engine.TableFile
	srv   *engine.Server
	fe    *serve.Frontend
	hs    *http.Server
	url   string
	table string
	// conns counts connections the HTTP server accepted.
	conns atomic.Int64
	// pread is the read-path timing wrapper of a traced run (nil when
	// untraced).
	pread *preadStats
}

// setup creates the workload's table file at path from seed and starts the
// server (and front-end) over it. A traced set-up also wraps the file's
// reader with the pread timer and meters scheduling decisions.
func setup(wl workload, seed uint64, path string, sp *spans) (*env, error) {
	e := &env{path: path}
	var err error
	if wl.compressed {
		e.tf, err = engine.CreateCompressed(path, wl.rows, wl.tpc, seed)
	} else {
		e.tf, err = engine.Create(path, wl.rows, wl.tpc, seed)
	}
	if err != nil {
		return nil, fmt.Errorf("create table: %w", err)
	}
	if sp != nil {
		e.pread = &preadStats{lanes: sp.pool("tablefile.pread")}
		e.tf.WrapReader(func(r io.ReaderAt) io.ReaderAt { return timedReader{r: r, s: e.pread} })
	}
	e.srv, err = engine.NewServer(engine.ServerConfig{
		Policy:            core.Relevance,
		BufferBytes:       int64(wl.bufferChunks) * e.tf.ChunkBytes(),
		InFlightDepth:     loadDepth,
		ReadBandwidth:     wl.readBW,
		MeasureScheduling: sp != nil,
	}, e.tf)
	if err != nil {
		e.tf.Close()
		os.Remove(path)
		return nil, fmt.Errorf("start server: %w", err)
	}
	e.table = e.srv.TableName(0)
	if !wl.serve {
		return e, nil
	}
	if e.fe, err = serve.New(serve.Config{Engine: e.srv, PruneQ6: wl.prune}); err != nil {
		e.close()
		return nil, fmt.Errorf("start front-end: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	e.url = "http://" + ln.Addr().String()
	e.hs = e.fe.Server()
	e.hs.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			e.conns.Add(1)
		}
	}
	go e.hs.Serve(ln)
	return e, nil
}

// close stops the front-end (which closes the engine) or the engine, then
// removes the table file.
func (e *env) close() error {
	var err error
	if e.fe != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if e.hs != nil {
			err = e.hs.Shutdown(ctx)
		}
		err = errors.Join(err, e.fe.Shutdown(ctx))
	} else {
		err = e.srv.Close()
	}
	return errors.Join(err, e.tf.Close(), os.Remove(e.path))
}

// preadStats accumulates the read path's real positioned reads: calls,
// stored bytes and syscall wall time, kept apart from the device model's
// sleep (which the engine takes after ReadAt returns).
type preadStats struct {
	calls, bytes, nanos atomic.Int64
	lanes               *lanePool
}

type timedReader struct {
	r io.ReaderAt
	s *preadStats
}

func (t timedReader) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := t.r.ReadAt(p, off)
	end := time.Now()
	t.s.calls.Add(1)
	t.s.bytes.Add(int64(n))
	t.s.nanos.Add(int64(end.Sub(start)))
	t.s.lanes.span("tablefile.pread", start, end, n)
	return n, err
}

func (t *preadStats) reset() {
	t.calls.Store(0)
	t.bytes.Store(0)
	t.nanos.Store(0)
}
