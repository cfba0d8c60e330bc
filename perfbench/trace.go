package main

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"coopscan/internal/engine"
	"coopscan/internal/obs"
)

// spans records the traced run's benchmark-side spans — one around each
// call into a layer's public entry point — into an in-memory obs.Tracer,
// written out as one Perfetto-loadable file when the run ends. A nil
// *spans is tracing off.
type spans struct {
	buf  bytes.Buffer
	tr   *obs.Tracer
	reqs atomic.Int64
}

func newSpans() *spans {
	s := &spans{}
	s.tr = obs.NewTracer(&s.buf)
	return s
}

// nextReq returns a fresh request id; every span of one scan or session
// carries it.
func (s *spans) nextReq() int64 {
	if s == nil {
		return 0
	}
	return s.reqs.Add(1)
}

// track returns a new named trace row.
func (s *spans) track(name string) obs.Track {
	if s == nil {
		return obs.Track{}
	}
	return s.tr.NewTrack(name)
}

// pool returns a lane pool whose rows are named after prefix.
func (s *spans) pool(prefix string) *lanePool {
	if s == nil {
		return nil
	}
	return &lanePool{s: s, prefix: prefix}
}

// writeFile terminates the trace and writes it to path.
func (s *spans) writeFile(path string) error {
	if err := s.tr.Close(); err != nil {
		return err
	}
	return os.WriteFile(path, s.buf.Bytes(), 0o644)
}

// lanePool hands out trace rows to concurrent, unrelated operations (loads'
// preads, serve sessions) so overlapping spans never share a row. A nil
// pool records nothing.
type lanePool struct {
	s      *spans
	prefix string
	mu     sync.Mutex
	free   []obs.Track
	n      int
}

func (p *lanePool) get() obs.Track {
	p.mu.Lock()
	defer p.mu.Unlock()
	if k := len(p.free); k > 0 {
		t := p.free[k-1]
		p.free = p.free[:k-1]
		return t
	}
	p.n++
	return p.s.track(fmt.Sprintf("%s %d", p.prefix, p.n))
}

func (p *lanePool) put(t obs.Track) {
	p.mu.Lock()
	p.free = append(p.free, t)
	p.mu.Unlock()
}

// span records one self-contained span of bytes on a free lane.
func (p *lanePool) span(name string, start, end time.Time, bytes int) {
	if p == nil {
		return
	}
	t := p.get()
	t.SpanAt(name, start, end, obs.Args{"bytes": bytes})
	p.put(t)
}

// calibrate times a plain ReadPageRange pass over every (chunk, column)
// page of tf, grouped by the column's storage scheme, and returns each
// scheme's median wall nanoseconds per decoded MiB over the passes. The
// figure is pread (page cache) + CRC + decode; for identity columns the
// decode is a copy. The engine's device model is not on this path.
func calibrate(tf *engine.TableFile, passes int) (map[string]float64, error) {
	per := map[string][]float64{}
	for pass := 0; pass < passes; pass++ {
		nanos := map[string]int64{}
		decoded := map[string]int64{}
		for col := 0; col < engine.NumCols; col++ {
			label := "identity"
			if s, ok := tf.ColScheme(col); ok {
				label = s.String()
			}
			buf := make([]byte, tf.ColStripeBytes(col))
			for c := 0; c < tf.NumChunks(); c++ {
				p := columnPage(tf, c, col)
				start := time.Now()
				if err := tf.ReadPageRange(p, 1, buf); err != nil {
					return nil, fmt.Errorf("calibrate: chunk %d col %d: %w", c, col, err)
				}
				nanos[label] += int64(time.Since(start))
				decoded[label] += int64(len(buf))
			}
		}
		for label, ns := range nanos {
			per[label] = append(per[label], float64(ns)/mib(decoded[label]))
		}
	}
	out := map[string]float64{}
	for label, xs := range per {
		out[label] = median(xs)
	}
	return out, nil
}

// columnPage is the page index of one (chunk, column) stripe: the chunk's
// first page plus the column on NSM files, the column's own part on DSM.
func columnPage(tf *engine.TableFile, chunk, col int) int64 {
	if tf.Format() == engine.NSM {
		first, _ := tf.PartPages(chunk, -1)
		return first + int64(col)
	}
	first, _ := tf.PartPages(chunk, col)
	return first
}

// schemeLabels are the storage schemes the calibration reports, in order.
var schemeLabels = []string{"pfor", "pfor-delta", "pdict", "identity"}
