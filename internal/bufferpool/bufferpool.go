// Package bufferpool implements a classic page-granularity buffer manager
// with LRU replacement and pin counts — the
// "standard buffer manager" of the paper's §7.1, on top of which the Active
// Buffer Manager can be layered in an existing RDBMS: ABM requests a range
// of pages, the pool reads and pins them (at arbitrary frame positions),
// and ABM frees them when it decides to evict the chunk.
//
// The chunk-granularity cache inside internal/core supersedes this for the
// simulation experiments; this package exists as the integration substrate
// (and documents the PostgreSQL-prototype path the paper describes), with
// the ChunkView type providing exactly the pin-a-range/release-a-range
// interface §7.1 sketches.
package bufferpool

import (
	"errors"
	"fmt"

	"coopscan/internal/obs"
)

// PageID identifies a page on the underlying store.
type PageID int64

// ErrNoFrame is returned when every frame is pinned.
var ErrNoFrame = errors.New("bufferpool: all frames pinned")

// Reader loads the contents of a page from the underlying store.
type Reader func(id PageID) ([]byte, error)

// Stats counts pool activity. BytesLoaded sums the sizes of the pages read
// on misses — with per-column pages of different sizes (DSM tables store a
// wide filler column next to narrow ones), it is the byte-accurate "real
// I/O" counter that Misses × page-size used to approximate.
type Stats struct {
	Hits        int
	Misses      int
	Evictions   int
	BytesLoaded int64
}

type frame struct {
	id       PageID
	data     []byte
	pins     int
	lastUsed int64 // logical tick of last access
	loadedAt int64
}

// Pool is a fixed-capacity page buffer.
type Pool struct {
	capacity int
	read     Reader

	frames map[PageID]*frame
	order  []*frame // stable order for deterministic victim scans
	tick   int64
	stats  Stats

	// onEvict, when set, observes every frame eviction with the page's id
	// and its data buffer. The buffer is exclusively the observer's after
	// the call (the frame is gone), so callers use it to recycle page
	// buffers instead of re-allocating per read.
	onEvict func(id PageID, data []byte)

	// pinned counts resident pages with pins > 0, maintained incrementally
	// on the 0↔1 pin transitions so the metrics gauge never needs a scan.
	pinned int
	m      Metrics
}

// Metrics observes the pool live. The handles are obs metric series
// (nil-safe), so the zero value disables observation; the engine resolves
// them from its registry and installs them with SetMetrics. Gauges track
// page counts (occupancy, pinned); counters mirror Stats cumulatively.
type Metrics struct {
	Resident    *obs.Gauge
	Pinned      *obs.Gauge
	Hits        *obs.Counter
	Misses      *obs.Counter
	Evictions   *obs.Counter
	BytesLoaded *obs.Counter
}

// SetMetrics installs the pool's metric handles (see Metrics) and primes the
// gauges with the current state. The zero value turns observation back off.
func (p *Pool) SetMetrics(m Metrics) {
	p.m = m
	m.Resident.Set(int64(len(p.frames)))
	m.Pinned.Set(int64(p.pinned))
}

// SetEvictObserver installs the frame-eviction observer (see Pool.onEvict).
// Pass nil to remove it.
func (p *Pool) SetEvictObserver(fn func(id PageID, data []byte)) { p.onEvict = fn }

// New creates a pool holding up to capacity pages, loading misses with read.
func New(capacity int, read Reader) *Pool {
	if capacity < 1 {
		panic("bufferpool: capacity < 1")
	}
	if read == nil {
		panic("bufferpool: nil reader")
	}
	return &Pool{
		capacity: capacity,
		read:     read,
		frames:   make(map[PageID]*frame, capacity),
	}
}

// Pin returns the page's contents with its pin count incremented, loading
// it (and evicting a victim if the pool is full) on a miss. Callers must
// Unpin exactly once per Pin.
func (p *Pool) Pin(id PageID) ([]byte, error) {
	p.tick++
	if f, ok := p.frames[id]; ok {
		p.stats.Hits++
		p.m.Hits.Inc()
		f.pins++
		if f.pins == 1 {
			p.pinned++
			p.m.Pinned.Add(1)
		}
		f.lastUsed = p.tick
		return f.data, nil
	}
	p.stats.Misses++
	p.m.Misses.Inc()
	if len(p.frames) >= p.capacity {
		if err := p.evictOne(); err != nil {
			return nil, err
		}
	}
	data, err := p.read(id)
	if err != nil {
		return nil, fmt.Errorf("bufferpool: load page %d: %w", id, err)
	}
	p.stats.BytesLoaded += int64(len(data))
	p.m.BytesLoaded.Add(int64(len(data)))
	f := &frame{id: id, data: data, pins: 1, lastUsed: p.tick, loadedAt: p.tick}
	p.frames[id] = f
	p.order = append(p.order, f)
	p.pinned++
	p.m.Pinned.Add(1)
	p.m.Resident.Set(int64(len(p.frames)))
	return f.data, nil
}

// Unpin releases one pin of the page.
func (p *Pool) Unpin(id PageID) {
	f, ok := p.frames[id]
	if !ok || f.pins <= 0 {
		panic(fmt.Sprintf("bufferpool: Unpin(%d) without pin", id))
	}
	f.pins--
	if f.pins == 0 {
		p.pinned--
		p.m.Pinned.Add(-1)
	}
}

// Contains reports whether the page is resident (pinned or not).
func (p *Pool) Contains(id PageID) bool {
	_, ok := p.frames[id]
	return ok
}

// Capacity returns the most pages the pool holds at once.
func (p *Pool) Capacity() int { return p.capacity }

// Resident returns the number of resident pages.
func (p *Pool) Resident() int { return len(p.frames) }

// Pinned returns the number of resident pages with at least one pin.
func (p *Pool) Pinned() int { return p.pinned }

// Stats returns a copy of the counters.
func (p *Pool) Stats() Stats { return p.stats }

// evictOne removes the least recently used unpinned page.
func (p *Pool) evictOne() error {
	var victim *frame
	for _, f := range p.order {
		if f.pins > 0 {
			continue
		}
		if victim == nil || f.lastUsed < victim.lastUsed {
			victim = f
		}
	}
	if victim == nil {
		return ErrNoFrame
	}
	p.remove(victim)
	return nil
}

func (p *Pool) remove(f *frame) {
	delete(p.frames, f.id)
	for i, of := range p.order {
		if of == f {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
	p.stats.Evictions++
	p.m.Evictions.Inc()
	p.m.Resident.Set(int64(len(p.frames)))
	if p.onEvict != nil {
		p.onEvict(f.id, f.data)
		f.data = nil
	}
}

// ChunkView is the §7.1 integration surface: ABM "requests a range of data
// from the underlying manager", receives the pages pinned (wherever they
// sit in the pool), hands them to interested CScans, and releases them when
// it evicts the chunk.
type ChunkView struct {
	pool  *Pool
	Pages []PageID
	Data  [][]byte
}

// PinRange pins every page in [first, last) and returns the view; on any
// failure it releases what it pinned and returns the error.
func (p *Pool) PinRange(first, last PageID) (*ChunkView, error) {
	if last < first {
		panic(fmt.Sprintf("bufferpool: PinRange(%d, %d)", first, last))
	}
	v := &ChunkView{pool: p}
	for id := first; id < last; id++ {
		data, err := p.Pin(id)
		if err != nil {
			v.Release()
			return nil, err
		}
		v.Pages = append(v.Pages, id)
		v.Data = append(v.Data, data)
	}
	return v, nil
}

// Release unpins every page of the view; the pool may then evict them.
func (v *ChunkView) Release() {
	for _, id := range v.Pages {
		v.pool.Unpin(id)
	}
	v.Pages = nil
	v.Data = nil
}
