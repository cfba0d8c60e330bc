package core

import (
	"testing"

	"coopscan/internal/storage"
)

// TestIssueLoadShieldsResidentSiblingColumns pins the §6.2 rule on the live
// issue path: "the already-loaded part of the chunk is marked as used,
// which prohibits its eviction". The decision chunk has one resident,
// unpinned column that is the pool's least recently used part, and one
// column that needs I/O. IssueLoad must make room by evicting something
// else, keep the sibling, and BeginLoad must mark only the absent column —
// evicting the sibling would widen the load past the space just ensured.
func TestIssueLoadShieldsResidentSiblingColumns(t *testing.T) {
	clk := &stepClock{}
	layout := dsmTestLayout(4, 2)
	abm := NewLive(clk, layout, Config{
		Policy:      Normal,
		BufferBytes: 4 * layout.ChunkBytes(0, storage.AllCols(2)),
	})
	load := func(c int, cols storage.ColSet) {
		d := LoadDecision{Chunk: c, Cols: cols}
		d.Cols = abm.BeginLoad(d)
		abm.FinishLoad(d)
	}
	sibling := partKey{chunk: 0, col: 0}
	filler := partKey{chunk: 2, col: 0}

	// The sibling column of chunk 0 goes resident first; a one-chunk scan
	// consumes it, lifting the fresh-load guard and stamping its recency.
	clk.now = 1
	load(0, storage.Cols(0))
	h := abm.NewQuery("h", storage.NewRangeSet(storage.Range{Start: 0, End: 1}), storage.Cols(0))
	abm.Register(h)
	if c := abm.Policy().PickAvailable(h); c != 0 {
		t.Fatalf("helper scan picked chunk %d, want 0", c)
	}
	abm.Pin(h, 0)
	clk.now = 2
	abm.Release(h, 0)
	abm.Finish(h)

	// A more recently used part of a chunk nobody needs: the victim the
	// shield must fall back to.
	clk.now = 3
	load(2, storage.Cols(0))

	q := abm.NewQuery("q", storage.NewRangeSet(storage.Range{Start: 0, End: 1}), storage.Cols(0, 1))
	abm.Register(q)
	need := abm.ColdBytes(0, q.Cols)
	if need == 0 {
		t.Fatal("chunk 0 needs no I/O")
	}
	// One byte short of room for the absent column.
	abm.SetBufferBytes(abm.UsedBytes() + need - 1)

	if _, _, ok := abm.IssueLoad(func(LoadDecision) bool { return true }); ok {
		t.Fatal("IssueLoad issued a vetoed decision")
	}
	if abm.cache.state(filler) != partLoaded || abm.FreeBytes() != need-1 {
		t.Fatalf("a vetoed decision changed the pool: free %d, want %d", abm.FreeBytes(), need-1)
	}

	d, marked, ok := abm.IssueLoad(nil)
	if !ok {
		t.Fatal("IssueLoad found no room, though the filler part is evictable")
	}
	if d.Chunk != 0 || d.Query != q {
		t.Fatalf("decision = chunk %d for %v, want chunk 0 for q", d.Chunk, d.Query)
	}
	if abm.cache.state(sibling) != partLoaded {
		t.Error("IssueLoad evicted the decision chunk's resident sibling column")
	}
	if abm.cache.state(filler) != partAbsent {
		t.Error("the filler part survived; it should have been evicted in the sibling's place")
	}
	if marked != storage.Cols(1) {
		t.Errorf("BeginLoad marked %v, want only the absent column %v", marked, storage.Cols(1))
	}
	if free := abm.FreeBytes(); free < 0 {
		t.Errorf("load overran the pool: free = %d", free)
	}
	if len(abm.assembling) != 0 {
		t.Errorf("shield marks left behind: %v", abm.assembling)
	}

	d.Cols = marked
	abm.FinishLoad(d)
	if err := abm.AuditIncremental(); err != nil {
		t.Fatal(err)
	}
	if c := abm.Policy().PickAvailable(q); c != 0 {
		t.Errorf("chunk 0 not deliverable after the load: picked %d", c)
	}
}
