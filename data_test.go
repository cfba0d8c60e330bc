package coopscan_test

import (
	"testing"
	"time"

	"coopscan"
)

func TestDataAliasesUsable(t *testing.T) {
	tab := coopscan.Lineitem(0.01)
	if tab.Rows != 60_000 {
		t.Fatalf("rows = %d", tab.Rows)
	}
	gen := coopscan.NewLineitemGenerator(tab, 1)
	qty := make([]int64, 100)
	gen.Column(coopscan.ColQuantity, 0, qty)
	for _, v := range qty {
		if v < 1 || v > 50 {
			t.Fatalf("quantity %d out of range", v)
		}
	}
	// The re-exported execution entry points work end to end.
	res := coopscan.Q6Chunk(gen, 0, tab.Rows, coopscan.DefaultQ6())
	if res.Rows <= 0 {
		t.Error("Q6 selected nothing")
	}
	q1 := coopscan.Q1Chunk(gen, 0, tab.Rows, coopscan.DateMax-90, 0)
	if len(q1) != 6 {
		t.Errorf("Q1 groups = %d", len(q1))
	}
	groups := 0
	oa := coopscan.NewOrderedAgg(4, func(coopscan.Group) { groups++ })
	keys := make([]int64, 100)
	gen.Column(coopscan.ColOrderKey, 0, keys)
	oa.ProcessChunk(0, keys[:50], qty[:50])
	oa.ProcessChunk(1, keys[50:], qty[50:])
	oa.ProcessChunk(2, nil, nil)
	oa.ProcessChunk(3, nil, nil)
	if got := oa.Finish(); got != groups || got == 0 {
		t.Errorf("ordered agg emitted %d/%d", groups, got)
	}
	cmj := coopscan.NewCMJ(coopscan.NewOrdersDim(tab.Rows/4+2, 9))
	cmj.ProcessChunk(keys, qty)
	if len(cmj.Result()) == 0 {
		t.Error("CMJ produced nothing")
	}
}

func TestPaceSlowsWallClock(t *testing.T) {
	// With a pace factor, a 0.2-virtual-second run takes at least ~some
	// measurable wall time; without it, it is effectively instant.
	run := func(pace float64) time.Duration {
		tab := coopscan.Lineitem(0.01)
		layout := coopscan.NewRowLayoutWidth(tab, 1<<20, 72)
		sys := coopscan.NewSystem(coopscan.Config{
			Policy: coopscan.Normal, BufferBytes: 4 << 20,
			Disk: coopscan.DiskParams{Bandwidth: 50 << 20, SeekTime: 1e-3},
		}, layout)
		if pace > 0 {
			sys.Pace(pace)
		}
		sys.AddStream(0, coopscan.Scan{Name: "q", Ranges: coopscan.FullTable(layout)})
		start := time.Now()
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	fast := run(0)
	paced := run(0.5) // half real-time over ~0.1 virtual seconds
	if paced < 20*time.Millisecond {
		t.Errorf("paced run finished in %v, expected wall-clock delay", paced)
	}
	if fast > paced {
		t.Errorf("unpaced run (%v) slower than paced (%v)", fast, paced)
	}
}
