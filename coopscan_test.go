package coopscan_test

import (
	"strings"
	"testing"

	"coopscan"
	"coopscan/internal/exec"
	"coopscan/internal/tpch"
)

func lineitemSystem(policy coopscan.Policy) (*coopscan.System, coopscan.Layout) {
	layout := coopscan.NewRowLayoutWidth(tpch.LineitemTable(0.5), 1<<20, 72)
	sys := coopscan.NewSystem(coopscan.Config{
		Policy:      policy,
		BufferBytes: 16 << 20,
		Disk:        coopscan.DiskParams{Bandwidth: 50 << 20, SeekTime: 5e-3},
	}, layout)
	return sys, layout
}

func TestSystemRunsStreams(t *testing.T) {
	sys, layout := lineitemSystem(coopscan.Relevance)
	sys.AddStream(0,
		coopscan.Scan{Name: "full", Ranges: coopscan.FullTable(layout), CPUPerChunk: 0.01},
		coopscan.Scan{Name: "tail", Ranges: coopscan.NewRangeSet(coopscan.Range{Start: 20, End: 30}), CPUPerChunk: 0.01},
	)
	sys.AddStream(1,
		coopscan.Scan{Name: "mid", Ranges: coopscan.NewRangeSet(coopscan.Range{Start: 5, End: 25}), CPUPerChunk: 0.03},
	)
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scans) != 3 {
		t.Fatalf("scans = %d", len(rep.Scans))
	}
	wantChunks := []int{layout.NumChunks(), 10, 20}
	for i, s := range rep.Scans {
		if s.Chunks != wantChunks[i] {
			t.Errorf("%s consumed %d chunks, want %d", s.Query, s.Chunks, wantChunks[i])
		}
		if s.Latency() <= 0 {
			t.Errorf("%s latency %v", s.Query, s.Latency())
		}
	}
	if rep.Streams[0] != 0 || rep.Streams[2] != 1 {
		t.Errorf("stream mapping %v", rep.Streams)
	}
	if rep.System.IORequests == 0 || rep.Disk.Requests != rep.System.IORequests {
		t.Errorf("request accounting: %+v vs %+v", rep.System, rep.Disk)
	}
	if rep.Elapsed <= 0 || rep.CPUUtilisation <= 0 {
		t.Errorf("elapsed %v, cpu %v", rep.Elapsed, rep.CPUUtilisation)
	}
}

func TestOnChunkDeliversEveryRowExactlyOnce(t *testing.T) {
	for _, pol := range coopscan.Policies {
		sys, layout := lineitemSystem(pol)
		seen := make(map[int]bool)
		var rows int64
		sys.AddStream(0, coopscan.Scan{
			Name:   "rowcount",
			Ranges: coopscan.FullTable(layout),
			OnChunk: func(chunk int, firstRow, n int64) {
				if seen[chunk] {
					t.Errorf("%v: chunk %d delivered twice", pol, chunk)
				}
				seen[chunk] = true
				rows += n
			},
		})
		// A competitor so delivery order is perturbed.
		sys.AddStream(0.2, coopscan.Scan{
			Name: "other", Ranges: coopscan.FullTable(layout), CPUPerChunk: 0.02,
		})
		if _, err := sys.Run(); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if rows != layout.Table().Rows {
			t.Errorf("%v: saw %d rows, want %d", pol, rows, layout.Table().Rows)
		}
	}
}

func TestRealQ6OverCooperativeScan(t *testing.T) {
	// Execute the actual FAST query through the public API under relevance
	// (out-of-order delivery) and compare against an in-order reference.
	tab := tpch.LineitemTable(0.1)
	gen := tpch.NewGenerator(tab, 11)
	layout := coopscan.NewRowLayoutWidth(tab, 1<<20, 72)
	pred := exec.DefaultQ6()

	var ref exec.Q6Result
	full := layout.TuplesPerChunk()
	for c := 0; c < layout.NumChunks(); c++ {
		ref.Add(exec.Q6Chunk(gen, int64(c)*full, layout.ChunkTuples(c), pred))
	}

	sys := coopscan.NewSystem(coopscan.Config{
		Policy: coopscan.Relevance, BufferBytes: 8 << 20,
		Disk: coopscan.DiskParams{Bandwidth: 50 << 20, SeekTime: 5e-3},
	}, layout)
	var got exec.Q6Result
	sys.AddStream(0, coopscan.Scan{
		Name: "q6", Ranges: coopscan.FullTable(layout), CPUPerChunk: 0.005,
		OnChunk: func(_ int, firstRow, n int64) {
			got.Add(exec.Q6Chunk(gen, firstRow, n, pred))
		},
	})
	sys.AddStream(0.1, coopscan.Scan{
		Name: "noise", Ranges: coopscan.NewRangeSet(coopscan.Range{Start: 10, End: 40}), CPUPerChunk: 0.02,
	})
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Errorf("Q6 under cooperative delivery = %+v, want %+v", got, ref)
	}
	if ref.Rows == 0 {
		t.Error("reference selected nothing")
	}
}

func TestSystemValidation(t *testing.T) {
	sys, layout := lineitemSystem(coopscan.Normal)
	if _, err := sys.Run(); err == nil || !strings.Contains(err.Error(), "no streams") {
		t.Errorf("Run without streams: %v", err)
	}
	sys2, _ := lineitemSystem(coopscan.Normal)
	sys2.AddStream(0, coopscan.Scan{Name: "x", Ranges: coopscan.FullTable(layout), CPUPerChunk: 0.01})
	if _, err := sys2.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.Run(); err == nil {
		t.Error("second Run should fail")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddStream after Run should panic")
			}
		}()
		sys2.AddStream(0, coopscan.Scan{Name: "y", Ranges: coopscan.FullTable(layout)})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty stream should panic")
			}
		}()
		sys3, _ := lineitemSystem(coopscan.Normal)
		sys3.AddStream(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("scan without ranges should panic")
			}
		}()
		sys4, _ := lineitemSystem(coopscan.Normal)
		sys4.AddStream(0, coopscan.Scan{Name: "z"})
	}()
}

func TestColumnStoreThroughPublicAPI(t *testing.T) {
	tab := tpch.LineitemTable(0.2)
	layout := coopscan.NewColumnLayout(tab, 100_000, 1<<20)
	sys := coopscan.NewSystem(coopscan.Config{
		Policy: coopscan.Relevance, BufferBytes: 64 << 20,
		Disk: coopscan.DiskParams{Bandwidth: 100 << 20, SeekTime: 5e-3},
	}, layout)
	q6cols := tab.MustCols("l_shipdate", "l_discount", "l_quantity", "l_extendedprice")
	sys.AddStream(0, coopscan.Scan{
		Name: "narrow", Ranges: coopscan.FullTable(layout), Columns: q6cols, CPUPerChunk: 0.01,
	})
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scans[0].Chunks != layout.NumChunks() {
		t.Errorf("chunks = %d", rep.Scans[0].Chunks)
	}
	if rep.System.BytesRead >= layout.TotalBytes() {
		t.Errorf("narrow scan read %d of %d total bytes", rep.System.BytesRead, layout.TotalBytes())
	}
}

func TestZoneMapPrunedScan(t *testing.T) {
	tab := tpch.LineitemTable(0.2)
	gen := tpch.NewGenerator(tab, 3)
	layout := coopscan.NewRowLayoutWidth(tab, 1<<20, 72)
	zm := gen.ShipDateZoneMap(layout.NumChunks(), layout.TuplesPerChunk())
	ranges := zm.Prune(365, 2*365) // one year
	if ranges.Empty() || ranges.Len() >= layout.NumChunks()/2 {
		t.Fatalf("pruned ranges = %v of %d chunks", ranges, layout.NumChunks())
	}
	sys := coopscan.NewSystem(coopscan.Config{
		Policy: coopscan.Relevance, BufferBytes: 8 << 20,
		Disk: coopscan.DiskParams{Bandwidth: 50 << 20, SeekTime: 5e-3},
	}, layout)
	sys.AddStream(0, coopscan.Scan{Name: "year2", Ranges: ranges, CPUPerChunk: 0.005})
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scans[0].Chunks != ranges.Len() {
		t.Errorf("consumed %d chunks, want %d", rep.Scans[0].Chunks, ranges.Len())
	}
}
