package coopscan_test

import (
	"strings"
	"testing"

	"coopscan"
	"coopscan/internal/tpch"
)

func multiLayouts() []coopscan.Layout {
	facts := tpch.LineitemTable(0.5)
	facts.Name = "facts"
	history := tpch.LineitemTable(0.25)
	history.Name = "history"
	return []coopscan.Layout{
		coopscan.NewRowLayoutWidth(facts, 1<<20, 72),
		coopscan.NewRowLayoutWidth(history, 1<<20, 72),
	}
}

func TestSystemScansTwoTables(t *testing.T) {
	layouts := multiLayouts()
	sys := coopscan.NewSystem(coopscan.Config{
		Policy:      coopscan.Relevance,
		BufferBytes: 24 << 20,
		Disk:        coopscan.DiskParams{Bandwidth: 50 << 20, SeekTime: 2e-3},
	}, layouts...)
	sys.AddStream(0,
		coopscan.Scan{Table: "facts", Name: "f1", Ranges: coopscan.FullTable(layouts[0]), CPUPerChunk: 0.01},
		coopscan.Scan{Table: "history", Name: "h1", Ranges: coopscan.FullTable(layouts[1]), CPUPerChunk: 0.01},
	)
	sys.AddStream(0.5,
		coopscan.Scan{Table: "facts", Name: "f2", Ranges: coopscan.FullTable(layouts[0]), CPUPerChunk: 0.02},
	)
	rep, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Scans) != 3 {
		t.Fatalf("scans = %d", len(rep.Scans))
	}
	want := []int{layouts[0].NumChunks(), layouts[1].NumChunks(), layouts[0].NumChunks()}
	for i, s := range rep.Scans {
		if s.Chunks != want[i] {
			t.Errorf("%s consumed %d chunks, want %d", s.Query, s.Chunks, want[i])
		}
	}
	// The concurrent facts scans share I/O: fewer requests than two cold
	// passes plus the history pass.
	cold := 2*layouts[0].NumChunks() + layouts[1].NumChunks()
	if rep.System.IORequests >= cold {
		t.Errorf("requests %d show no sharing (cold total %d)", rep.System.IORequests, cold)
	}
	if rep.Disk.Requests != rep.System.IORequests {
		t.Errorf("device/manager accounting mismatch: %d vs %d", rep.Disk.Requests, rep.System.IORequests)
	}
}

func TestSystemSmallTableAdvice(t *testing.T) {
	big := tpch.LineitemTable(0.5)
	big.Name = "big"
	tiny := tpch.LineitemTable(0.004)
	tiny.Name = "tiny"
	layouts := []coopscan.Layout{
		coopscan.NewRowLayoutWidth(big, 1<<20, 72),
		coopscan.NewRowLayoutWidth(tiny, 1<<20, 72),
	}
	sys := coopscan.NewSystem(coopscan.Config{
		Policy: coopscan.Relevance, BufferBytes: 16 << 20,
		Disk: coopscan.DiskParams{Bandwidth: 50 << 20, SeekTime: 2e-3},
	}, layouts...)
	if !sys.UseCScan("big") {
		t.Error("big table should use CScan")
	}
	if sys.UseCScan("tiny") {
		t.Error("tiny table should fall back to Scan (§7.1)")
	}
	if sys.UseCScan("absent") {
		t.Error("unknown table should not use CScan")
	}
}

func TestSystemMultiTableValidation(t *testing.T) {
	layouts := multiLayouts()
	cfg := coopscan.Config{Policy: coopscan.Normal, BufferBytes: 16 << 20,
		Disk: coopscan.DiskParams{Bandwidth: 50 << 20}}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no layouts should panic")
			}
		}()
		coopscan.NewSystem(cfg)
	}()
	sys := coopscan.NewSystem(cfg, layouts...)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown table should panic")
			}
		}()
		sys.AddStream(0, coopscan.Scan{Table: "nope", Name: "x", Ranges: coopscan.FullTable(layouts[0])})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a scan without a table should panic when there are two tables")
			}
		}()
		sys.AddStream(0, coopscan.Scan{Name: "x", Ranges: coopscan.FullTable(layouts[0])})
	}()
	if _, err := sys.Run(); err == nil || !strings.Contains(err.Error(), "no streams") {
		t.Errorf("Run without streams: %v", err)
	}
}
