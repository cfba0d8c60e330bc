// Multitable: cooperative scans across several tables sharing one disk and
// one buffer budget (paper §7.1: a production CScan must "keep track of
// multiple tables, keeping separate statistics and meta-data for each").
//
// A current "facts" table and an archival "history" table live on the same
// device. Analytical streams scan both; each table gets its own ABM whose
// buffer slice is proportional to the table's footprint, and the manager
// advises a plain Scan for the small fully-cached dimension table.
//
// Run with: go run ./examples/multitable
package main

import (
	"fmt"
	"log"

	"coopscan"
)

func main() {
	facts := coopscan.Lineitem(2)
	facts.Name = "facts"
	history := coopscan.Lineitem(1)
	history.Name = "history"
	dims := coopscan.Lineitem(0.004)
	dims.Name = "dims"

	layouts := []coopscan.Layout{
		coopscan.NewRowLayoutWidth(facts, 16<<20, 72),
		coopscan.NewRowLayoutWidth(history, 16<<20, 72),
		coopscan.NewRowLayoutWidth(dims, 16<<20, 72),
	}
	sys := coopscan.NewSystem(coopscan.Config{
		Policy:      coopscan.Relevance,
		BufferBytes: 24 * 16 << 20,
	}, layouts...)

	for _, l := range layouts {
		fmt.Printf("%-8s %3d chunks, cooperative scan: %v\n",
			l.Table().Name, l.NumChunks(), sys.UseCScan(l.Table().Name))
	}

	// Three staggered streams: two hammer facts (and so share bandwidth),
	// one sweeps history while consulting dims.
	full := func(i int) coopscan.RangeSet { return coopscan.FullTable(layouts[i]) }
	sys.AddStream(0,
		coopscan.Scan{Table: "facts", Name: "facts-report", Ranges: full(0), CPUPerChunk: 0.03},
	)
	sys.AddStream(2,
		coopscan.Scan{Table: "facts", Name: "facts-audit", Ranges: full(0), CPUPerChunk: 0.05},
		coopscan.Scan{Table: "dims", Name: "dims-lookup", Ranges: full(2), CPUPerChunk: 0.01},
	)
	sys.AddStream(3,
		coopscan.Scan{Table: "history", Name: "history-sweep", Ranges: full(1), CPUPerChunk: 0.02},
	)

	rep, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	for i, s := range rep.Scans {
		fmt.Printf("stream %d %-14s %3d chunks in %7.2fs (%3d I/Os)\n",
			rep.Streams[i], s.Query, s.Chunks, s.Latency(), s.IOs)
	}
	coldTotal := 2*layouts[0].NumChunks() + layouts[1].NumChunks() + layouts[2].NumChunks()
	fmt.Printf("\ntotal: %d disk requests (cold per-scan total %d), %.2f GB, %.2fs, CPU %.0f%%\n",
		rep.System.IORequests, coldTotal,
		float64(rep.System.BytesRead)/(1<<30), rep.Elapsed, 100*rep.CPUUtilisation)
}
