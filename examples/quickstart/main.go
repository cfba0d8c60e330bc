// Quickstart: two overlapping scans sharing disk bandwidth under the
// relevance policy.
//
// A full-table scan is already running when a half-table scan arrives three
// seconds later. With Cooperative Scans the second query immediately reuses
// chunks the first one loads, so the system issues far fewer disk reads
// than the two scans would need in isolation.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"coopscan"
)

func main() {
	// A ~460 MB TPC-H-like lineitem table in 16 MB chunks.
	table := coopscan.Lineitem(1)
	layout := coopscan.NewRowLayoutWidth(table, 16<<20, 72)
	fmt.Printf("table %s: %d rows, %d chunks of 16 MB\n",
		table.Name, table.Rows, layout.NumChunks())

	sys := coopscan.NewSystem(coopscan.Config{
		Policy:      coopscan.Relevance,
		BufferBytes: 8 * 16 << 20, // an 8-chunk buffer pool
	}, layout)

	// Stream 1: a full-table scan, CPU-light (I/O bound).
	sys.AddStream(0, coopscan.Scan{
		Name:        "full-scan",
		Ranges:      coopscan.FullTable(layout),
		CPUPerChunk: 0.02,
	})
	// Stream 2 arrives 3 s later and reads the second half of the table.
	half := layout.NumChunks() / 2
	sys.AddStream(3, coopscan.Scan{
		Name:        "late-half",
		Ranges:      coopscan.NewRangeSet(coopscan.Range{Start: half, End: layout.NumChunks()}),
		CPUPerChunk: 0.02,
	})

	report, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}

	for _, s := range report.Scans {
		fmt.Printf("%-10s %3d chunks in %6.2fs (%d disk requests on its behalf)\n",
			s.Query, s.Chunks, s.Latency(), s.IOs)
	}
	soloRequests := layout.NumChunks() + (layout.NumChunks() - half)
	fmt.Printf("\ndisk requests: %d (isolated scans would need %d)\n",
		report.System.IORequests, soloRequests)
	fmt.Printf("bandwidth shared: %.0f%% of the late scan came from chunks already in flight\n",
		100*(1-float64(report.System.IORequests-layout.NumChunks())/float64(layout.NumChunks()-half)))
	fmt.Printf("total virtual time %.2fs, CPU %.0f%%\n", report.Elapsed, 100*report.CPUUtilisation)
}
