// Columnstore: DSM scans with real compression-derived column densities,
// demonstrating the paper's §6 findings — narrow scans read only the bytes
// of the columns they touch, and I/O sharing between concurrent scans
// depends on how much their column sets overlap.
//
// The example first measures the actual PFOR/PFOR-DELTA/PDICT densities of
// the generated lineitem data (validating the static schema densities),
// then runs two concurrent scan pairs under the relevance policy: one pair
// with identical column sets, one with disjoint ones.
//
// Run with: go run ./examples/columnstore
package main

import (
	"fmt"
	"log"

	"coopscan"
)

func main() {
	table := coopscan.Lineitem(2)
	gen := coopscan.NewLineitemGenerator(table, 7)

	fmt.Println("measured compression densities (bits/value):")
	fmt.Printf("  %-18s %-12s %9s %9s\n", "column", "scheme", "declared", "measured")
	for _, col := range []int{coopscan.ColOrderKey, coopscan.ColQuantity,
		coopscan.ColDiscount, coopscan.ColReturnFlag, coopscan.ColShipDate, coopscan.ColExtendedPrice} {
		c := table.Columns[col]
		measured, err := gen.MeasureDensity(col, 1<<16)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-18s %-12v %9.1f %9.2f\n", c.Name, c.Compression, c.BitsPerValue, measured)
	}

	layout := coopscan.NewColumnLayout(table, 250_000, 1<<20)
	fmt.Printf("\nDSM layout: %d logical chunks, %.2f GB total\n",
		layout.NumChunks(), float64(layout.TotalBytes())/(1<<30))

	q6 := table.MustCols("l_shipdate", "l_discount", "l_quantity", "l_extendedprice")
	disjoint := table.MustCols("l_orderkey", "l_partkey", "l_suppkey", "l_comment")

	same := runPair(layout, "identical columns", q6, q6)
	diff := runPair(layout, "disjoint columns", q6, disjoint)
	fmt.Printf("\ncolumn overlap paid off: identical-column pair read %.2fx less than disjoint pair\n",
		float64(diff)/float64(same))
}

// runPair runs two concurrent full-table scans with the given column sets
// and reports the bytes read.
func runPair(layout coopscan.Layout, label string, colsA, colsB coopscan.ColSet) int64 {
	sys := coopscan.NewSystem(coopscan.Config{
		Policy:      coopscan.Relevance,
		BufferBytes: 512 << 20,
	}, layout)
	sys.AddStream(0, coopscan.Scan{
		Name: "scan-a", Ranges: coopscan.FullTable(layout), Columns: colsA, CPUPerChunk: 0.01,
	})
	sys.AddStream(0.5, coopscan.Scan{
		Name: "scan-b", Ranges: coopscan.FullTable(layout), Columns: colsB, CPUPerChunk: 0.01,
	})
	report, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n[%s]\n", label)
	for _, s := range report.Scans {
		fmt.Printf("  %-8s %3d chunks in %6.2fs\n", s.Query, s.Chunks, s.Latency())
	}
	fmt.Printf("  total: %d requests, %.2f GB read\n",
		report.System.IORequests, float64(report.System.BytesRead)/(1<<30))
	return report.System.BytesRead
}
