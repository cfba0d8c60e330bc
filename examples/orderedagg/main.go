// Orderedagg: order-aware operators on top of out-of-order delivery
// (paper §7.2).
//
// CScan under the relevance policy delivers chunks in whatever order
// maximises sharing, yet lineitem is clustered on l_orderkey. This example
// runs two order-aware consumers over such a scan:
//
//   - OrderedAgg: per-orderkey aggregation that emits interior groups
//     immediately and stitches chunk-border groups as neighbours arrive;
//   - CMJ (Cooperative Merge Join): a join with the orders dimension via
//     the join index, position-switching per delivered chunk.
//
// Both results are verified against sequential references.
//
// Run with: go run ./examples/orderedagg
package main

import (
	"fmt"
	"log"

	"coopscan"
)

func main() {
	table := coopscan.Lineitem(0.5)
	gen := coopscan.NewLineitemGenerator(table, 99)
	layout := coopscan.NewRowLayoutWidth(table, 8<<20, 72)
	nOrders := table.Rows/4 + 2
	dim := coopscan.NewOrdersDim(nOrders, 5)

	fmt.Printf("lineitem: %d rows in %d chunks, clustered on l_orderkey; %d orders\n\n",
		table.Rows, layout.NumChunks(), nOrders)

	// ---- cooperative run: out-of-order delivery ---------------------------
	sys := coopscan.NewSystem(coopscan.Config{
		Policy:      coopscan.Relevance,
		BufferBytes: 6 * 8 << 20,
	}, layout)
	groups := 0
	oa := coopscan.NewOrderedAgg(layout.NumChunks(), func(coopscan.Group) { groups++ })
	cmj := coopscan.NewCMJ(dim)
	var order []int
	emittedMidway := 0

	keys := make([]int64, layout.TuplesPerChunk())
	qty := make([]int64, layout.TuplesPerChunk())
	sys.AddStream(0, coopscan.Scan{
		Name:        "ordered-agg+join",
		Ranges:      coopscan.FullTable(layout),
		CPUPerChunk: 0.02,
		OnChunk: func(chunk int, firstRow, rows int64) {
			k, v := keys[:rows], qty[:rows]
			gen.Column(coopscan.ColOrderKey, firstRow, k)
			gen.Column(coopscan.ColQuantity, firstRow, v)
			oa.ProcessChunk(chunk, k, v)
			cmj.ProcessChunk(k, v)
			order = append(order, chunk)
			if len(order) == layout.NumChunks()/2 {
				emittedMidway = oa.Emitted()
			}
		},
	})
	// Competing scans perturb delivery order.
	half := layout.NumChunks() / 2
	sys.AddStream(0.1, coopscan.Scan{
		Name: "competitor-1", CPUPerChunk: 0.05,
		Ranges: coopscan.NewRangeSet(coopscan.Range{Start: half, End: layout.NumChunks()}),
	})
	sys.AddStream(0.3, coopscan.Scan{
		Name: "competitor-2", CPUPerChunk: 0.01,
		Ranges: coopscan.NewRangeSet(coopscan.Range{Start: half / 2, End: half + half/2}),
	})
	if _, err := sys.Run(); err != nil {
		log.Fatal(err)
	}
	total := oa.Finish()

	sequential := true
	for i := 1; i < len(order); i++ {
		if order[i] != order[i-1]+1 {
			sequential = false
		}
	}
	fmt.Printf("delivery order: %v…\n", order[:min(10, len(order))])
	fmt.Printf("out-of-order delivery: %v\n", !sequential)
	fmt.Printf("ordered aggregation: %d groups total, %d already emitted at half-scan\n", total, emittedMidway)

	// ---- sequential reference ---------------------------------------------
	refGroups := 0
	refAgg := coopscan.NewOrderedAgg(layout.NumChunks(), func(coopscan.Group) { refGroups++ })
	refJoin := coopscan.NewCMJ(dim)
	for c := 0; c < layout.NumChunks(); c++ {
		rows := layout.ChunkTuples(c)
		k, v := keys[:rows], qty[:rows]
		gen.Column(coopscan.ColOrderKey, int64(c)*layout.TuplesPerChunk(), k)
		gen.Column(coopscan.ColQuantity, int64(c)*layout.TuplesPerChunk(), v)
		refAgg.ProcessChunk(c, k, v)
		refJoin.ProcessChunk(k, v)
	}
	refTotal := refAgg.Finish()

	if total != refTotal {
		log.Fatalf("ordered agg diverged: %d vs %d groups", total, refTotal)
	}
	a, b := cmj.Result(), refJoin.Result()
	for i := range a {
		if a[i] != b[i] {
			log.Fatalf("CMJ diverged at bucket %d: %v vs %v", i, a[i], b[i])
		}
	}
	fmt.Printf("\nverified: %d groups and %d join buckets identical to the in-order reference\n",
		total, len(a))
	for _, g := range a {
		fmt.Printf("  priority bucket %d: %d lineitems, qty sum %d\n", g.Key, g.Count, g.Sum)
	}
}
