// Warehouse: the paper's motivating data-warehouse scenario — many
// concurrent analytical streams over one fact table, with zonemap-pruned
// date ranges — executed under all four scheduling policies.
//
// Each stream runs a sequence of real queries: FAST (TPC-H Q6: revenue from
// a shipdate year) and SLOW (Q1-style grouped aggregation). Date predicates
// are pruned to chunk ranges with a shipdate zonemap ("small materialized
// aggregates", paper §2), so scans request only the relevant table ranges.
// The example verifies every policy computes identical query answers while
// differing (a lot) in disk traffic and latency.
//
// Run with: go run ./examples/warehouse
package main

import (
	"fmt"
	"log"

	"coopscan"
)

const (
	scaleFactor = 2
	chunkBytes  = 16 << 20
	streams     = 8
	seed        = 42
)

// queryPlan is one pruned query of a stream.
type queryPlan struct {
	name   string
	ranges coopscan.RangeSet
	slow   bool
	year   int64 // shipdate year index, 0-6
}

func main() {
	table := coopscan.Lineitem(scaleFactor)
	gen := coopscan.NewLineitemGenerator(table, seed)
	layout := coopscan.NewRowLayoutWidth(table, chunkBytes, 72)
	zonemap := gen.ShipDateZoneMap(layout.NumChunks(), layout.TuplesPerChunk())

	plans := buildStreams(layout, zonemap)

	fmt.Printf("lineitem SF %d: %d chunks; %d streams of %d queries each\n\n",
		scaleFactor, layout.NumChunks(), streams, len(plans[0]))
	fmt.Printf("%-10s %10s %12s %12s %10s\n", "policy", "requests", "read (GB)", "elapsed (s)", "CPU")

	var reference map[string]int64
	for _, policy := range coopscan.Policies {
		answers, report := runPolicy(policy, layout, gen, plans)
		if reference == nil {
			reference = answers
		} else {
			for q, v := range answers {
				if reference[q] != v {
					log.Fatalf("%v: query %s answered %d, want %d", policy, q, v, reference[q])
				}
			}
		}
		fmt.Printf("%-10v %10d %12.2f %12.2f %9.0f%%\n",
			policy, report.System.IORequests,
			float64(report.System.BytesRead)/(1<<30),
			report.Elapsed, 100*report.CPUUtilisation)
	}
	fmt.Printf("\nall four policies returned identical answers for %d distinct queries\n", len(reference))
}

// buildStreams derives per-stream query plans; each stream mixes pruned
// one-year FAST queries with SLOW half-table aggregations.
func buildStreams(layout coopscan.Layout, zm *coopscan.ZoneMap) [][]queryPlan {
	plans := make([][]queryPlan, streams)
	n := layout.NumChunks()
	for s := range plans {
		year := int64(s % 6)
		fastRange := zm.Prune(365*year, 365*(year+1))
		start := (s * n / streams) % (n / 2)
		plans[s] = []queryPlan{
			{name: fmt.Sprintf("q6-year%d-s%d", year, s), ranges: fastRange, year: year},
			{name: fmt.Sprintf("q1-half-s%d", s), slow: true,
				ranges: coopscan.NewRangeSet(coopscan.Range{Start: start, End: start + n/2})},
		}
	}
	return plans
}

// runPolicy executes all streams under one policy and returns a
// query-name → answer map plus the system report.
func runPolicy(policy coopscan.Policy, layout coopscan.Layout,
	gen *coopscan.Generator, plans [][]queryPlan) (map[string]int64, *coopscan.Report) {

	sys := coopscan.NewSystem(coopscan.Config{
		Policy:      policy,
		BufferBytes: 16 * chunkBytes,
	}, layout)
	answers := make(map[string]int64)
	var finalize []func()
	pred := coopscan.DefaultQ6()
	for s, stream := range plans {
		scans := make([]coopscan.Scan, 0, len(stream))
		for _, plan := range stream {
			plan := plan
			pp := pred
			pp.DateLo, pp.DateHi = 365*plan.year, 365*(plan.year+1)
			var q6 coopscan.Q6Result
			q1 := make(coopscan.Q1Result)
			cpu := 0.02
			if plan.slow {
				cpu = 0.08
			}
			scans = append(scans, coopscan.Scan{
				Name:        plan.name,
				Ranges:      plan.ranges,
				CPUPerChunk: cpu,
				OnChunk: func(_ int, firstRow, rows int64) {
					if plan.slow {
						q1.Merge(coopscan.Q1Chunk(gen, firstRow, rows, coopscan.DateMax-90, 4))
					} else {
						q6.Add(coopscan.Q6Chunk(gen, firstRow, rows, pp))
					}
				},
			})
			name := plan.name
			slow := plan.slow
			finalize = append(finalize, func() {
				if slow {
					var total int64
					for _, g := range q1 {
						total += g.SumCharge
					}
					answers[name] = total
				} else {
					answers[name] = q6.Revenue
				}
			})
		}
		sys.AddStream(float64(s)*1.5, scans...)
	}
	report, err := sys.Run()
	if err != nil {
		log.Fatalf("%v: %v", policy, err)
	}
	for _, f := range finalize {
		f()
	}
	return answers, report
}
